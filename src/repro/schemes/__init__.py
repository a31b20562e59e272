"""Redundancy-scheme framework (N-core replica groups on one SoC).

Every redundant run goes through one interface, a
:class:`~repro.schemes.base.RedundancyScheme`; the paper's monitored
pair is the ``safedm`` scheme, which
:func:`repro.soc.experiment.run_redundant` runs when no scheme is named:

=============  =====  ==============================================
kind           cores  checker
=============  =====  ==============================================
``safedm``     2      SafeDM diversity monitor + output comparison
``lockstep``   2      delayed commit-stream comparator (DCLS)
``tmr``        3      per-commit majority voter
``multipair``  4+     one SafeDM per monitored pair
``dme``        2      structurally decorrelated trail build + compare
=============  =====  ==============================================

:func:`make_scheme` is the one factory.
"""

from .base import RedundancyScheme
from .dme import DMEPair
from .lockstep import LockstepPair
from .multipair import MultiPair
from .safedm import SafeDMPair
from .spec import DME_ROTATABLE, SCHEME_KINDS, SchemeSpec
from .tmr import TMRGroup

__all__ = [
    "DME_ROTATABLE",
    "SCHEME_KINDS",
    "RedundancyScheme",
    "SchemeSpec",
    "make_scheme",
]

_CLASSES = {cls.kind: cls for cls in (SafeDMPair, LockstepPair, TMRGroup,
                                      MultiPair, DMEPair)}
assert tuple(_CLASSES) == SCHEME_KINDS


def make_scheme(spec) -> RedundancyScheme:
    """Instantiate the scheme a kind name or :class:`SchemeSpec`
    describes; a ready :class:`RedundancyScheme` passes through."""
    if isinstance(spec, RedundancyScheme):
        return spec
    if isinstance(spec, str):
        spec = SchemeSpec(kind=spec)
    if not isinstance(spec, SchemeSpec):
        raise TypeError("expected a scheme kind, SchemeSpec, or"
                        " RedundancyScheme, got %r" % (spec,))
    return _CLASSES[spec.kind](spec)
