"""Shared helpers for the benchmark harness.

Every paper table/figure has one ``bench_*.py`` here.  Each bench both
*regenerates the paper's rows* (printed and saved under
``benchmarks/out/`` by :func:`save_and_print`) and times a
representative unit of work through pytest-benchmark.  The helpers
live in this module, imported as ``from bench_common import ...``, not
in a ``conftest``: that name resolves to whichever conftest module
pytest loaded first (``tests/`` has one too).

Set ``SAFEDM_FULL_TABLE1=1`` to sweep all 29 benchmarks in
``bench_table1``; the default sweeps a category-representative subset
(:data:`TABLE1_SUBSET`) to keep a full bench run in minutes.

Report conventions for the ``BENCH_*.json`` writers
---------------------------------------------------

Every benchmark writes a JSON report consumed by CI gates and by
humans diffing runs over time.  A metric that *could not be measured*
must be distinguishable from one that was measured and happened to be
small — ``BENCH_runtime.json`` once claimed a 0.973x "parallel
speedup" that was really the serial code path timed against itself on
a 1-CPU host.  The canonical shape, used by every writer:

* measured —   ``{"<metric>": <value>}`` and no ``_skipped`` key;
* skipped  —   ``{"<metric>": null, "<metric>_skipped": "<reason>"}``
  where the reason is a short machine-readable slug
  (``"single-cpu"``, ``"no-baseline-trials"``, ...).

Downstream tooling can then treat ``metric is None`` as "not
measured", read the adjacent ``_skipped`` field for why, and never
confuse either with a measured-but-disappointing number.
"""

from __future__ import annotations

import os
import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Category-representative subset used by default for Table I.
TABLE1_SUBSET = (
    "binarysearch",   # search
    "bitcount",       # bitops
    "bsort",          # sort
    "cubic",          # ALU-dense math (the paper's no-div champion)
    "fft",            # dsp
    "matrix1",        # linear algebra
    "md5",            # crypto
    "pm",             # the timing-anomaly benchmark
    "recursion",      # stack-heavy
)


def full_table1() -> bool:
    return os.environ.get("SAFEDM_FULL_TABLE1", "") == "1"


def save_and_print(name: str, text: str):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text)
    print()
    print("=" * 72)
    print(text)
    print("(saved to %s)" % path)


def metric_fields(metric: str, value, skipped_reason=None) -> dict:
    """Canonical measured/skipped field pair for one report metric.

    Returns ``{metric: value}`` when ``skipped_reason`` is None, else
    ``{metric: None, metric + "_skipped": skipped_reason}`` (the
    value is dropped — a skipped metric never carries a number).
    """
    if skipped_reason is not None:
        return {metric: None, "%s_skipped" % metric: skipped_reason}
    return {metric: value}
