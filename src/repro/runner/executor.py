"""The one ordered executor behind every fan-out in the package.

Table I sweeps, CCF campaigns and Monte-Carlo trial batches all map one
function over a list of independent tasks.  :func:`map_ordered` runs
that map serially in-process or over a process pool, and always yields
results in task order — never completion order — so a ``jobs=1`` and a
``jobs=N`` run fold identical results, counters included.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, Optional

#: ``os.cpu_count()`` at or below which ``jobs=None`` means serial:
#: BENCH_runtime.json on a 1-CPU container measured the pool *slower*
#: than serial (speedup 0.959) because worker spawn and pickling buy
#: nothing without spare cores.
SERIAL_FALLBACK_CPUS = 2


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count for a ``jobs`` request: ``None`` means one per
    core (serial on hosts without real parallelism); an explicit
    count is taken as is and must be at least 1."""
    if jobs is None:
        cpus = os.cpu_count() or 1
        return 1 if cpus <= SERIAL_FALLBACK_CPUS else cpus
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %r" % (jobs,))
    return jobs


#: ``(fn, context)`` of the map a pool worker serves; set only inside
#: pool workers, by the initializer (the parent never touches it).
_worker_map = None


def _init_worker(fn: Callable, context) -> None:
    global _worker_map
    _worker_map = (fn, context)


def _call_in_worker(task):
    fn, context = _worker_map
    return fn(context, task)


def map_ordered(fn: Callable, context, tasks: Iterable,
                jobs: int = 1) -> Iterator:
    """Yield ``fn(context, task)`` for every task, in task order.

    With ``jobs == 1`` (or a single task) the calls run in-process, as
    results are consumed.  Otherwise they fan out over worker
    processes, each receiving ``context`` once through the pool
    initializer (so state such as a fork engine's decoded snapshots
    persists across that worker's tasks).
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield fn(context, task)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                             initializer=_init_worker,
                             initargs=(fn, context)) as pool:
        yield from pool.map(_call_in_worker, tasks)
