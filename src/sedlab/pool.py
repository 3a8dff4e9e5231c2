"""One fork pool: a function mapped over the parts of a job, one process each.

`fork_map(fn, state, parts)` returns `[fn(*state, part) for part in parts]`
in part order.  The calling process runs parts[0] and len(parts) - 1 forked
worker processes run the others.  Under fork the workers inherit `state`
(nothing in it is pickled, shared-memory outputs included); only each part
and each result cross a pipe.  The whole map runs in this process when
there is one part or no fork.  No worker outlives the call, and an error
raised in a worker reaches the caller unchanged.
"""

from __future__ import annotations

import os

_FORKED = None  # (fn, state) of a forked worker, set at its start


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, which `taskset` limits."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split(items: range, n_parts: int) -> list[range]:
    """items cut into n_parts contiguous sub-ranges of near-equal length."""
    n = len(items)
    return [items[n * k // n_parts : n * (k + 1) // n_parts] for k in range(n_parts)]


def _can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _init_forked(fn, state):
    global _FORKED
    _FORKED = fn, state


def _run_forked(part):
    fn, state = _FORKED
    return fn(*state, part)


def fork_map(fn, state: tuple, parts: list) -> list:
    """[fn(*state, part) for part in parts], parts[1:] in forked workers."""
    if len(parts) < 2 or not _can_fork():
        return [fn(*state, part) for part in parts]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(len(parts) - 1,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_forked, initargs=(fn, state)) as executor:
        futures = [executor.submit(_run_forked, part) for part in parts[1:]]
        first = fn(*state, parts[0])
        return [first] + [future.result() for future in futures]  # part order
