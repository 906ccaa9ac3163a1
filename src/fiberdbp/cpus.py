"""The process's helper threads and the one CPU budget they are taken from.

Every thread the package starts, apart from the workers of optimize's
pools, is a ``helper``: it runs beside a block of its caller, is joined
when the block ends, and its error reaches the caller unless the block's
own error does first. Three kinds of work are cut in two by ``in_two``,
the caller running one part and at most one helper the other: a simulated
span (channel), an engine pass over overlap-and-save blocks (dbp), and a
spectral step on a waveform's two polarization rows (signals). One
process-wide count of the threads running such work, against the usable
CPUs, decides whether a helper is taken, so concurrent callers (optimize's
pools, spans of concurrent transmissions, receivers in threads) never
start more helpers than there are idle CPUs; a helper, once taken, runs to
the end of its call. Either way every output is the same bits: each part
runs the same code on the same data as the caller alone would. The other
helper, channel's checkpoint writer, waits mostly on the disk and is not
counted. This module imports nothing of the package, so every module can
take its helpers from here.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

# Smallest share of work that is handed to a helper, in complex samples per
# array operation of one thread: twice the block size times its tap sets
# for an engine pass (both polarizations are one array), the row length
# for a spectral step and for a span. Below it, starting and joining a
# thread (about 60 us) and the interpreter time between numpy calls, which
# the two threads cannot overlap, eat the gain. Measured on a 2-vCPU VM
# with both CPUs free, split against whole: single-set CB-ESSFM passes over
# 18 432 samples took 0.78x the time at 4096-sample blocks, 1.00x at 3072
# and 1.18x at 2048; batches of 1024-sample blocks took 0.89x at four sets
# a thread and 1.50x at two; matched_filter took 0.88x at 8192 samples and
# 1.13x at 4096; desk-link spans (two barrier waits per fine step) took
# 0.70-0.90x at 14 336 samples a row and 1.16-1.36x at 3584, while runs at
# 7168 read from 0.81x to 1.045x.
MIN_SHARE = 8192


def usable_cpus() -> int:
    """CPUs this process may run on (the affinity mask, where there is one).

    Read at every use, so a changed affinity mask counts: by the budget
    here and by optimize's pool of independent transmissions.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Budget:
    """Threads running split work in this process, against the CPUs.

    ``enter`` counts a caller in and, while the count is below the usable
    CPUs, a helper thread for it (the return value). ``leave`` counts the
    threads out.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.running = 0

    def enter(self) -> bool:
        with self._lock:
            self.running += 1
            helper = self.running < usable_cpus()
            self.running += helper
        return helper

    def leave(self, threads: int) -> None:
        with self._lock:
            self.running -= threads


BUDGET = Budget()


@contextmanager
def helper(target, name: str):
    """Run ``target()`` on a thread named ``name`` while the block runs.

    The thread is joined when the block ends, also when the block raises.
    An error raised in the block is the one that propagates; otherwise an
    error raised by ``target`` is raised here after the join.
    """
    errors = []

    def main():
        try:
            target()
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    thread = threading.Thread(target=main, name=name)
    thread.start()
    try:
        yield
    finally:
        thread.join()
    if errors:
        raise errors[0]


def in_two(run, share: int) -> None:
    """Do work cut in two: ``run(0, 2)`` in the caller and ``run(1, 2)``
    on a ``helper`` thread, when ``share`` (see MIN_SHARE) is large enough
    and the budget has a CPU for the helper; otherwise ``run(0, 1)``, the
    whole, in the caller. A helper, once taken, runs its half to the end.

    The two halves must write disjoint outputs, or shared writes ordered
    by the caller's own barriers; a half that waits at such a barrier
    aborts it on its own error, so that the other half returns.
    """
    if share < MIN_SHARE:
        run(0, 1)
        return
    split = BUDGET.enter()
    try:
        if split:
            with helper(lambda: run(1, 2), "fiberdbp-helper"):
                run(0, 2)
        else:
            run(0, 1)
    finally:
        BUDGET.leave(1 + split)
