"""The process's one CPU budget, from which every helper thread is taken.

Three kinds of work run on their caller and at most one helper thread: a
simulated span (channel), an engine pass over overlap-and-save blocks
(dbp), and a spectral step on a waveform's two polarization rows
(signals). One process-wide count of the threads running such work,
against the usable CPUs, decides whether a helper is taken, so concurrent
callers (optimize's pools, spans of concurrent transmissions, receivers in
threads) never start more helpers than there are idle CPUs. Either way
every output is the same bits: each half runs the same code on the same
data as the caller alone would. This module imports nothing of the
package, so every module can take its helpers from here.
"""

from __future__ import annotations

import os
import threading

# Smallest share of work that is handed to a helper, in complex samples per
# array operation of one thread: twice the block size times its tap sets
# for an engine pass (both polarizations are one array), the row length
# for a spectral step. Below it, starting and joining a thread (about
# 60 us) and the interpreter time between numpy calls, which the two
# threads cannot overlap, eat the gain. Measured on a 2-vCPU VM with both
# CPUs free, split against whole: single-set CB-ESSFM passes over 18 432
# samples took 0.78x the time at 4096-sample blocks, 1.00x at 3072 and
# 1.18x at 2048; batches of 1024-sample blocks took 0.89x at four sets a
# thread and 1.50x at two; matched_filter took 0.88x at 8192 samples and
# 1.13x at 4096.
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
    CPUs, a helper thread for it (the return value). ``fold`` gives a
    helper back once the count exceeds the CPUs, which happens when another
    caller enters meanwhile. ``leave`` counts the threads out.
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

    def fold(self) -> bool:
        with self._lock:
            over = self.running > usable_cpus()
            self.running -= over
        return over

    def leave(self, threads: int) -> None:
        with self._lock:
            self.running -= threads


BUDGET = Budget()


def in_two(run, share: int) -> None:
    """Do work cut in two: ``run(0, 2)`` in the caller and ``run(1, 2)``
    on a helper thread, when ``share`` (see MIN_SHARE) is large enough and
    the budget has a CPU for the helper; otherwise ``run(0, 1)``, the
    whole, in the caller.

    The two halves must write disjoint outputs. An error in either is
    raised here once both have returned, so no thread outlives the call.
    """
    if share < MIN_SHARE:
        run(0, 1)
        return
    helper = BUDGET.enter()
    try:
        if not helper:
            run(0, 1)
            return
        errors = []

        def second():
            try:
                run(1, 2)
            except BaseException as exc:  # raised again in the caller
                errors.append(exc)

        thread = threading.Thread(target=second, name="fiberdbp-helper")
        thread.start()
        try:
            run(0, 2)
        finally:
            thread.join()
        if errors:
            raise errors[0]
    finally:
        BUDGET.leave(1 + helper)
