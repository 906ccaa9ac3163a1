#!/usr/bin/env python3
"""fiberdbp benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload link_sim --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. With ``--trace 0`` the last line of
standard output is a JSON object whose metrics are the end-to-end metrics;
with ``--trace 1`` the library's public functions are wrapped in spans and
the metrics are the per-layer ones. Lines before it give every metric with
its unit and sample count, the environment, and the per-variant detail.
The full record (environment, samples, checks and, when traced, every span)
goes to perfbench/results/<workload>-seed<n>-trace<t>.json.

The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

SNR_TOL_DB = 0.01
POWER_RTOL = 1e-9
TAPS_RTOL = 1e-12


def cap_threads() -> int:
    """Run every native thread pool on one thread; return the usable CPUs.

    The caller is a single closed loop. On a small shared host a second
    BLAS thread mostly waits for its sibling: the tuned sweeps ran no
    faster with two threads, and their times spread about twice as much
    from one sweep to the next.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fiberdbp
    except ImportError as exc:
        raise SystemExit(f"cannot import fiberdbp from {src}: {exc}")
    if src.resolve() not in Path(fiberdbp.__file__).resolve().parents:
        raise SystemExit(f"fiberdbp imported from {fiberdbp.__file__}, "
                         f"not from {src}")


class Recorder:
    """Samples, outputs and check results of one workload run."""

    def __init__(self, tracer, refs: dict | None):
        self.tracer = tracer
        self.refs = refs
        self.samples = defaultdict(list)
        self.chains = defaultdict(list)  # label -> [(samples, seconds)]
        self.outputs = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._op_ok = True

    def span(self, name):
        return self.tracer.span(f"bench.{name}")

    def sample(self, name, value):
        self.samples[name].append(value)

    def chain(self, label, num_samples, seconds):
        self.chains[label].append((num_samples, seconds))

    def simulation(self, num_samples, fine_steps, seconds):
        self.sample("sim_s", seconds)
        self.sample("sim_rate", num_samples * fine_steps / seconds / 1e6)

    @contextmanager
    def timed(self, name, step, op=True):
        """Time a step into samples[name], inside span bench[.op].<step>."""
        t0 = time.perf_counter()
        with self.span(f"op.{step}" if op else step):
            yield
        self.sample(name, time.perf_counter() - t0)

    @contextmanager
    def op(self, name):
        """One attempted operation; it fails if it raises or a check fails."""
        self.attempted += 1
        self._op_ok = True
        try:
            yield
        except Exception:
            self._op_ok = False
            self.problems.append(f"{name}: {traceback.format_exc()}")
        if not self._op_ok:
            self.failed += 1

    def expect(self, ok: bool, message: str):
        if not ok:
            self._op_ok = False
            self.problems.append(message)

    def output(self, key: str, value):
        """Record an output; repeats must be identical, and it must match
        the reference recorded for this input set."""
        if key in self.outputs:
            self.expect(self.outputs[key] == value,
                        f"{key}: {value!r} differs from an earlier "
                        f"{self.outputs[key]!r} on the same input")
            return
        self.outputs[key] = value
        if self.refs is None:
            return
        if key not in self.refs:
            self.expect(False, f"{key}: no reference value")
            return
        self.expect(*_compare(key, value, self.refs[key]))


def _compare(key, got, ref):
    if key.startswith("fullscale.taps"):
        got, ref = list(got), list(ref)
        err = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
        peak = max(abs(b) for b in ref)
        ok = len(got) == len(ref) and err <= TAPS_RTOL * peak
        return ok, f"{key}: taps differ by {err:.3e} (peak {peak:.3e})"
    if not math.isfinite(got):
        return False, f"{key}: {got!r} is not finite"
    if key.endswith("tuned_snr_db"):
        # tuning may find better taps, never worse ones
        return got >= ref - SNR_TOL_DB, f"{key}: {got:.4f} dB < {ref:.4f} dB"
    if key.endswith("snr_db"):
        return (abs(got - ref) <= SNR_TOL_DB,
                f"{key}: {got:.4f} dB vs reference {ref:.4f} dB")
    if key.endswith("_power_w"):
        return (abs(got - ref) <= POWER_RTOL * abs(ref),
                f"{key}: {got!r} W vs reference {ref!r} W")
    if key.endswith("rm_per_2d"):
        return got == ref, f"{key}: {got!r} RM/2D vs reference {ref!r}"
    return False, f"{key}: no rule to check it"


def run_workload(name, seed, seconds, trace, refs):
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(trace)
    rec = Recorder(tracer, refs)
    workdir = HERE / "out" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, workdir)
        tracer.install()
        try:
            for j in range(wl.setups):
                with rec.timed("setup_s", "setup", op=False):
                    wl.setup(rec, j)
            deadline = time.perf_counter() + seconds
            while True:  # whole cycles, so every run does the same mix
                with rec.timed("cycle_s", "cycle", op=False):
                    wl.cycle(rec)
                if time.perf_counter() >= deadline:
                    break
            wl.finish(rec)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return wl, rec


# -- metrics -----------------------------------------------------------------

def timing_summary(values) -> dict:
    """Median, sample count and the highest percentile with ten samples
    beyond it, when the run has that many."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000)[int(p * 10) - 1]
            out[f"p{p:g}"] = cut
            break
    return out


def end_to_end(wl, rec) -> tuple[dict, dict]:
    s = rec.samples
    values = {
        "setup_s": (statistics.median(s["setup_s"]), "s"),
        "op_s": (statistics.median(s["op_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "snr_db": (wl.snr_db(rec.outputs), "dB"),
    }
    detail = {k: {**timing_summary(v), "samples": v} for k, v in s.items()}
    detail["sim_s"]["msample_steps_s"] = statistics.median(s["sim_rate"])
    del detail["sim_rate"]
    detail["failed_frac"] = rec.failed / rec.attempted
    # each kind of chain counts once, at its median time
    chain_n = sum(v[0][0] for v in rec.chains.values())
    chain_t = sum(statistics.median(t for _, t in v)
                  for v in rec.chains.values())
    detail["rx_msa_s"] = chain_n / chain_t / 1e6
    for label, runs in sorted(rec.chains.items()):
        med = statistics.median(t for _, t in runs)
        detail[f"rx_msa_s.{label}"] = {"value": runs[0][0] / med / 1e6,
                                       "chain_s": timing_summary(
                                           [t for _, t in runs])}
    return values, detail


def environment(seed, threads) -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": threads, "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "seed": seed, "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def op_work_counts(tracer) -> tuple[dict, list[str]]:
    """Work counts of each operation, and every repeat that differs.

    An operation's counts are the calls, blocks, fine steps and file bytes
    of the library spans under it. Repeats of an operation on the same
    input must reproduce them exactly.
    """
    op_of = {}
    counts = defaultdict(lambda: defaultdict(int))
    for sp in tracer.spans:  # parents precede children
        if sp.name.startswith("bench.op"):
            op_of[sp.id] = sp.id
        elif sp.parent in op_of:
            op_of[sp.id] = op_of[sp.parent]
            c = counts[op_of[sp.id]]
            c[sp.name] += 1
            for key in ("blocks", "fine_steps", "bytes_written", "bytes_read"):
                if key in sp.attrs:
                    c[f"{sp.name}.{key}"] += sp.attrs[key]
    first, problems = {}, []
    for sp in tracer.spans:
        if op_of.get(sp.id) == sp.id:
            mine = dict(counts[sp.id])
            if first.setdefault(sp.name, mine) != mine:
                problems.append(f"{sp.name}: work counts {mine} differ from "
                                f"an earlier {first[sp.name]}")
    return first, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = cap_threads()
    import_program()
    from tracing import calibrate_span_cost, layer_metrics
    from workloads import POOL, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"workload must be one of {sorted(WORKLOADS)}")

    all_refs = json.loads((HERE / "reference.json").read_text())
    refs = {**all_refs[args.workload].get("shared", {}),
            **all_refs[args.workload][str(args.seed % POOL)]}
    wl, rec = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), refs)
    env = environment(args.seed, threads)
    values, detail = end_to_end(wl, rec)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "end_to_end": {k: v for k, (v, _) in values.items()},
              "detail": detail, "outputs_checked": len(rec.outputs)}

    print(f"# env {json.dumps(env)}")
    for k, (v, unit) in values.items():
        n = f" n={detail[k]['n']}" if k in detail else ""
        print(f"{k:<22} {v:>14.6g} {unit:<11}{n}")
    for k in ("cycle_s", "taps_s", "sim_s"):
        print(f"{k:<22} {detail[k]['median']:>14.6g} s           "
              f"n={detail[k]['n']}")
    sim = detail["sim_s"]
    print(f"{'sim_msample_steps_s':<22} {sim['msample_steps_s']:>14.6g} "
          "MSa.step/s")
    print(f"{'rx_msa_s':<22} {detail['rx_msa_s']:>14.6g} MSa/s")
    for k, v in detail.items():
        if k.startswith("rx_msa_s."):
            print(f"{k:<22} {v['value']:>14.6g} MSa/s       "
                  f"n={v['chain_s']['n']}")
    print(f"{'failed_frac':<22} {detail['failed_frac']:>14.6g} ratio"
          f"       ({rec.failed} of {rec.attempted} operations)")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    if args.trace:
        tracer = rec.tracer
        op_counts, problems = op_work_counts(tracer)
        earlier = HERE / "results" / f"{args.workload}-seed{args.seed}-trace1.json"
        if earlier.exists():
            before = json.loads(earlier.read_text())
            if before["env"]["src_sha256"] == env["src_sha256"]:
                problems += [f"{op}: work counts {c} differ from {before_c} "
                             "in an earlier run of the same source"
                             for op, c in op_counts.items()
                             if (before_c := before["op_counts"].get(op, c)) != c]
        rec.problems += problems
        rec.failed += len(problems)
        per_span = calibrate_span_cost()
        layers, extra = layer_metrics(tracer, per_span)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        untraced = HERE / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["end_to_end"]
            extra["overhead_vs_untraced"] = {
                k: values[k][0] - base[k] for k in base if k in values}
        for k, (v, u) in layers.items():
            print(f"{k:<36} {v:>14.6g} {u}")
        for k, v in extra.items():
            print(f"{k:<36} {json.dumps(v)}")
        record.update(op_counts=op_counts,
                      per_layer={k: v for k, (v, _) in layers.items()},
                      per_layer_detail=extra,
                      spans=[sp.as_dict() for sp in tracer.spans])

    for p in rec.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    record.update(attempted=rec.attempted, failed=rec.failed,
                  problems=rec.problems)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
