"""Span tracing at fiberdbp's module boundaries, for the traced run only.

A span records name, start, end and the span that was open when it began.
Spans stay in memory and are written out when the run ends. The wrappers
replace each traced public function wherever it is looked up: in its own
module, in the package namespace, and in every sibling module that imported
it by name (``fiberdbp.optimize.run_dbp``, ``fiberdbp.dbp.analytic_coefficients``
and so on). The benchmark calls the library through module attributes, so
its own calls are traced the same way. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions whose calls open a span named "<module>.<function>"
TRACED = {
    "signals": ("generate_wdm",),
    "channel": ("propagate_link",),
    "fileio": ("save_waveform", "load_waveform", "save_symbols",
               "load_symbols", "save_coefficients", "load_coefficients",
               "write_csv", "read_csv"),
    "kernel": ("analytic_coefficients",),
    "dbp": ("make_dbp_coefficient_set", "run_dbp"),
    "metrics": ("prepare_dbp_input", "symbols_from_dbp_output", "snr",
                "remove_mean_phase"),
    "optimize": ("build_training_set", "optimize_coefficients",
                 "sweep_splitting_ratio"),
    "complexity": ("count_runtime_multiplies",),
}
BENCH = "bench"  # layer of the spans the benchmark opens around its own steps


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent):
        self.id, self.name, self.parent = sid, name, parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Collects spans; does nothing (and patches nothing) when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched = []

    def _open(self, name: str) -> Span:
        sp = Span(len(self.spans), name,
                  self._stack[-1].id if self._stack else None)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span):
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Benchmark-side span; name it "bench.<step>"."""
        if not self.enabled:
            yield
            return
        sp = self._open(name)
        try:
            yield
        finally:
            self._close(sp)

    # -- patching ---------------------------------------------------------

    def install(self):
        if not self.enabled:
            return
        probes = _Probes()
        mods = [m for n, m in list(sys.modules.items())
                if n == "fiberdbp" or n.startswith("fiberdbp.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"fiberdbp.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig,
                                     getattr(probes, fname, None))
                for mod in mods:
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapped)
                        self._patched.append((mod, fname, orig))

    def uninstall(self):
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def _wrap(self, name, fn, probe):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer._open(name)
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return probe(sp, fn, bound)
            finally:
                tracer._close(sp)
        return wrapper

    # -- summaries --------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - child[sp.id] for sp in self.spans]

    def op_accounting(self, self_t: list[float]) -> list[tuple[str, float, float]]:
        """(op name, wall s, benchmark self s) for every bench.op span.

        The benchmark self time inside an op is the part of its wall time
        that no library span covers.
        """
        op_of = [None] * len(self.spans)
        for sp in self.spans:  # parents precede children
            if sp.name.startswith(BENCH + ".op"):
                op_of[sp.id] = sp.id
            elif sp.parent is not None:
                op_of[sp.id] = op_of[sp.parent]
        glue = defaultdict(float)
        for sp in self.spans:
            if op_of[sp.id] is not None and sp.layer == BENCH:
                glue[op_of[sp.id]] += self_t[sp.id]
        return [(sp.name, sp.end - sp.start, glue[sp.id])
                for sp in self.spans if op_of[sp.id] == sp.id]


class _Probes:
    """Per-function span attributes: work counts taken at the call."""

    def __init__(self):
        from fiberdbp import channel, complexity
        self._cx = complexity
        self._steps = channel.span_step_sizes  # not traced: a pure planner

    def propagate_link(self, sp, fn, b):
        w, link = b.arguments["w"], b.arguments["link"]
        per_span = len(self._steps(link, b.arguments["sim"], w.power))
        sp.attrs.update(samples=w.num_samples, fine_steps=per_span
                        * (link.num_spans - b.arguments["first_span"]))
        return fn(*b.args, **b.kwargs)

    def run_dbp(self, sp, fn, b):
        w, cfg, coeffs = b.arguments["w"], b.arguments["cfg"], b.arguments["coeffs"]
        n = w.num_samples
        sp.attrs.update(variant=cfg.variant, block=cfg.block_size, samples=n)
        if cfg.variant != "IDEAL_SSFM":
            keep = cfg.block_size - cfg.overlap
            blocks = math.ceil(n / keep)
            if cfg.variant == "CB_ESSFM":
                cost = self._cx.cb_essfm_cost(cfg.block_size, cfg.overlap,
                                              cfg.oversampling, cfg.n_steps,
                                              cfg.n_subbands)
            else:
                taps = 0
                if cfg.variant == "ESSFM" and cfg.n_steps:
                    taps = (coeffs.coeffs[0].size - 1) // 2
                cost = self._cx.essfm_time_domain_cost(
                    cfg.block_size, cfg.overlap, cfg.oversampling,
                    cfg.n_steps, taps)
            # RM/2D times the 2D symbols the tiling actually processes
            sp.attrs.update(blocks=blocks, rm=cost.rm_per_2d * 2 * blocks
                            * keep / cfg.oversampling)
        return fn(*b.args, **b.kwargs)

    def analytic_coefficients(self, sp, fn, b):
        tracemalloc.start()
        try:
            out = fn(*b.args, **b.kwargs)
            sp.attrs["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    def optimize_coefficients(self, sp, fn, b):
        out = fn(*b.args, **b.kwargs)
        sp.attrs["improved"] = bool(out.improved)
        return out

    def count_runtime_multiplies(self, sp, fn, b):
        out = fn(*b.args, **b.kwargs)
        cfg = b.arguments["cfg"]
        sp.attrs.update(variant=cfg.variant, block=cfg.block_size,
                        rm_per_2d=out.rm_per_2d)
        return out

    @staticmethod
    def _written(sp, fn, b, suffix=""):
        out = fn(*b.args, **b.kwargs)
        path = os.fspath(b.arguments["path"])
        if suffix and not path.endswith(suffix):
            path += suffix  # numpy.savez appends the extension
        sp.attrs["bytes_written"] = os.path.getsize(path)
        return out

    @staticmethod
    def _read(sp, fn, b):
        sp.attrs["bytes_read"] = os.path.getsize(b.arguments["path"])
        return fn(*b.args, **b.kwargs)

    def save_symbols(self, sp, fn, b):
        return self._written(sp, fn, b, ".npz")

    save_waveform = save_coefficients = write_csv = _written
    load_waveform = load_symbols = load_coefficients = read_csv = _read


def calibrate_span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call: the wrapper, its
    span, and the argument binding a probe does."""
    tr = Tracer(True)

    def noop(a, b=0):
        return a

    wrapped = tr._wrap("bench.calibrate", noop,
                       lambda sp, fn, b: fn(*b.args, **b.kwargs))
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop(1)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        wrapped(1)
    return max((time.perf_counter() - t0 - plain) / repeats, 0.0)


LADDER = [(v, n) for n in (4096, 16384)
          for v in ("EDC", "OSSFM", "ESSFM", "CB_ESSFM")]

# declared per-layer metrics, in the order they are reported
PER_LAYER_UNITS = {
    "signals.generate_s": "s",
    "channel.propagate_s": "s", "channel.fine_steps": "count",
    "channel.msample_steps_s": "MSa.step/s",
    "fileio.write_s": "s", "fileio.read_s": "s",
    "fileio.bytes_written": "B", "fileio.bytes_read": "B",
    "kernel.taps_s": "s", "kernel.calls": "count", "kernel.peak_alloc_mb": "MB",
    "dbp.run_s": "s", "dbp.calls": "count", "dbp.blocks": "count",
    "dbp.msa_s": "MSa/s", "dbp.grm_s": "GRM/s",
    "metrics.prepare_s": "s", "metrics.symbols_s": "s", "metrics.snr_s": "s",
    "metrics.chain_share": "ratio",
    "optimize.calls": "count", "optimize.nfev": "count",
    "optimize.improved": "count",
    **{f"complexity.rm_per_2d.{v}.n{n}": "RM/2D" for v, n in LADDER},
    "trace.spans": "count", "trace.unaccounted_frac": "ratio",
    "trace.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, span_cost_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and report-only detail.

    The numbers describe one unit of the workload: its setups, one cycle
    and its closing step. Spans inside a cycle weigh 1/cycles, so busy
    times and counts do not grow with the number of cycles a run fits in.
    Spans under a bench.accounting span (the runs that count multiplies)
    feed only the complexity metrics.
    """
    st = tracer.self_times()
    cycles = sum(sp.name == f"{BENCH}.cycle" for sp in tracer.spans)
    weight = [1.0] * len(tracer.spans)
    skip = [False] * len(tracer.spans)
    for sp in tracer.spans:  # parents precede children
        if sp.parent is not None:
            weight[sp.id], skip[sp.id] = weight[sp.parent], skip[sp.parent]
        if sp.name == f"{BENCH}.cycle":
            weight[sp.id] = 1.0 / cycles
        skip[sp.id] |= sp.name == f"{BENCH}.accounting"
    by = defaultdict(list)
    for sp in tracer.spans:
        if not skip[sp.id]:
            by[sp.name].append(sp)

    def busy(*names):
        return sum(weight[sp.id] * st[sp.id] for n in names for sp in by[n])

    def total(name, key):
        return sum(weight[sp.id] * sp.attrs.get(key, 0) for sp in by[name])

    def calls(name):
        return sum(weight[sp.id] for sp in by[name])

    m = {}
    m["signals.generate_s"] = busy("signals.generate_wdm")
    m["channel.propagate_s"] = busy("channel.propagate_link")
    m["channel.fine_steps"] = total("channel.propagate_link", "fine_steps")
    m["channel.msample_steps_s"] = _ratio(
        sum(weight[sp.id] * sp.attrs["samples"] * sp.attrs["fine_steps"]
            for sp in by["channel.propagate_link"]) / 1e6,
        m["channel.propagate_s"])
    writes = [f"fileio.{f}" for f in ("save_waveform", "save_symbols",
                                      "save_coefficients", "write_csv")]
    reads = [f"fileio.{f}" for f in ("load_waveform", "load_symbols",
                                     "load_coefficients", "read_csv")]
    m["fileio.write_s"] = busy(*writes)
    m["fileio.read_s"] = busy(*reads)
    m["fileio.bytes_written"] = sum(total(n, "bytes_written") for n in writes)
    m["fileio.bytes_read"] = sum(total(n, "bytes_read") for n in reads)
    taps = by["kernel.analytic_coefficients"]
    m["kernel.taps_s"] = busy("kernel.analytic_coefficients")
    m["kernel.calls"] = calls("kernel.analytic_coefficients")
    m["kernel.peak_alloc_mb"] = max(
        (sp.attrs["peak_alloc_b"] for sp in taps), default=0) / 2 ** 20
    runs = by["dbp.run_dbp"]
    m["dbp.run_s"] = busy("dbp.run_dbp")
    m["dbp.calls"] = calls("dbp.run_dbp")
    m["dbp.blocks"] = total("dbp.run_dbp", "blocks")
    m["dbp.msa_s"] = _ratio(total("dbp.run_dbp", "samples") / 1e6, m["dbp.run_s"])
    m["dbp.grm_s"] = _ratio(total("dbp.run_dbp", "rm") / 1e9, m["dbp.run_s"])
    m["metrics.prepare_s"] = busy("metrics.prepare_dbp_input")
    m["metrics.symbols_s"] = busy("metrics.symbols_from_dbp_output")
    m["metrics.snr_s"] = busy("metrics.snr", "metrics.remove_mean_phase")
    chain = m["metrics.prepare_s"] + m["metrics.symbols_s"] + m["metrics.snr_s"]
    m["metrics.chain_share"] = _ratio(chain, chain + m["dbp.run_s"])

    # run_dbp calls and their time inside each optimize call
    owner = [None] * len(tracer.spans)
    for sp in tracer.spans:
        if sp.name == "optimize.optimize_coefficients":
            owner[sp.id] = sp.id
        elif sp.parent is not None:
            owner[sp.id] = owner[sp.parent]
    opt = by["optimize.optimize_coefficients"]
    nfev = defaultdict(int)
    dbp_in_opt = 0.0
    for sp in runs:
        if owner[sp.id] is not None:
            nfev[owner[sp.id]] += 1
            dbp_in_opt += st[sp.id]
    m["optimize.calls"] = calls("optimize.optimize_coefficients")
    m["optimize.nfev"] = sum(weight[i] * k for i, k in nfev.items())
    m["optimize.improved"] = total("optimize.optimize_coefficients", "improved")
    counted = {(sp.attrs["variant"], sp.attrs["block"]): sp.attrs["rm_per_2d"]
               for sp in tracer.spans
               if sp.name == "complexity.count_runtime_multiplies"}
    for v, n in LADDER:
        m[f"complexity.rm_per_2d.{v}.n{n}"] = counted.get((v, n), 0.0)

    ops = tracer.op_accounting(st)
    m["trace.spans"] = sum(weight)
    m["trace.unaccounted_frac"] = max((_ratio(g, w) for _, w, g in ops),
                                      default=0.0)
    m["trace.overhead_s"] = sum(weight) * span_cost_s

    detail = {"span_cost_s": span_cost_s, "cycles": cycles,
              "self_s_by_layer": defaultdict(float),
              "ops_wall_s": sum(w for _, w, _ in ops),
              "ops_unaccounted_s": sum(g for _, _, g in ops)}
    for sp in tracer.spans:
        detail["self_s_by_layer"][sp.layer] += st[sp.id]
    groups = defaultdict(list)
    for sp in runs:
        groups[f"{sp.attrs['variant']}.n{sp.attrs['block']}"].append(sp)
    for key, spans in sorted(groups.items()):
        t = sum(st[sp.id] for sp in spans)
        detail[f"dbp.run_s.{key}"] = statistics.median(st[sp.id] for sp in spans)
        detail[f"dbp.msa_s.{key}"] = _ratio(
            sum(sp.attrs["samples"] for sp in spans) / 1e6, t)
        detail[f"dbp.grm_s.{key}"] = _ratio(
            sum(sp.attrs.get("rm", 0) for sp in spans) / 1e9, t)
    if opt:
        wall = sum(sp.end - sp.start for sp in opt)
        detail["optimize.tune_s"] = statistics.median(
            sp.end - sp.start for sp in opt)
        detail["optimize.nfev_per_call"] = [nfev[sp.id] for sp in opt]
        detail["optimize.dbp_share"] = dbp_in_opt / wall
        detail["optimize.improved_frac"] = (
            sum(sp.attrs["improved"] for sp in opt) / len(opt))
    if taps:
        detail["kernel.taps_s_per_call"] = statistics.median(
            sp.end - sp.start for sp in taps)
    return ({k: (m[k], u) for k, u in PER_LAYER_UNITS.items()}, detail)
