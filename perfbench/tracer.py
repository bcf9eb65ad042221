"""Spans and counts at entropion's layer boundaries, for the traced run.

``Tracer.install`` wraps each module's public functions where other modules
(and the benchmark) call them, plus ``numpy.linalg`` beneath them.  A span
is (name, start, end, parent), kept in flat in-memory arrays and written
out at the end.  A few counters need hooks inside a module: Ginibre
entries drawn (``randgen.random_matrix``), quadrature panels and doublings
(``entropy.composite_gl`` / ``adaptive_gl``) and per-trial times (the
``suites.SUITES`` registry that ``run_suite`` dispatches through).  The
first ``ssa`` trial at d = 4 runs under ``tracemalloc`` for its peak
allocation and is kept out of the per-trial and per-entry times.

Counts are taken over the first pass of the run, which is fixed for a
given seed, so they repeat exactly.  Times are per-pass means over every
pass.  A layer's self time is its span time minus its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from workloads import PURE_STATES_DIM, PURIFICATION_DIM, SSA_DIMS, VERIFY_ALL_SUITES

MODULES = ("randgen", "matcore", "superop", "entropy", "channels",
           "inequalities", "holevo", "suites", "cli")
LAYERS = MODULES + ("linalg",)

# Suite / dimension pairs the workloads run, for suites.<suite>.ms_per_trial.d<d>.
SUITE_DIMS = tuple((s, d) for s in VERIFY_ALL_SUITES for d in (2, 3)) + (
    ("ssa", SSA_DIMS[1]), ("purification", PURIFICATION_DIM), ("pure_states", PURE_STATES_DIM))

VALIDATORS = ("matcore.as_hermitian", "matcore.as_psd", "matcore.as_density")
EIGENSOLVERS = ("linalg.eigh", "linalg.eigvalsh")

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.table: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack = [-1]
        self.hooks = defaultdict(int)          # counters, whole run
        self.hooks_pass0: dict[str, int] = {}
        self.pass0_spans = 0
        self.trial_ns = defaultdict(int)       # (suite, d) -> ns, whole run
        self.trial_n = defaultdict(int)
        self.ssa_peak_alloc = 0                # bytes, first ssa trial at d = 4

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                stack.pop()

        return wrapper

    def _random_matrix_hook(self, fn):
        hooks = self.hooks

        @functools.wraps(fn)
        def random_matrix(d_rows, d_cols, rng):
            t0 = _clock()
            try:
                return fn(d_rows, d_cols, rng)
            finally:
                entries = int(d_rows) * int(d_cols)
                hooks["randgen.entries"] += entries
                if not tracemalloc.is_tracing():  # the allocation probe slows the draws
                    hooks["randgen.ns"] += _clock() - t0
                    hooks["randgen.timed_entries"] += entries

        return random_matrix

    def _count_hook(self, fn, key: str, panels: bool = False):
        hooks = self.hooks

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            hooks[key] += 1
            if panels:
                hooks["entropy.panels"] += int(args[1] if len(args) > 1 else kwargs["panels"])
            return fn(*args, **kwargs)

        return counted

    def _trial_hook(self, suite: str, fn):
        ns, n = self.trial_ns, self.trial_n

        def trial(rng, d):
            if suite == "ssa" and d == SSA_DIMS[1] and not self.ssa_peak_alloc:
                # peak allocation of the first d = 4 trial; kept out of the
                # per-trial time, which tracemalloc would inflate
                tracemalloc.start()
                try:
                    return fn(rng, d)
                finally:
                    self.ssa_peak_alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            t0 = _clock()
            try:
                return fn(rng, d)
            finally:
                ns[(suite, d)] += _clock() - t0
                n[(suite, d)] += 1

        return trial

    def install(self, package) -> None:
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        originals = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    originals[fn] = f"{layer}.{name}"

        randgen, entropy = mods["randgen"], mods["entropy"]
        inner = {}  # module-internal counting hooks, also behind the cross-module spans
        for mod, name, hook in (
            (randgen, "random_matrix", self._random_matrix_hook),
            (entropy, "composite_gl", lambda f: self._count_hook(f, "entropy.composite_calls", True)),
            (entropy, "adaptive_gl", lambda f: self._count_hook(f, "entropy.adaptive_calls")),
        ):
            fn = getattr(mod, name, None)
            if fn in originals:
                inner[fn] = hook(fn)
                setattr(mod, name, inner[fn])

        wrapped = {fn: self.span(name, inner.get(fn, fn)) for fn, name in originals.items()}
        for mod in (*mods.values(), package):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped and value.__module__ != mod.__name__:
                    setattr(mod, name, wrapped[value])
        cli = mods["cli"]
        cli.main = wrapped[cli.main]  # the benchmark is the caller of the verify entry point

        spec = getattr(mods["superop"], "SuperOpSpec", None)
        if spec is not None:
            spec.__init__ = self.span("superop.SuperOpSpec", spec.__init__)

        registry = getattr(mods["suites"], "SUITES", None)
        if isinstance(registry, dict):
            for name, fn in list(registry.items()):
                registry[name] = self._trial_hook(name, fn)

        la = np.linalg
        for name in la.__all__:
            fn = getattr(la, name)
            if callable(fn) and not isinstance(fn, type):
                setattr(la, name, self.span(f"linalg.{name}", fn))

    def end_pass0(self) -> None:
        self.pass0_spans = len(self.span_name)
        self.hooks_pass0 = dict(self.hooks)

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int, ops: int, seconds: float) -> dict[str, tuple[float, str]]:
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)) / 1e6  # ms
        n_names = len(self.table)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ms = dur - child
        layer = np.array([LAYERS.index(t.split(".")[0]) for t in self.table])[names]
        parent_layer = np.where(has_parent, layer[np.maximum(parents, 0)], -1)
        outermost = layer != parent_layer
        per_name = np.bincount(names, weights=dur, minlength=n_names)
        p0 = self.pass0_spans
        calls0 = np.bincount(names[:p0], minlength=n_names)

        def ids(*wanted):
            return [self._ids[w] for w in wanted if w in self._ids]

        def busy(*wanted) -> float:
            return float(per_name[ids(*wanted)].sum()) / passes

        def calls(*wanted) -> int:
            return int(calls0[ids(*wanted)].sum())

        def layer_busy(name) -> float:
            mask = (layer == LAYERS.index(name)) & outermost
            return float(dur[mask].sum()) / passes

        def layer_self(name) -> float:
            return float(self_ms[layer == LAYERS.index(name)].sum()) / passes

        relent = calls("entropy.relative_entropy")
        eigs_in_relent = 0
        if relent:
            is_relent = names[:p0] == self._ids["entropy.relative_entropy"]
            is_eig = np.isin(names[:p0], ids(*EIGENSOLVERS))
            is_relent, up = is_relent.tolist(), parents[:p0].tolist()
            under = [False] * p0
            for i, p in enumerate(up):
                under[i] = p >= 0 and (is_relent[p] or under[p])
            eigs_in_relent = int((np.array(under, dtype=bool) & is_eig).sum())

        h0 = self.hooks_pass0
        entries = self.hooks["randgen.timed_entries"]
        out = {
            "randgen.busy_ms": (layer_busy("randgen"), "ms"),
            "randgen.ginibre_entries": (h0.get("randgen.entries", 0), "count"),
            "randgen.ns_per_entry": (self.hooks["randgen.ns"] / entries if entries else 0.0, "ns"),
            "matcore.validate_calls": (calls(*VALIDATORS), "count"),
            "matcore.validate_busy_ms": (busy(*VALIDATORS), "ms"),
            "matcore.eig_calls": (calls("matcore.hermitian_eig"), "count"),
            "matcore.eig_busy_ms": (busy("matcore.hermitian_eig"), "ms"),
            "matcore.matrix_function_busy_ms": (busy("matcore.matrix_function"), "ms"),
            "matcore.partial_trace_calls": (calls("matcore.partial_trace"), "count"),
            "matcore.partial_trace_busy_ms": (busy("matcore.partial_trace"), "ms"),
            "linalg.eigh_calls": (calls("linalg.eigh"), "count"),
            "linalg.eigvalsh_calls": (calls("linalg.eigvalsh"), "count"),
            "linalg.busy_ms": (layer_busy("linalg"), "ms"),
            "superop.spec_busy_ms": (busy("superop.SuperOpSpec"), "ms"),
            "superop.solve_calls": (calls("superop.solve_resolvent"), "count"),
            "superop.solve_busy_ms": (busy("superop.solve_resolvent"), "ms"),
            "entropy.relent_calls": (relent, "count"),
            "entropy.relent_busy_ms": (busy("entropy.relative_entropy"), "ms"),
            "entropy.eigs_per_relent": (eigs_in_relent / relent if relent else 0.0, "count/call"),
            "entropy.integral_calls": (calls("entropy.relative_entropy_integral"), "count"),
            "entropy.integral_busy_ms": (busy("entropy.relative_entropy_integral"), "ms"),
            "entropy.quad_panels": (h0.get("entropy.panels", 0), "count"),
            "entropy.quad_doublings": (h0.get("entropy.composite_calls", 0)
                                       - h0.get("entropy.adaptive_calls", 0), "count"),
            "entropy.kernel_busy_ms": (busy("entropy.relative_entropy_spectral_kernel"), "ms"),
            "entropy.vn_calls": (calls("entropy.von_neumann_entropy"), "count"),
            "entropy.vn_busy_ms": (busy("entropy.von_neumann_entropy"), "ms"),
            "channels.busy_ms": (layer_busy("channels"), "ms"),
            "channels.purify_busy_ms": (busy("channels.purify"), "ms"),
            "inequalities.self_ms": (layer_self("inequalities"), "ms"),
            "inequalities.check_ssa_busy_ms": (busy("inequalities.check_ssa"), "ms"),
            "holevo.busy_ms": (layer_busy("holevo"), "ms"),
        }
        for suite, d in SUITE_DIMS:
            n = self.trial_n.get((suite, d), 0)
            ms = self.trial_ns[(suite, d)] / n / 1e6 if n else 0.0
            out[f"suites.{suite}.ms_per_trial.d{d}"] = (ms, "ms")
        out["suites.ssa.peak_alloc_mb.d4"] = (self.ssa_peak_alloc / 2 ** 20, "MB")
        out["cli.self_ms"] = (layer_self("cli"), "ms")
        out["trace.ops_per_s"] = (ops / seconds, "1/s")
        return out

    def save(self, path) -> None:
        """Write every span and counter; np.load(path) reads them back."""
        np.savez(
            path,
            table=np.array(self.table),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            pass0_spans=np.array(self.pass0_spans),
            counters=np.array(json.dumps({"run": self.hooks, "pass0": self.hooks_pass0})),
        )
