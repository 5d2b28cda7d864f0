"""Spans around sumbox's public functions, recorded from outside the package.

A Tracer patches every binding site of each traced function: the defining
module, every sumbox module that imported the name, and the benchmark's own
modules. Methods of Mat, VecOps and CodingScheme are patched on the class.
Spans (name, start, end, parent, op, ok) stay in memory; per-layer metrics
are computed from them after the run.

Per-element Field.mul/add/sub are deliberately not wrapped: at about 7M
calls per (6,4,2) build the wrapper cost would swamp every self time.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from time import perf_counter_ns

from sumbox import matrix, scheme, vecops

# (defining module, function name): every binding of the function object is
# wrapped with a span named "<module>.<function>".
FUNCTIONS = (
    ("lp", "solve_min"),
    ("capacity", "capacity_lp"),
    ("capacity", "feasible"),
    ("capacity", "capacity_unent"),
    ("capacity", "capacity_fullent"),
    ("capacity", "capacity_symmetric"),
    ("capacity", "maximal_dsc_gain"),
    ("field", "extend_field"),
    ("nsumbox", "build_half_mds_box"),
    ("nsumbox", "is_valid_box"),
    ("scheme", "build_scheme"),
    ("scheme", "build_big_channel"),
    ("scheme", "find_encoders"),
    ("scheme", "render_scheme"),
    ("scheme", "parse_scheme"),
    ("scheme", "simulate_batch"),
    ("scheme", "simulate"),
    ("scheme", "true_sum"),
    ("oracle", "lp_vertex_enum"),
    ("oracle", "exhaustive_decode_check"),
)

# (class, attribute, span name): methods patched on the class.
METHODS = (
    (matrix.Mat, "__mul__", "matrix.mul"),
    (matrix.Mat, "rank", "matrix.rank"),
    (matrix.Mat, "right_inverse", "matrix.right_inverse"),
    (matrix.Mat, "to_text", "matrix.to_text"),
    (matrix.Mat, "from_text", "matrix.from_text"),
    (vecops.VecOps, "matmul", "vecops.matmul"),
    (scheme.CodingScheme, "certificate_ok", "scheme.certificate_ok"),
)

# (class, attribute, counter, only inside spans of): counted without a span,
# because they are called too often or are too cheap for one.
COUNTED = (
    (matrix.Mat, "random", "scheme.decoder_draws", "scheme.find_encoders"),
    (vecops.VecOps, "mul_scalar", "vecops.mul_scalar.calls", None),
)

CLOSED_FORMS = ("capacity.capacity_unent", "capacity.capacity_fullent",
                "capacity.capacity_symmetric", "capacity.maximal_dsc_gain")


def sumbox_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "sumbox" or name.startswith("sumbox.")]


class Tracer:
    """Records spans while `enabled`; `patched()` installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, op, ok]
        self.counts: Counter = Counter()
        self.enabled = False
        self.op = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()

    # -- wrappers ---------------------------------------------------------------
    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, False]
            self.spans.append(rec)
            self._stack.append(idx)
            self._depth[name] += 1
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                self._stack.pop()
                self._depth[name] -= 1
            rec[5] = True
            if after is not None:
                after(out, args)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn, inside: str | None = None):
        def wrapper(*args, **kwargs):
            if self.enabled and (inside is None or self._depth[inside]):
                self.counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _miss_counter(self, cached):
        """Count calls of an lru_cache function that missed its cache."""
        key = f"{cached.__module__.split('.')[-1]}.{cached.__name__}.misses"

        def call(*args, **kwargs):
            misses = cached.cache_info().misses
            out = cached(*args, **kwargs)
            if self.enabled and cached.cache_info().misses != misses:
                self.counts[key] += 1
            return out
        call.__wrapped__ = cached
        return call

    def _after(self, name: str):
        if name == "lp.solve_min":
            def after(_, args):
                self.counts["lp.vars_total"] += len(args[0])
                self.counts["lp.rows_total"] += len(args[1])
            return after
        if name == "scheme.render_scheme":
            def after(text, _):
                self.counts["scheme.bytes"] += len(text.encode())
            return after
        if name == "oracle.exhaustive_decode_check":
            def after(_, args):
                sch = args[0]
                self.counts["oracle.realizations"] += sch.ext.big.order ** (sch.problem.K * sch.R)
            return after
        return None

    @contextmanager
    def patched(self, extra_namespaces=()):
        """Wrap every binding site; restore the originals on exit."""
        undo = []
        namespaces = [vars(m) for m in sumbox_modules()] + [vars(m) for m in extra_namespaces]
        for mod, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"sumbox.{mod}"], attr)
            name = f"{mod}.{attr}"
            inner = self._miss_counter(orig) if hasattr(orig, "cache_info") else orig
            wrapped = self._span(name, inner, self._after(name))
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is orig:
                        undo.append((ns.__setitem__, key, orig))
                        ns[key] = wrapped
        for cls, attr, name in METHODS:
            _patch_method(undo, cls, attr, lambda fn, name=name: self._span(name, fn))
        for cls, attr, key, inside in COUNTED:
            _patch_method(undo, cls, attr,
                          lambda fn, key=key, inside=inside: self._counter(key, fn, inside))
        try:
            yield self
        finally:
            for setter, key, val in reversed(undo):
                setter(key, val)


def _patch_method(undo: list, cls, attr: str, wrap):
    raw = cls.__dict__[attr]
    wrapped = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
    undo.append((partial(setattr, cls), attr, raw))
    setattr(cls, attr, wrapped)


def unwrapped_bindings(extra_namespaces=()) -> list[str]:
    """Binding sites that still hold an original traced function."""
    originals = {}
    for mod, attr in FUNCTIONS:
        fn = getattr(sys.modules[f"sumbox.{mod}"], attr)
        while hasattr(fn, "__wrapped__") and not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        originals[id(fn)] = f"{mod}.{attr}"
    missed = []
    for m in sumbox_modules() + list(extra_namespaces):
        for key, val in vars(m).items():
            if id(val) in originals:
                missed.append(f"{m.__name__}.{key} ({originals[id(val)]})")
    return missed


# ---------------------------------------------------------------------------
# analysis


class SpanStats:
    """Busy and self time per span name, from one tracer's spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.durations: dict[str, list[int]] = {}
        for i, (name, start, end, _, _, _) in enumerate(spans):
            self.self_ns[name] += end - start - child_ns[i]
            self.calls[name] += 1
            self.durations.setdefault(name, []).append(end - start)

    def busy_s(self, *names: str) -> float:
        """Time covered by spans of these names, nested ones counted once."""
        names = set(names)
        total = 0
        for name, start, end, parent, _, _ in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total / 1e9

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def p50_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) / 1e6 if d else 0.0

    def ok_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit)."""
    st = SpanStats(tracer.spans)
    c = tracer.counts
    m = {
        "lp.solve_min.calls": (st.calls["lp.solve_min"], "count"),
        "lp.solve_min.busy_s": (st.busy_s("lp.solve_min"), "s"),
        "lp.solve_min.p50_ms": (st.p50_ms("lp.solve_min"), "ms"),
        "lp.rows_total": (c["lp.rows_total"], "count"),
        "lp.vars_total": (c["lp.vars_total"], "count"),
        "capacity.capacity_lp.self_s": (st.self_s("capacity.capacity_lp"), "s"),
        "capacity.feasible.calls": (st.calls["capacity.feasible"], "count"),
        "capacity.feasible.busy_s": (st.busy_s("capacity.feasible"), "s"),
        "capacity.closed_forms.busy_s": (st.busy_s(*CLOSED_FORMS), "s"),
        "field.extend_field.misses": (c["field.extend_field.misses"], "count"),
        "field.extend_field.busy_s": (st.busy_s("field.extend_field"), "s"),
    }
    for name in ("rank", "mul", "right_inverse"):
        m[f"matrix.{name}.calls"] = (st.calls[f"matrix.{name}"], "count")
        m[f"matrix.{name}.self_s"] = (st.self_s(f"matrix.{name}"), "s")
    m["matrix.text.self_s"] = (st.self_s("matrix.to_text", "matrix.from_text"), "s")
    for name in ("build_half_mds_box", "is_valid_box"):
        m[f"nsumbox.{name}.calls"] = (st.calls[f"nsumbox.{name}"], "count")
        m[f"nsumbox.{name}.self_s"] = (st.self_s(f"nsumbox.{name}"), "s")
    builds = st.calls["scheme.build_scheme"]
    draws = c["scheme.decoder_draws"]
    m.update({
        "scheme.build_scheme.busy_s": (st.busy_s("scheme.build_scheme"), "s"),
        "scheme.find_encoders.self_s": (st.self_s("scheme.find_encoders"), "s"),
        "scheme.certificate_ok.busy_s": (st.busy_s("scheme.certificate_ok"), "s"),
        "scheme.render_scheme.busy_s": (st.busy_s("scheme.render_scheme"), "s"),
        "scheme.parse_scheme.self_s": (st.self_s("scheme.parse_scheme"), "s"),
        "scheme.z_attempts": (_ratio(st.calls["scheme.build_big_channel"], builds), "ratio"),
        "scheme.decoder_draws": (draws, "count"),
        "scheme.decoder_yield": (_ratio(st.ok_calls("scheme.find_encoders"), draws), "ratio"),
        "scheme.bytes": (c["scheme.bytes"], "B"),
        "scheme.simulate_batch.busy_s": (st.busy_s("scheme.simulate_batch"), "s"),
        "vecops.matmul.calls": (st.calls["vecops.matmul"], "count"),
        "vecops.matmul.self_s": (st.self_s("vecops.matmul"), "s"),
        "vecops.mul_scalar.calls": (c["vecops.mul_scalar.calls"], "count"),
        "scheme.simulate.calls": (st.calls["scheme.simulate"], "count"),
        "scheme.simulate.busy_s": (st.busy_s("scheme.simulate"), "s"),
        "scheme.true_sum.busy_s": (st.busy_s("scheme.true_sum"), "s"),
        "oracle.lp_vertex_enum.calls": (st.calls["oracle.lp_vertex_enum"], "count"),
        "oracle.lp_vertex_enum.busy_s": (st.busy_s("oracle.lp_vertex_enum"), "s"),
        "oracle.exhaustive_decode_check.busy_s": (st.busy_s("oracle.exhaustive_decode_check"), "s"),
        "oracle.realizations": (c["oracle.realizations"], "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead": (overhead, "ratio"),
    })
    return m


# ---------------------------------------------------------------------------
# self-test


def self_test(bench) -> list[str]:
    """Span counts on tiny inputs must equal known call counts.

    `bench` is the benchmark module whose own bindings are traced too. A
    binding site the patcher missed shows up here as a missing span.
    """
    from sumbox import tables

    problems = []
    tracer = Tracer()
    with tracer.patched([bench]):
        problems += [f"unwrapped binding: {b}" for b in unwrapped_bindings([bench])]
        tracer.enabled = True
        rows = tables.check_table1()
        report = bench.exhaustive_decode_check(bench.worked_reference_scheme())
        tracer.enabled = False
    if any(got != golden for _, got, golden in rows):
        problems.append("table 1 capacities differ from the golden values")
    if not report.agree:
        problems.append("reference scheme fails its exhaustive decode check")
    spans = tracer.spans
    lp_spans = [i for i, s in enumerate(spans) if s[0] == "capacity.capacity_lp"]
    if len(lp_spans) != 11:
        problems.append(f"{len(lp_spans)} capacity_lp spans on table 1, expected 11")
    for i in lp_spans:
        if not any(s[0] == "lp.solve_min" and s[3] == i for s in spans):
            problems.append(f"capacity_lp span {i} has no lp.solve_min child")
    checks = [i for i, s in enumerate(spans) if s[0] == "oracle.exhaustive_decode_check"]
    batches = [s for s in spans if s[0] == "scheme.simulate_batch" and s[3] in checks]
    if len(checks) != 1 or len(batches) != 8:
        problems.append(f"{len(checks)} exhaustive_decode_check spans with {len(batches)} "
                        "simulate_batch children, expected 1 with ceil(65536 / 8192) = 8")
    if tracer.counts["oracle.realizations"] != 1 << 16:
        problems.append("oracle.realizations is not 65536 for the reference scheme")
    return problems
