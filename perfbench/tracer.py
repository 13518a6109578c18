"""Per-layer spans and counters, installed around uthopf from outside.

Nothing under ``src/`` knows about this module.  ``install`` replaces the
public functions and methods of each uthopf module with thin wrappers that
record self time and call counts, and rebinds every ``from .x import y``
copy of a wrapped function so that calls from any module go through the
wrapper.  ``lru_cache``d functions are wrapped outside their cache, so a
cache hit is recorded as a cheap span.

A span's self time is its duration minus the durations of the spans opened
inside it, so nested and recursive spans add up to the traced wall time
without double counting; ``other`` is the time no span covers.
"""

import functools
import time

# Metric name, unit, better.  The order is the order of the report.
PER_LAYER = [
    ("combinatorics.nuio_built", "count", "lower"),
    ("combinatorics.nuio_s", "s", "lower"),
    ("combinatorics.partial_order_built", "count", "lower"),
    ("group_engine.matmul", "count", "lower"),
    ("group_engine.matmul_s", "s", "lower"),
    ("group_engine.matrix_built", "count", "lower"),
    ("group_engine.tables_built", "count", "lower"),
    ("group_engine.table_elements", "count", "lower"),
    ("group_engine.table_s", "s", "lower"),
    ("group_engine.conjugacy_s", "s", "lower"),
    ("group_engine.conjugacy_tables", "count", "lower"),
    ("group_engine.generators_s", "s", "lower"),
    ("group_engine.factorization_s", "s", "lower"),
    ("group_engine.factorizations", "count", "lower"),
    ("class_functions.induce_s", "s", "lower"),
    ("class_functions.induce_calls", "count", "lower"),
    ("class_functions.inflate_s", "s", "lower"),
    ("class_functions.inflate_calls", "count", "lower"),
    ("class_functions.deflate_s", "s", "lower"),
    ("class_functions.deflate_calls", "count", "lower"),
    ("class_functions.straighten_s", "s", "lower"),
    ("class_functions.straighten_calls", "count", "lower"),
    ("hopf_core.coproduct_s", "s", "lower"),
    ("hopf_core.antipode_s", "s", "lower"),
    ("hopf_core.product_s", "s", "lower"),
    ("hopf_core.laurent_ops", "count", "lower"),
    ("hopf_core.specialize_s", "s", "lower"),
    ("hopf_core.ut_product_s", "s", "lower"),
    ("hopf_core.ut_coproduct_s", "s", "lower"),
    ("gl_bridge.split_tables_s", "s", "lower"),
    ("gl_bridge.induce_to_gl_s", "s", "lower"),
    ("gl_bridge.gl_product_s", "s", "lower"),
    ("gl_bridge.gl_coproduct_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Self times and counts keyed by metric name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.seconds = {}
        self.counts = {}
        # One accumulator of child time per open span; the bottom entry
        # collects the spans opened outside any other span.
        self._child = [0.0]

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, calls=None):
        """Wrap fn so that each call is a span charged to name."""
        clock = self.clock
        stack = self._child
        seconds = self.seconds
        seconds.setdefault(name, 0.0)
        if calls is not None:
            self.counts.setdefault(calls, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                self.count(calls)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                seconds[name] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call adds one to name; no span."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def other(self, wall):
        """Traced wall time not covered by any top-level span."""
        return wall - self._child[0]


def _rebind(modules, original, wrapper):
    """Point every module-level name bound to original at wrapper."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer, uthopf_modules):
    """Wrap the layer boundaries of uthopf; returns nothing.

    uthopf_modules maps a short name (``group_engine``, ...) to the
    imported module, and must include ``uthopf`` itself so that the
    package-level re-exports are rebound too.
    """
    m = uthopf_modules
    mods = list(m.values())
    ge, cf, hc, gb, cb, cli = (
        m["group_engine"], m["class_functions"], m["hopf_core"],
        m["gl_bridge"], m["combinatorics"], m["cli"],
    )

    def wrap_function(module, attr, make):
        original = getattr(module, attr)
        _rebind(mods, original, make(original))

    def wrap_method(cls, attr, make):
        setattr(cls, attr, make(vars(cls)[attr]))

    # combinatorics
    wrap_method(cb.Nuio, "__init__", lambda f: tracer.span(
        "combinatorics.nuio_s", f, calls="combinatorics.nuio_built"))
    wrap_method(cb.PartialOrder, "__init__", lambda f: tracer.counter(
        "combinatorics.partial_order_built", f))

    # group_engine
    wrap_method(ge.FqMatrix, "__mul__", lambda f: tracer.span(
        "group_engine.matmul_s", f, calls="group_engine.matmul"))
    wrap_method(ge.FqMatrix, "__init__", lambda f: tracer.counter(
        "group_engine.matrix_built", f))

    def table_init(f):
        timed = tracer.span("group_engine.table_s", f)
        tracer.counts.setdefault("group_engine.tables_built", 0)
        tracer.counts.setdefault("group_engine.table_elements", 0)

        @functools.wraps(f)
        def wrapper(self, *args, **kwargs):
            timed(self, *args, **kwargs)
            tracer.count("group_engine.tables_built")
            tracer.count("group_engine.table_elements", self.order)

        return wrapper

    wrap_method(ge.GroupTable, "__init__", table_init)
    for attr in ("gl_table", "pattern_group", "ut_table"):
        wrap_function(ge, attr, lambda f: tracer.span("group_engine.table_s", f))

    def conjugacy(f):
        # _conjugacy runs on every .classes / .class_of read; only the
        # first read of each table does the orbit search.
        timed = tracer.span("group_engine.conjugacy_s", f)
        tracer.counts.setdefault("group_engine.conjugacy_tables", 0)

        @functools.wraps(f)
        def wrapper(self):
            if self._classes is not None:
                return f(self)
            tracer.count("group_engine.conjugacy_tables")
            return timed(self)

        return wrapper

    wrap_method(ge.GroupTable, "_conjugacy", conjugacy)
    wrap_method(ge.GroupTable, "_ensure_generating", lambda f: tracer.span(
        "group_engine.generators_s", f))

    def factorization(f):
        timed = tracer.span("group_engine.factorization_s", f)
        tracer.counts.setdefault("group_engine.factorizations", 0)

        @functools.wraps(f)
        def wrapper(self, levi, radical):
            if (levi.name, radical.name) not in self._factorizations:
                tracer.count("group_engine.factorizations")
            return timed(self, levi, radical)

        return wrapper

    wrap_method(ge.GroupTable, "factorization", factorization)

    # class_functions
    for attr, name in (
        ("induce_cf", "induce"),
        ("inflate_cf", "inflate"),
        ("deflate_cf", "deflate"),
        ("straighten_cf", "straighten"),
        ("unstraighten_cf", "straighten"),
    ):
        wrap_function(cf, attr, lambda f, name=name: tracer.span(
            "class_functions.%s_s" % name, f,
            calls="class_functions.%s_calls" % name))

    # hopf_core
    wrap_method(hc.ScfElement, "coproduct", lambda f: tracer.span(
        "hopf_core.coproduct_s", f))
    wrap_function(hc, "_coproduct_basis", lambda f: tracer.span(
        "hopf_core.coproduct_s", f))
    wrap_method(hc.ScfElement, "antipode", lambda f: tracer.span(
        "hopf_core.antipode_s", f))
    wrap_function(hc, "_antipode_basis", lambda f: tracer.span(
        "hopf_core.antipode_s", f))
    wrap_method(hc.ScfElement, "__mul__", lambda f: tracer.span(
        "hopf_core.product_s", f))
    for attr in ("__add__", "__mul__"):
        wrap_method(hc.LaurentT, attr, lambda f: tracer.counter("hopf_core.laurent_ops", f))
    hc.LaurentT.__rmul__ = hc.LaurentT.__mul__
    for attr in ("specialize", "specialize_tensor"):
        wrap_function(hc, attr, lambda f: tracer.span("hopf_core.specialize_s", f))
    wrap_function(hc, "ut_product", lambda f: tracer.span("hopf_core.ut_product_s", f))
    wrap_function(hc, "ut_coproduct", lambda f: tracer.span(
        "hopf_core.ut_coproduct_s", f))

    # gl_bridge
    for attr in ("levi_table", "parabolic_table", "radical_table"):
        wrap_function(gb, attr, lambda f: tracer.span("gl_bridge.split_tables_s", f))
    wrap_function(gb, "induce_to_gl", lambda f: tracer.span("gl_bridge.induce_to_gl_s", f))
    wrap_function(gb, "gl_product", lambda f: tracer.span("gl_bridge.gl_product_s", f))
    wrap_function(gb, "gl_coproduct", lambda f: tracer.span("gl_bridge.gl_coproduct_s", f))

    # cli
    wrap_function(cli, "_emit", lambda f: tracer.span("cli.emit_s", f))
