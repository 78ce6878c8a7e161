"""Per-layer tracing for the benchmark's traced run (stdlib only).

Wrappers are installed from outside the program: each replaces a public
function object in every loaded perdec.* module namespace that bound it, or
a method on its class, and `uninstall` puts the originals back.  Nothing in
perdec changes, and the untraced runs never see a wrapper.

Coarse calls record a span (name, start, end, parent span, job id) kept in
memory.  Leaf kernels called millions of times (`hnf_reduce`,
`LazyConfig.value_at`, `LaurentPoly.__mul__`, ...) record no span; they add
a count and a time to the enclosing span instead.  Every wrapped call keeps
its own self time: its duration minus the time of the wrapped calls inside
it.  Lazy views defer their work to the first evaluation, so transfer
recurrences are paid inside `config.rasterize`, `decompose.verify_on_window`
and `config.lazy_value_at`, not inside `decompose.solve_transfer`; read the
layers by self time for that reason.
"""

from __future__ import annotations

import sys
import time

# (module, attribute or Class.method, metric name, leaf?)
TARGETS = [
    ("perdec.cli", "main", "cli.job", False),
    ("perdec.serialize", "load_json", "serialize.load", False),
    ("perdec.serialize", "dumps", "serialize.dump", False),
    ("perdec.serialize", "config_from_obj", "serialize.config_from_obj",
     False),
    ("perdec.serialize", "config_to_obj", "serialize.config_to_obj", False),
    ("perdec.laurent", "LaurentPoly.__mul__", "laurent.mul", True),
    ("perdec.lattice", "hnf_reduce", "lattice.hnf_reduce", True),
    ("perdec.lattice", "hnf_rows", "lattice.hnf_rows", True),
    ("perdec.config", "apply_poly", "config.apply_poly", False),
    ("perdec.config", "rasterize", "config.rasterize", False),
    ("perdec.config", "is_annihilated", "config.is_annihilated", False),
    ("perdec.config", "period_lattice", "config.period_lattice", False),
    ("perdec.config", "LazyConfig.value_at", "config.lazy_value_at", True),
    ("perdec.config", "FiberSum.__init__", "config.fibersum_build", True),
    ("perdec.decompose", "solve_transfer", "decompose.solve_transfer", False),
    ("perdec.decompose", "verify_transfer", "decompose.verify_transfer",
     False),
    ("perdec.decompose", "decompose_product", "decompose.decompose_product",
     False),
    ("perdec.decompose", "Decomposition.verify_on_window",
     "decompose.verify_on_window", False),
    ("perdec.decompose", "k_periodic_decompose",
     "decompose.k_periodic_decompose", False),
    ("perdec.decompose", "reduce_annihilator", "decompose.reduce_annihilator",
     False),
    ("perdec.decompose", "annihilator_from_periodizer",
     "decompose.annihilator_from_periodizer", False),
    ("perdec.decompose", "search_difference_annihilator", "decompose.search",
     False),
    ("perdec.sparse", "check_sparseness", "sparse.check_sparseness", False),
    ("perdec.sparse", "fiber_extract", "sparse.fiber_extract", False),
    ("perdec.sparse", "sparse_split2", "sparse.sparse_split2", False),
    ("perdec.sparse", "sparse_decompose", "sparse.sparse_decompose", False),
    ("perdec.sparse", "sparse_full", "sparse.sparse_full", False),
    ("perdec.tiling", "independent", "tiling.independent", False),
    ("perdec.tiling", "verify_cotiler", "tiling.verify_cotiler", False),
    ("perdec.tiling", "cotiler_decompose", "tiling.cotiler_decompose", False),
]

# apply_poly is reported per representation of its configuration argument
_APPLY_KINDS = {"WindowConfig": "window", "PeriodicConfig": "periodic",
                "FiberSum": "fibersum", "LazyConfig": "lazy"}


def _timed_names():
    names = []
    for _, _, name, _ in TARGETS:
        if name == "config.apply_poly":
            names += [f"{name}.{k}" for k in _APPLY_KINDS.values()]
        else:
            names.append(name)
    return names


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for name in _timed_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update({
        "config.rasterize.points": "count",
        "decompose.search.candidates": "count",
        "decompose.search.found_ratio": "ratio",
        "decompose.search.exhausted": "count",
        "serialize.bytes_written": "bytes",
        "trace.untraced_jobs_per_s": "1/s",
        "trace.traced_jobs_per_s": "1/s",
        "trace.overhead": "ratio",
    })
    return out


class Tracer:
    """Installs the wrappers and accumulates calls, self time and spans."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in _timed_names()}
        self.counters = {"config.rasterize.points": 0,
                         "decompose.search.candidates": 0,
                         "decompose.search.found": 0,
                         "decompose.search.exhausted": 0,
                         "serialize.bytes_written": 0}
        self.spans = []
        self.job = None
        self._child = [0.0]  # time of wrapped calls inside each open call
        self._open = [None]  # index of the innermost open span
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, leaf):
        stats, child, open_, spans = (self.stats, self._child, self._open,
                                      self.spans)
        clock = time.perf_counter
        tracer = self
        kinds = _APPLY_KINDS if name == "config.apply_poly" else None

        if leaf:
            st = stats[name]

            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st[0] += 1
                    st[1] += dt - child.pop()
                    child[-1] += dt
            return wrapper

        def wrapper(*args, **kwargs):
            label = name
            if kinds is not None:
                label = f"{name}.{kinds.get(type(args[1]).__name__, 'lazy')}"
            idx = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                st = stats[label]
                st[0] += 1
                st[1] += dt - child.pop()
                child[-1] += dt
                open_.pop()
                spans[idx] = (label, t0, t1, parent, tracer.job)
        return wrapper

    def _counted(self, fn, name):
        counters = self.counters
        if name == "config.rasterize":
            def wrapper(c, lo, hi):
                n = 1
                for a, b in zip(lo, hi):
                    n *= max(0, int(b) - int(a) + 1)
                counters["config.rasterize.points"] += n
                return fn(c, lo, hi)
            return wrapper
        if name == "serialize.dump":
            def wrapper(obj):
                text = fn(obj)
                counters["serialize.bytes_written"] += len(text.encode())
                return text
            return wrapper
        if name == "decompose.search":
            from perdec.errors import InconclusiveError

            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except InconclusiveError:
                    counters["decompose.search.exhausted"] += 1
                    raise
            return wrapper
        return fn

    # -- installation ---------------------------------------------------------

    def install(self):
        import perdec  # noqa: F401  (loads every perdec.* module)
        import perdec.cli  # noqa: F401
        for modname, attr, name, leaf in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                new = self._wrap(self._counted(orig, name), name, leaf)
                for key, value in list(vars(cls).items()):
                    if value is orig:  # also catches aliases like __rmul__
                        self._undo.append((cls, key, orig))
                        setattr(cls, key, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(self._counted(orig, name), name, leaf)
            self._rebind(orig, new)
        # candidates tested by the certificate search, and how many held
        decompose = sys.modules["perdec.decompose"]
        test = decompose._test_product
        counters = self.counters

        def counted_test(vectors, c):
            ok = test(vectors, c)
            counters["decompose.search.candidates"] += 1
            counters["decompose.search.found"] += bool(ok)
            return ok
        self._undo.append((decompose, "_test_product", test))
        decompose._test_product = counted_test

    def _rebind(self, orig, new):
        for modname, module in list(sys.modules.items()):
            if modname != "perdec" and not modname.startswith("perdec."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._undo.append((module, key, orig))
                    setattr(module, key, new)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results --------------------------------------------------------------

    def metrics(self, untraced_jobs_per_s, traced_jobs_per_s):
        units = metric_units()
        values = {}
        for name, (calls, self_s) in self.stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        counters = self.counters
        cand = counters["decompose.search.candidates"]
        values.update({
            "config.rasterize.points": counters["config.rasterize.points"],
            "decompose.search.candidates": cand,
            "decompose.search.found_ratio":
                counters["decompose.search.found"] / cand if cand else 0.0,
            "decompose.search.exhausted":
                counters["decompose.search.exhausted"],
            "serialize.bytes_written": counters["serialize.bytes_written"],
            "trace.untraced_jobs_per_s": untraced_jobs_per_s,
            "trace.traced_jobs_per_s": traced_jobs_per_s,
            "trace.overhead": untraced_jobs_per_s / traced_jobs_per_s,
        })
        return {name: {"value": values[name], "unit": units[name]}
                for name in units}
