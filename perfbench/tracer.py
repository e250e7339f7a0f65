"""In-memory span tracer that wraps the public functions of `cylsym`.

`Tracer.install()` replaces every public function of each `cylsym` module,
in its defining module and in every `cylsym` module that imported it, and
the public methods of the classes those modules define, with a timing
wrapper.  The library's files are not touched; a traced worker is a separate
process, so the wrapping never reaches an untraced run.

Each call yields a frame on a stack.  A call's self time is its duration
minus the durations of the wrapped calls it made.  Calls of functions named
in `LEAVES` are hot and have no wrapped callees worth a span of their own:
they are counted per name and aggregated into their nearest enclosing span
instead of being stored one by one.  Every other call is stored as a span
(job id, span id, parent id, name, start, end, self time, leaf aggregates)
and written out by `write_spans` when the round ends.  The span of a
generator function covers only the call that creates the generator; its
iteration counts toward the consumer's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time

MODULES = ("cli", "grassmannian", "fusion", "cylindric", "symfunc", "cyclotomic",
           "partitions", "affine")

# Dunder methods that carry work the per-layer metrics need.
DUNDERS = ("__init__", "__post_init__", "__mul__", "__rmul__", "__add__")

# Hot calls, aggregated per enclosing span.  Names are <module>.<qualname>.
LEAVES = frozenset({
    "cyclotomic.CycloNum.__mul__", "cyclotomic.CycloNum.__rmul__",
    "cyclotomic.CycloNum.__add__", "cyclotomic.CycloNum.__post_init__",
    "cyclotomic.CycloNum.inv", "cyclotomic.CycloNum.to_integer",
    "cyclotomic.CycloNum.is_zero", "cyclotomic.CycloNum.zero",
    "cyclotomic.CycloNum.from_rational", "cyclotomic.CycloNum.one",
    "cyclotomic.zeta_pow", "cyclotomic.euler_phi", "cyclotomic.cyclotomic_poly",
    "cylindric.theta_cyl", "cylindric.psi_cyl", "cylindric.phi_cyl",
    "partitions.normalize", "partitions.is_partition", "partitions.size",
    "partitions.length", "partitions.conjugate", "partitions.multiplicity",
    "partitions.z_factor", "partitions.stab_order", "partitions.format_partition",
    "partitions.distinct_permutations", "partitions.n_core", "partitions.beta_numbers",
    "partitions.partition_from_betas", "partitions.staircase",
    "partitions.AlcoveWeight.__post_init__", "partitions.BoxedPartition.__post_init__",
    "partitions.AlcoveWeight.same_context", "partitions.BoxedPartition.same_context",
    "partitions.BoxedPartition.padded", "partitions.BoxedPartition.to_strict",
    "partitions.AlcoveWeight.is_strict", "partitions.AlcoveWeight.star",
    "partitions.AlcoveWeight.rot", "partitions.AlcoveWeight.vee",
    "partitions.AlcoveWeight.quantum_dim", "partitions.quantum_dim",
    "partitions.boxed_from_strict", "partitions.reduce_to_alcove",
    "affine.ShiftedShape.__post_init__", "affine.loop_value", "affine.shifted_loop_value",
    "affine.CylindricShape.inner_at", "affine.CylindricShape.outer_at",
    "affine.ShiftedShape.inner_at", "affine.ShiftedShape.outer_at",
    "cyclotomic.CycloNum.to_fraction", "fusion.comb_multinomial", "symfunc.p_to_m_row",
    "symfunc.SymFunc.__post_init__", "symfunc.SymFunc.make", "symfunc.mn_character",
    "fusion.fusion_count", "fusion.n_count", "fusion.Report.run",
})


class Tracer:
    def __init__(self):
        self.job = -1
        self.stack = []        # open calls: [child seconds, module]
        self.open_spans = []   # open span records, innermost last
        self.spans = []        # closed span records
        self.stats = {}        # name -> [calls, self seconds, total seconds]
        self.errors = {m: 0 for m in MODULES}
        self.caches = {}       # name -> the lru_cache object behind the wrapper
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in MODULES}
        found = {m.name for m in pkgutil.iter_modules(package.__path__)}
        if found - set(MODULES):
            raise RuntimeError(f"untraced cylsym modules: {sorted(found - set(MODULES))}")
        wrappers = {}  # id(original) -> wrapper, shared by every importing module
        originals = []
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if not issubclass(obj, BaseException):
                        originals += self._wrap_class(short, obj)
                    continue
                home = _home_module(obj)
                if home is None or home not in modules:
                    continue
                if id(obj) not in wrappers:
                    name = f"{home}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrapper(obj, name, home)
                    originals.append(obj)
                    if hasattr(obj, "cache_info"):
                        self.caches[name] = obj
                setattr(module, attr, wrappers[id(obj)])
        # Default arguments bound at definition time, e.g. gw_table(route=gw_bvi).
        for fn in originals:
            fn = getattr(fn, "__wrapped__", fn)
            if getattr(fn, "__defaults__", None):
                fn.__defaults__ = tuple(wrappers.get(id(v), v) for v in fn.__defaults__)

    def _wrap_class(self, short, cls):
        wrapped = []
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue  # generated; __post_init__ marks the construction
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if not inspect.isfunction(fn):
                continue
            w = self._wrapper(fn, f"{short}.{cls.__name__}.{attr}", short)
            setattr(cls, attr, staticmethod(w) if is_static else w)
            wrapped.append(fn)
        return wrapped

    # -- the wrapper --------------------------------------------------------

    def _wrapper(self, fn, name, module):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, open_spans, clock = self.stack, self.open_spans, time.perf_counter
        leaf = name in LEAVES

        def finish(frame, start):
            duration = clock() - start
            stack.pop()
            stats[0] += 1
            stats[1] += duration - frame[0]
            stats[2] += duration
            if stack:
                stack[-1][0] += duration
            return duration

        def escaped():
            # stack[-1] is the failing call itself; count it once per module
            if len(stack) < 2 or stack[-2][1] != module:
                self.errors[module] += 1

        if leaf:
            def wrapper(*args, **kwargs):
                frame = [0.0, module]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    escaped()
                    raise
                finally:
                    duration = finish(frame, start)
                    if open_spans:
                        agg = open_spans[-1][7].setdefault(name, [0, 0.0])
                        agg[0] += 1
                        agg[1] += duration
        else:
            def wrapper(*args, **kwargs):
                parent = open_spans[-1][1] if open_spans else None
                span = [self.job, self._new_id(), parent, name, 0.0, 0.0, 0.0, {}]
                frame = [0.0, module]
                stack.append(frame)
                open_spans.append(span)
                start = span[4] = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    escaped()
                    raise
                finally:
                    duration = finish(frame, start)
                    open_spans.pop()
                    span[5] = start + duration
                    span[6] = duration - frame[0]
                    self.spans.append(span)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {"stats": self.stats, "errors": self.errors, "caches": caches}

    def write_spans(self, path) -> None:
        fields = ["job", "id", "parent", "name", "start", "end", "self_s", "leaves"]
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _home_module(obj):
    """Short name of the cylsym module that defines a function, else None."""
    target = getattr(obj, "__wrapped__", obj)
    if not inspect.isfunction(target) or not target.__module__.startswith("cylsym."):
        return None
    return target.__module__.split(".", 1)[1]
