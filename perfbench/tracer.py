"""Outside-in span tracer for the swingid layers.

The tracer wraps the public functions of each traced module from outside
the package; no file under src/ knows it exists.  A wrapper records one
span per call, (op, name, start, end, parent), into an in-memory list,
and an optional hook turns the call's arguments and result into exact
counts (steps, bytes, iterations) filed under the current op.

Python resolves `from .sim import simulate` once, at import time, so
patching `sim.simulate` alone would miss every call that goes through
`analysis.simulate`.  The tracer therefore patches every binding site:
module attributes of the package and of each submodule, and dict or
list values held at module level.  A public function that a traced
module imports from a package module outside TRACED_LAYERS would carry
a layer's work without a span of its own; that raises CoverageError
instead of silently folding the time into the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

TRACED_LAYERS = ("cli", "io_config", "model", "sim", "estimators", "analysis")

# Called once per solver iteration: a span each would cost more than the
# work it measures, so their time stays in the estimator's self time.
INNER_LOOP = frozenset({
    "estimators.soft_threshold",
    "estimators.singular_value_threshold",
    "estimators.ls_objective",
})


class CoverageError(RuntimeError):
    """A function binding the tracer cannot cover with a span."""


class Tracer:
    """Span recorder that patches a package's traced functions on demand.

    Build it after the package is imported; `install()` swaps the wrappers
    in at every binding site and `uninstall()` puts the originals back, so
    untraced work in the same process runs the pristine functions.
    """

    def __init__(self, package: types.ModuleType):
        self.spans: list[tuple | None] = []
        self.counts: dict[object, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.op: object = None
        self._open: list[tuple[int, str]] = []
        self._hooks: dict[str, object] = {}
        self.wrapped: dict[str, types.FunctionType] = {}
        self._patches = self._plan(package)

    # ---------------------------------------------------------------- patching

    def _plan(self, package):
        prefix = package.__name__ + "."
        traced = {prefix + layer: layer for layer in TRACED_LAYERS}
        wrappers = {}
        for modname, layer in traced.items():
            module = importlib.import_module(modname)
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_") and name not in INNER_LOOP):
                    wrappers[obj] = self._wrap(name, obj)
                    self.wrapped[name] = obj
        patches = []
        modules = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith(prefix)]
        for module in modules:
            for attr, obj in vars(module).items():
                where = f"{module.__name__}.{attr}"
                if _is_function(obj) and obj in wrappers:
                    patches.append((module, attr, obj, wrappers[obj]))
                elif isinstance(obj, dict):
                    patches += [(obj, k, v, wrappers[v]) for k, v in obj.items()
                                if _is_function(v) and v in wrappers]
                elif isinstance(obj, list):
                    patches += [(obj, i, v, wrappers[v]) for i, v in enumerate(obj)
                                if _is_function(v) and v in wrappers]
                elif isinstance(obj, (tuple, set, frozenset)):
                    if any(_is_function(v) and v in wrappers for v in obj):
                        raise CoverageError(
                            f"{where} holds traced functions in an immutable "
                            "container the tracer cannot patch")
                if (module.__name__ in traced or module is package) \
                        and _is_function(obj) and not attr.startswith("_") \
                        and obj.__module__.startswith(prefix) \
                        and obj.__module__ not in traced:
                    raise CoverageError(
                        f"{where} binds {obj.__module__}.{obj.__name__}, which "
                        f"is in no traced layer {TRACED_LAYERS}; map that "
                        "module to a layer before measuring")
        return patches

    @property
    def binding_sites(self) -> int:
        return len(self._patches)

    def install(self) -> None:
        for container, key, _, wrapper in self._patches:
            _assign(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original, _ in self._patches:
            _assign(container, key, original)

    def on_return(self, name: str, hook) -> None:
        """hook(arguments, result, parent_name) -> {count_name: increment}."""
        if name not in self.wrapped:
            raise CoverageError(f"no traced function {name}")
        self._hooks[name] = hook

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            parent, parent_name = self._open[-1] if self._open else (-1, None)
            index = len(self.spans)
            self.spans.append(None)
            self._open.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = (self.op, name, start, end, parent)
            hook = self._hooks.get(name)
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counts = self.counts[self.op]
                for key, value in hook(bound, result, parent_name).items():
                    counts[key] += value
            return result

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------------- aggregation

    def self_times(self, ops) -> dict[str, tuple[float, int]]:
        """{name: (summed self seconds, calls)} over the spans of `ops`.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for op, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: [0.0, 0] for name in self.wrapped}
        for i, (op, name, start, end, _) in enumerate(self.spans):
            if op in ops:
                row = table[name]
                row[0] += (end - start) - child[i]
                row[1] += 1
        return {name: (row[0], row[1]) for name, row in table.items()}

    def root_seconds(self, op) -> float:
        """Time of `op` covered by spans that have no parent."""
        return sum(end - start for o, _, start, end, parent in self.spans
                   if o == op and parent < 0)

    def write_spans(self, path, origin: float) -> None:
        """One CSV row per span, times in seconds from `origin`."""
        with open(path, "w") as fh:
            fh.write("index,op,name,start_s,end_s,parent\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{op},{name},{start - origin!r},"
                         f"{end - origin!r},{parent}\n")


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType)


def _assign(container, key, value) -> None:
    if isinstance(container, types.ModuleType):
        setattr(container, key, value)
    else:
        container[key] = value
