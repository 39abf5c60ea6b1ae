"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions and methods of each goldenschur
module in spans, rebinding them in every goldenschur namespace that holds
them, so calls between modules are caught as well as calls from the
benchmark.  A span's self time is its duration minus that of its child spans.
Spans are aggregated in memory as they close; nothing is written while the
program runs.  :func:`import_times` parses ``-X importtime`` output.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: Layers in import order; each is the module ``goldenschur.<layer>``.
LAYERS = ("qfield", "folded", "golden", "lockin", "schur", "report", "verify", "cli")

#: Q5 arithmetic: each call counts as one field operation.
Q5_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse",
)

#: Span name → function of (args, result) giving a suffix such as ``N256``
#: under which the span is also aggregated.  ``result`` is None on error.
Tagger = Callable[[tuple, Any], Optional[str]]
#: Span name → function of args giving (count name, increment).
CountHook = Callable[[tuple], tuple[str, int]]


class Tracer:
    """Spans around the goldenschur API, aggregated per name and per layer."""

    def __init__(self, taggers: dict[str, Tagger], counters: dict[str, CountHook]):
        self.taggers = taggers
        self.counters = counters
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [layer, child seconds]
        self.reset()

    def reset(self) -> None:
        # name → [calls, seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tagger = self.taggers.get(name)
        counter = self.counters.get(name)
        stack = self._stack

        def span(*args, **kwargs):
            stack.append([layer, 0.0])
            result = None
            t0 = perf_counter()
            if counter is not None:
                key, inc = counter(args)
                self.counts[key] += inc
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                # an error leaving the layer, not one passed between its own spans
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += dt
                keys = [name, layer]
                if tagger is not None:
                    tag = tagger(args, result)
                    if tag is not None:
                        keys.append(f"{name}.{tag}")
                for key in keys:
                    agg = self.spans[key]
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - child

        return span

    def install(self) -> None:
        """Wrap every public function and method of each layer."""
        modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "goldenschur"}
        for layer in LAYERS:
            mod = modules[f"goldenschur.{layer}"]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(layer, f"{layer}.{public}", obj)
                    for ns in modules.values():
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._set(ns, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val) and (attr in Q5_OPS or not attr.startswith("_")):
                            op = public == "Q5" and attr in Q5_OPS
                            name = f"{layer}.Q5.ops" if op else f"{layer}.{public}.{attr}"
                            self._set(obj, attr, self._wrap(layer, name, val))

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def seconds(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_seconds(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0


def import_times(stderr: str, root: str, dependencies: tuple[str, ...]) -> dict[str, float]:
    """Cumulative import seconds from ``-X importtime`` output.

    ``root`` gets the cumulative time of its outermost modules, everything
    they pulled in included.  Each dependency gets the cumulative time of its
    modules that no module of any dependency imported, so a numpy submodule
    that scipy pulls in is charged to scipy, and nothing is counted twice."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip().split(".")[0], int(cumulative) * 1e-6))
    out = dict.fromkeys((root, *dependencies), 0.0)
    for i, (depth, pkg, cumulative) in enumerate(rows):
        if pkg not in out:
            continue
        # rows are in post-order: the importers follow, each one level up
        ancestors, level = set(), depth
        for d, p, _ in rows[i + 1:]:
            if d < level:
                ancestors.add(p)
                level = d
                if level == 0:
                    break
        shadow = {root} if pkg == root else set(dependencies)
        if not ancestors & shadow:
            out[pkg] += cumulative
    return out
