"""Spans around the calls into each multilat layer, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules, and
every public method of ``FiniteLattice`` and ``JiSet``, with a wrapper that
records a span.  It also rebinds each ``from ... import`` alias of a wrapped
function in the other multilat modules, so calls between layers are seen.
``uninstall`` restores the originals, so untraced blocks run unmodified code.

Spans form a calling-context tree per request: repeated calls of one
function from one parent span merge into one node that keeps the call count,
the summed duration, the first start and the last end.  That keeps the trace
bounded when a request makes 10^5 calls.  Self time is a node's duration
minus its children's.  Counts that are properties of the input are derived
from arguments and return values (``OBSERVERS``).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter

LAYERS = ("cli", "sd_engine", "congruence", "irreducibles", "finite_lattice",
          "multinomial", "perm_core")
TRACED_CLASSES = {"finite_lattice": ("FiniteLattice",), "congruence": ("JiSet",)}


class Node:
    __slots__ = ("name", "layer", "children", "calls", "total", "first", "last", "counts")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.first = None
        self.last = None
        self.counts: dict[str, float] = {}

    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())


def _sd_triples(args, result):
    n = args[0].n
    return n ** 3 if result is True else (result[0] + 1) * n * n


OBSERVERS = {
    "finite_lattice.from_covers": lambda args, r: {"elements": r.n},
    "finite_lattice.sd_holds": lambda args, r: {"triples": _sd_triples(args, r)},
    "irreducibles.d_graph": lambda args, r: {"edges": len(r.edges)},
    "congruence.d_closed_sets": lambda args, r: {"sets": len(r)},
}


class Tracer:
    def __init__(self):
        self.requests: list[tuple[int, Node]] = []
        self.stack: list[Node] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        root = Node("request", "harness")
        self.requests.append((request_id, root))
        self.stack = [root]

    def end_request(self) -> None:
        self.stack = []

    def _wrap(self, name: str, layer: str, fn):
        observe = OBSERVERS.get(name)
        stack_of = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of.stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, layer)
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                node.calls += 1
                node.total += t1 - t0
                if node.first is None:
                    node.first = t0
                node.last = t1
            if observe is not None:
                for key, value in observe(args, result).items():
                    node.counts[key] = node.counts.get(key, 0) + value
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)] + [package]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(f"{layer}.{attr}", layer, raw.__func__))
                    elif callable(raw) and not isinstance(raw, (staticmethod, type)):
                        new = self._wrap(f"{layer}.{attr}", layer, raw)
                    else:
                        continue
                    self._set(cls, attr, new)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def _set(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved = []


# -- per-layer metrics ---------------------------------------------------------


def _walk(node: Node, ancestors: frozenset):
    for child in node.children.values():
        yield child, ancestors
        yield from _walk(child, ancestors | {child.name})


def layer_metrics(roots: list[Node]) -> dict[str, float]:
    """Per-layer self time, per-function calls and durations, and counts,
    summed over the given request trees."""
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for root in roots:
        for node, ancestors in _walk(root, frozenset()):
            m[f"{node.layer}.self_s"] += node.self_time()
            m[f"{node.name}.calls"] = m.get(f"{node.name}.calls", 0) + node.calls
            if node.name not in ancestors:  # recursion is counted once
                m[f"{node.name}.s"] = m.get(f"{node.name}.s", 0.0) + node.total
            for key, value in node.counts.items():
                m[f"{node.name}.{key}"] = m.get(f"{node.name}.{key}", 0) + value
    return m


def spans(request_id: int, root: Node, origin: float) -> list[dict]:
    """Flatten one request tree into span records (ids local to the list)."""
    out: list[dict] = []

    def visit(node: Node, parent: int | None) -> None:
        sid = len(out)
        out.append({"id": sid, "name": node.name, "parent": parent, "request": request_id,
                    "start": None if node.first is None else node.first - origin,
                    "end": None if node.last is None else node.last - origin,
                    "calls": node.calls, "total_s": node.total,
                    "self_s": node.self_time() if parent is not None else None,
                    **node.counts})
        for child in node.children.values():
            visit(child, sid)

    visit(root, None)
    return out
