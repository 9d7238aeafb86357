"""Spans around the package's public functions, patched in from outside ``src/``.

``Tracer.install`` wraps every public function of the six layer modules,
every public method of their classes and ``Dissection.__init__``, and
rebinds each module attribute that holds one of them (``quiddity.inv_a``,
``enumeration.realize_dissection``, ...), so calls between layers are seen
too. A wrapper records one span: its label, start, end and parent. A
generator function gets one span per resumption, so the consumer's work
between items is not charged to it. Counts that describe work are taken
from the arguments and results at the same boundary. Spans stay in memory
until ``write`` saves them.
"""

import gzip
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("algebra", "dissections", "surgery", "frieze", "enumeration", "cli")


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _pm_leaves(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result, counts):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n, entry_cap = bound.arguments["n"], bound.arguments["entry_cap"]
        # the documented default entry cap is n - 2, at least 1
        counts["enumeration.solutions_pm_identity.leaves"] += (entry_cap or max(1, n - 2)) ** n
        counts["enumeration.solutions_pm_identity.solutions"] += len(result)

    return count


def _add(name, amount):
    def count(args, kwargs, result, counts):
        counts[name] += amount(args, result)

    return count


# Work counts read at a boundary once the call has returned.
_COUNTERS = {
    "algebra.m_product": lambda fn: _add("algebra.m_product.entries", lambda a, r: _sized(a[0])),
    "dissections.validate": lambda fn: _add(
        "dissections.validate.diagonal_pairs",
        lambda a, r: len(a[0].diagonals) * (len(a[0].diagonals) - 1) // 2,
    ),
    "frieze.build_frieze": lambda fn: _add("frieze.build_frieze.entries", lambda a, r: r.n * len(r.rows)),
    "enumeration.solutions_gamma2": lambda fn: _add("enumeration.solutions_gamma2.solutions", lambda a, r: len(r)),
    "enumeration.solutions_pm_identity": _pm_leaves,
    "surgery.realize_triangulation": lambda fn: _add("surgery.realize_triangulation.pivots", lambda a, r: r.n - 3),
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._label_owner: dict[str, str] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _label_id(self, label: str, fn) -> int:
        owner = self._label_owner.setdefault(label, fn.__qualname__)
        if owner != fn.__qualname__:
            raise ValueError(f"{owner} and {fn.__qualname__} share the label {label}")
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, label: str, fn):
        nid = self._label_id(label, fn)
        counter = _COUNTERS[label](fn) if label in _COUNTERS else None
        open_, close, counts = self._open, self._close, self.counts

        if inspect.isgeneratorfunction(fn):
            yielded = f"{label}.yielded"

            def resume(gen):
                while True:
                    i = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(i)
                    counts[yielded] += 1
                    yield item

            @wraps(fn)
            def wrapper(*args, **kwargs):
                return resume(fn(*args, **kwargs))

            return wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if counter is not None:
                counter(args, kwargs, result, counts)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public callables of the loaded ``quiddity`` layer modules.

        May be called again after ``uninstall``; spans accumulate.
        """
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"quiddity.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self._wrap(f"{layer}.{name}", value)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    for attr, member in list(vars(value).items()):
                        if attr == "__init__" and name == "Dissection":
                            self._set(value, attr, self._wrap(f"{layer}.Dissection", member))
                        elif attr.startswith("_"):
                            continue
                        elif inspect.isfunction(member):
                            self._set(value, attr, self._wrap(f"{layer}.{attr}", member))
                        elif isinstance(member, (classmethod, staticmethod)):
                            inner = self._wrap(f"{layer}.{attr}", member.__func__)
                            self._set(value, attr, type(member)(inner))
        for module_name, module in list(sys.modules.items()):
            if module_name == "quiddity" or module_name.startswith("quiddity."):
                for name, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        self._set(module, name, wrapped[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Per-label span counts and self time, plus the counts that need parent labels."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = defaultdict(float)
        under = Counter()  # (label, parent label) -> spans
        for i in range(n):
            label = self.labels[name[i]]
            calls[label] += 1
            self_s[label] += end[i] - start[i] - child[i]
            p = parent[i]
            if p >= 0:
                under[label, self.labels[name[p]]] += 1
        return {"calls": calls, "self_s": self_s, "under": under, "counts": self.counts}

    def write(self, path) -> None:
        """Save every span as gzip JSON: label table and parallel arrays, times from the first start."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "labels": self.labels,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
