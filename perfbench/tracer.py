"""Outside-in tracer: time kcycle's layers by wrapping their public functions.

Every public function of every ``kcycle`` module is replaced by a
wrapper at every name it is bound under, because the modules import
each other's functions by name (``from .exactla import rank``).
``QMatrix.mul`` and the ``Subspace.span`` classmethod are wrapped too.
Spans stay in memory, in flat arrays, until the pass ends; the
originals are restored by ``uninstall``.

Self time is a span's duration minus the durations of its direct child
spans.  Alongside the spans the tracer counts

* ``cells``: rows x cols of each ``rank`` argument, rows x inner x cols
  of each ``mul``;
* ``max_bits``: the largest entry bit length a ``rank`` argument held;
* ``distinct_ratio``: distinct base points given to ``conormal_space``
  over its calls;
* ``degenerate_ratio``: ``verify_transversality`` calls that reached
  ``_differential_values`` over all its calls.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter

# private functions wrapped only because a ratio needs their spans
_PRIVATE = {"degeneracy._differential_values"}


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names = []  # span name by name id
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.cells = defaultdict(int)
        self.max_bits = defaultdict(int)
        self.base_points = set()
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    # Probes read matrices through their public shape and entries only;
    # a matrix type without them is counted as empty.

    def _probe_rank(self, args):
        m = args[0]
        self.cells["exactla.rank"] += getattr(m, "nrows", 0) * getattr(m, "ncols", 0)
        entries = getattr(m, "entries", ())
        if entries:
            bits = max(map(_entry_bits, entries))
            if bits > self.max_bits["exactla.rank"]:
                self.max_bits["exactla.rank"] = bits

    def _probe_mul(self, args):
        a, b = args[0], args[1]
        self.cells["exactla.QMatrix.mul"] += (
            getattr(a, "nrows", 0) * getattr(a, "ncols", 0) * getattr(b, "ncols", 0))

    def _probe_conormal(self, args):
        self.base_points.add(args[0])

    # -- installing ---------------------------------------------------------

    def install(self):
        import kcycle

        probes = {
            "exactla.rank": self._probe_rank,
            "conormal.conormal_space": self._probe_conormal,
        }
        modules = [
            importlib.import_module(f"kcycle.{info.name}")
            for info in pkgutil.iter_modules(kcycle.__path__)
        ]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in _PRIVATE:
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj, probes.get(name)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        exactla = importlib.import_module("kcycle.exactla")
        qm, sub = exactla.QMatrix, exactla.Subspace
        self._patch(qm, "mul", self._wrap("exactla.QMatrix.mul", qm.mul, self._probe_mul))
        span = sub.__dict__["span"]
        self._patch(sub, "span", classmethod(self._wrap("exactla.Subspace.span", span.__func__)))

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict:
        """Layer metrics by name, for every wrapped function, called or not."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        nspans = len(starts)
        child = [0.0] * nspans
        for i in range(nspans):
            if parents[i] >= 0:
                child[parents[i]] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d - child[i]
        out = {}
        modules = defaultdict(float)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = self_s[nid]
            modules[name.partition(".")[0]] += self_s[nid]
        for mod, value in modules.items():
            out[f"{mod}.self_s"] = value
        for name in ("exactla.rank", "exactla.QMatrix.mul"):
            out[f"{name}.cells"] = self.cells[name]
        out["exactla.rank.max_bits"] = self.max_bits["exactla.rank"]
        out["conormal.conormal_space.distinct_ratio"] = _ratio(
            len(self.base_points), out.get("conormal.conormal_space.calls", 0))
        out["degeneracy.verify_transversality.degenerate_ratio"] = _ratio(
            self._parents_reaching("degeneracy.verify_transversality",
                                   "degeneracy._differential_values"),
            out.get("degeneracy.verify_transversality.calls", 0))
        return out

    def _parents_reaching(self, parent: str, child: str) -> int:
        """How many spans of ``parent`` have a direct child span of ``child``."""
        if parent not in self._ids or child not in self._ids:
            return 0
        pid, cid = self._ids[parent], self._ids[child]
        names, parents = self.span_name, self.span_parent
        return len({parents[i] for i in range(len(names))
                    if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid})


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
