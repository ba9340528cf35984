"""Span tracing of the program from outside, by wrapping its callables.

Nothing under ``src/`` is edited.  :func:`install` wraps every public
function of each layer module and rebinds the wrapper in every ``freeconv``
namespace that bound the original (``from .series import
substitute_into_shifted`` in ``convolve``, ``from .verify import
run_suites`` in ``cli``, dispatch tables such as ``convolve._OPS``), plus a
few methods on their classes.  Spans are kept in memory as parallel lists
with their parent and request; per-layer figures are computed from them
when the traced run ends, and :meth:`Tracer.dump` writes them out as JSON.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("series", "convolve", "measures", "partitions", "opmodel", "graphs", "cli", "verify")

# (module, class, attribute, span name)
METHODS = (
    ("series", "TailSeries", "__mul__", "series.mul"),
    ("series", "TailSeries", "reciprocal", "series.reciprocal"),
    ("opmodel", "ModelOperator", "apply", "opmodel.apply"),
    ("opmodel", "WordBasis", "build", "opmodel.WordBasis.build"),
    ("opmodel", "FreeProductModel", "__init__", "opmodel.FreeProductModel"),
)


def _bits(fractions) -> int:
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in fractions), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_request: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.max_bits: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        out = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                out[p] -= self.span_end[i] - self.span_start[i]
        return out

    def summary(self) -> tuple[Counter, dict[str, float]]:
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for nid, st in zip(self.span_name, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += st
        return calls, self_s

    def compositions_under_convolve(self) -> int:
        """substitute_into_shifted spans with a convolve span above them."""
        target = self._name_ids.get("series.substitute_into_shifted")
        conv = {i for n, i in self._name_ids.items() if n.startswith("convolve.")}
        total = 0
        for i, nid in enumerate(self.span_name):
            if nid != target:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] not in conv:
                p = self.span_parent[p]
            total += p >= 0
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "parent", "request", "start", "end"],
                    "spans": list(
                        zip(self.span_name, self.span_parent, self.span_request,
                            self.span_start, self.span_end)
                    ),
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Counters taken at the span boundaries
# ---------------------------------------------------------------------------

def _after_mul(tr: Tracer, args, result) -> None:
    n = result.order
    series_by_series = hasattr(args[1], "coeffs")
    tr.counts["series.coeff_mults"] += (n + 1) * (n + 2) // 2 if series_by_series else n + 1


def _after_reciprocal(tr: Tracer, args, result) -> None:
    n = result.order
    tr.counts["series.coeff_mults"] += n * (n + 1) // 2 + n


def _after_substitute(tr: Tracer, args, result) -> None:
    bits = _bits(result.coeffs)
    if bits > tr.max_bits["series"]:
        tr.max_bits["series"] = bits


def _after_moments_to_jacobi(tr: Tracer, args, result) -> None:
    bits = _bits(result.alpha + result.omega)
    if bits > tr.max_bits["measures"]:
        tr.max_bits["measures"] = bits


def _after_apply(tr: Tracer, args, result) -> None:
    tr.counts["opmodel.apply.entries_scanned"] += len(args[0].entries)


AFTER = {
    "series.mul": _after_mul,
    "series.reciprocal": _after_reciprocal,
    "series.substitute_into_shifted": _after_substitute,
    "measures.moments_to_jacobi": _after_moments_to_jacobi,
    "opmodel.apply": _after_apply,
}


def _public_callables(mod):
    for name, obj in vars(mod).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap the layers of the already imported ``freeconv`` package."""
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules["freeconv." + layer]
        for name, obj in list(_public_callables(mod)):
            span = f"{layer}.{name}"
            wrapped[id(obj)] = (obj, tracer.wrap(span, obj, AFTER.get(span)))

    namespaces = [m for n, m in sys.modules.items() if n == "freeconv" or n.startswith("freeconv.")]
    for mod in namespaces:
        for key, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
            elif isinstance(value, dict):  # dispatch tables such as convolve._OPS
                for k, v in list(value.items()):
                    hit = wrapped.get(id(v))
                    if hit is not None and hit[0] is v:
                        value[k] = hit[1]

    for layer, cls_name, attr, span in METHODS:
        cls = getattr(sys.modules["freeconv." + layer], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, AFTER.get(span))))
        else:
            setattr(cls, attr, tracer.wrap(span, raw, AFTER.get(span)))
