"""Per-layer tracing of degderange, installed from outside the package.

The program has no tracing of its own, so this module wraps the public
functions of each of its six modules (and the methods of ``Series`` and
``Poly``) and rebinds every name that refers to them, in every degderange
namespace: ``identities`` and ``probability`` bind sequence functions by name
at import, so patching only the defining module would miss their calls.

Two kinds of record are kept:

* aggregates (call count and self time) for every wrapped call;
* spans (name, start, end, parent span, request) only for the coarse
  boundaries -- ``cli.main``, the ``identities`` entry points, ``series`` and
  ``probability`` -- because a span per scalar ``sequences``/``exactcore``
  call would multiply the traced run time.

A layer's self time is the time inside its wrapped calls minus the time of
wrapped calls of any layer nested inside them.  Fraction arithmetic written
inline in a module counts as that module's self time.  The snippets of a
running ``HostClock`` count in no layer.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "identities", "sequences", "series", "exactcore", "probability")

# Coarse layers get one span per call; the rest are aggregated only.
SPAN_LAYERS = {"cli", "identities", "series", "probability"}
# The density runs once per quadrature node: aggregate only.
NO_SPAN = {"probability.deg_gamma_pdf"}


def _value_bits(v) -> int:
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return abs(v).bit_length()
    coeffs = getattr(v, "coeffs", None)  # Poly
    if coeffs is not None:
        return max((_value_bits(c) for c in coeffs), default=0)
    return 0


class _NoClock:
    snippet_s = 0.0


class Tracer:
    def __init__(self, clock=None):
        self.clock = clock or _NoClock()
        self.enabled = False
        self.request = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self._frames: list[list[float]] = []  # [child seconds] per open call
        self._span_stack: list[int] = []
        self._seq_seen: set = set()
        self.seq_repeats = 0
        self.max_value_bits = 0
        self.max_order = 0
        self.quad_calls = 0
        self.quad_neval = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, observe=None):
        tracer = self
        frames = self._frames
        span_stack = self._span_stack
        calls = self.calls
        self_s = self.self_s
        clock = self.clock
        qualname = f"{layer}.{name}"
        spans = layer in SPAN_LAYERS and qualname not in NO_SPAN

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if spans:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on exit
                parent = span_stack[-1] if span_stack else -1
                span_stack.append(span_id)
            paused = clock.snippet_s
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                dur = end - start - (clock.snippet_s - paused)
                self_s[layer] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                calls[layer] += 1
                if spans:
                    span_stack.pop()
                    tracer.spans[span_id] = (span_id, parent, tracer.request, qualname, start, end)
            if observe is not None:
                observe(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_sequences(self, name, args, kwargs, result):
        key = (name, args, tuple(sorted(kwargs.items())))
        if key in self._seq_seen:
            self.seq_repeats += 1
        else:
            self._seq_seen.add(key)
        bits = _value_bits(result)
        if bits > self.max_value_bits:
            self.max_value_bits = bits

    def _observe_series(self, name, args, kwargs, result):
        if name == "__init__" and args[0].order > self.max_order:
            self.max_order = args[0].order

    def install(self, package) -> None:
        """Wrap every public function and Series/Poly method of ``package``.

        The wrappers stay for the life of the process; ``enabled`` switches
        recording on and off around the operations being measured.
        """
        import importlib

        import scipy.integrate

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        observers = {"sequences": self._observe_sequences, "series": self._observe_series}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (
                    callable(obj)
                    and not name.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not isinstance(obj, type)
                ):
                    replaced[id(obj)] = self._wrap(layer, name, obj, observers.get(layer))
        for layer, cls in (("series", modules["series"].Series), ("exactcore", modules["exactcore"].Poly)):
            for name, attr in list(vars(cls).items()):
                if name in ("__setattr__", "__repr__", "__hash__", "__eq__", "__slots__"):
                    continue
                if isinstance(attr, classmethod):
                    new = classmethod(self._wrap(layer, name, attr.__func__, observers.get(layer)))
                elif callable(attr):
                    new = self._wrap(layer, name, attr, observers.get(layer))
                else:
                    continue
                setattr(cls, name, new)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        quad = scipy.integrate.quad

        def counted_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            if self.enabled:
                self.quad_calls += 1
                if kwargs.get("full_output"):
                    self.quad_neval += out[2]["neval"]
            return out

        scipy.integrate.quad = counted_quad

    # -- results ----------------------------------------------------------

    def case_durations_us(self) -> list[float]:
        return [
            (s[5] - s[4]) * 1e6 for s in self.spans if s is not None and s[3] == "identities.verify"
        ]

    def metrics(self) -> dict:
        cases = sorted(self.case_durations_us())
        if cases:  # nearest-rank percentiles
            p50, p99 = statistics.median(cases), cases[math.ceil(0.99 * len(cases)) - 1]
        else:
            p50 = p99 = 0.0
        seq_calls = self.calls["sequences"]
        return {
            "identities.cases": (len(cases), "count"),
            "identities.self_s": (self.self_s["identities"], "s"),
            "identities.case_p50_us": (p50, "us"),
            "identities.case_p99_us": (p99, "us"),
            "sequences.calls": (seq_calls, "count"),
            "sequences.repeat_ratio": (self.seq_repeats / seq_calls if seq_calls else 0.0, "ratio"),
            "sequences.self_s": (self.self_s["sequences"], "s"),
            "sequences.max_value_bits": (self.max_value_bits, "bits"),
            "series.calls": (self.calls["series"], "count"),
            "series.self_s": (self.self_s["series"], "s"),
            "series.max_order": (self.max_order, "count"),
            "exactcore.calls": (self.calls["exactcore"], "count"),
            "exactcore.self_s": (self.self_s["exactcore"], "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
            "probability.calls": (self.calls["probability"], "count"),
            "probability.self_s": (self.self_s["probability"], "s"),
            "probability.quad_calls": (self.quad_calls, "count"),
            "probability.quad_neval": (self.quad_neval, "count"),
        }

    def write_spans(self, path: str) -> None:
        fields = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": [s for s in self.spans if s is not None]}, fh)
