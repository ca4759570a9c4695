"""In-memory span tracer for the multicover layers.

``install`` wraps the public functions of each layer module, in the
defining module and wherever another multicover module imported the same
object, so a call made through any of those names opens a span.  Spans are
``(name, start, end, parent)`` records kept in memory and written out once,
when the traced process ends; ``layer_report`` turns them into per-layer
self times and counts.

``AlphaMonomial`` and ``Fraction`` arithmetic is deliberately not wrapped:
it runs millions of times per degree and would swamp the trace.  Its cost
lands in the self time of whichever layer called it.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("fixedpoints", "contributions", "localize", "exact", "cli")

# Public functions wrapped in each layer module.
WRAPPED = {
    "fixedpoints": (
        "enumerate_chains",
        "enumerate_configurations",
        "source_tangent_weight",
        "base_tangent_weight",
        "transition",
    ),
    "contributions": (
        "base_contribution",
        "ruled_contribution",
        "end_contribution",
        "psi_integral",
        "node_smoothing",
    ),
    "localize": (
        "chain_factors",
        "configuration_contribution",
        "side_sum",
        "multiple_cover_invariant",
    ),
    "exact": ("factorize", "is_prime", "format_factored", "parse_factored"),
    "cli": ("main",),
}

# Spans whose inclusive time is reported as parsing.
PARSE_SPANS = ("exact.parse_factored", "exact.from_text")


class Tracer:
    """Span list plus the counters that need a look at arguments or results."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._stack: list = []
        self.counters = {
            "fixedpoints.candidates": 0,
            "fixedpoints.kept": 0,
            "fixedpoints.chains": 0,
            "exact.max_factor_bits": 0,
        }
        self._contribution_args: set = set()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(args, result, caller)`` runs once the call returns, outside
        the span's clock, with ``caller`` the calling function's code name.
        """
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, result, sys._getframe(1).f_code.co_name)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _on_tangent_weight(self, args, result, caller):
        # _extend asks for NODE_IN once per candidate row it examines
        if caller == "_extend" and args[1].value == "in":
            self.counters["fixedpoints.candidates"] += 1

    def _on_transition(self, args, result, caller):
        # _extend calls transition only on candidates that survive pruning
        if caller == "_extend":
            self.counters["fixedpoints.kept"] += 1

    def _on_chains(self, args, result, caller):
        self.counters["fixedpoints.chains"] += len(result)

    def _on_contribution(self, name):
        seen = self._contribution_args

        def after(args, result, caller):
            seen.add((name, args))

        return after

    def _on_factorize(self, args, result, caller):
        bits = max((p.bit_length() for p, _ in result), default=0)
        if bits > self.counters["exact.max_factor_bits"]:
            self.counters["exact.max_factor_bits"] = bits

    def _after_hook(self, layer: str, fn_name: str):
        if layer == "contributions":
            return self._on_contribution(fn_name)
        return {
            "source_tangent_weight": self._on_tangent_weight,
            "transition": self._on_transition,
            "enumerate_chains": self._on_chains,
            "factorize": self._on_factorize,
        }.get(fn_name)

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write names, spans and counters as one JSON document."""
        counters = dict(self.counters)
        counters["contributions.distinct_args"] = len(self._contribution_args)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans, "counters": counters},
                handle,
                separators=(",", ":"),
            )


def install(tracer: Tracer) -> None:
    """Wrap every function in ``WRAPPED`` and rebind its imported aliases."""
    import multicover.cli  # noqa: F401  (loads every layer module)

    modules = [
        module
        for name, module in sys.modules.items()
        if name == "multicover" or name.startswith("multicover.")
    ]
    replaced = {}
    for layer, fn_names in WRAPPED.items():
        module = sys.modules[f"multicover.{layer}"]
        for fn_name in fn_names:
            original = getattr(module, fn_name)
            replaced[id(original)] = tracer.wrap(
                f"{layer}.{fn_name}", original, tracer._after_hook(layer, fn_name)
            )
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])
    rational = sys.modules["multicover.exact"].FactoredRational
    rational.from_text = classmethod(
        tracer.wrap("exact.from_text", rational.from_text.__func__)
    )


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_report(traces, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time is ``wall_s``.

    ``traces`` holds one ``(names, spans, counters)`` triple per traced
    process of the pass.  Layer busy times are self times, so they and
    ``other.busy_s`` (traced time no span covers) add up to ``wall_s``.
    """
    busy = {layer: 0.0 for layer in LAYERS}
    self_s: dict = {}
    total_s: dict = {}
    calls: dict = {}
    counters: dict = {}
    for names, span_list, trace_counters in traces:
        for (name_id, start, end, _), own in zip(span_list, self_times(span_list)):
            name = names[name_id]
            busy[name.split(".", 1)[0]] += own
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
        for key, value in trace_counters.items():
            merge = max if key == "exact.max_factor_bits" else sum
            counters[key] = merge((counters.get(key, 0), value))

    def count(layer):
        return sum(calls.get(f"{layer}.{n}", 0) for n in WRAPPED[layer])

    contribution_calls = count("contributions")
    distinct = counters.get("contributions.distinct_args", 0)
    candidates = counters.get("fixedpoints.candidates", 0)
    kept = counters.get("fixedpoints.kept", 0)
    return {
        "fixedpoints.busy_s": busy["fixedpoints"],
        "fixedpoints.calls": count("fixedpoints"),
        "fixedpoints.chains": counters.get("fixedpoints.chains", 0),
        "fixedpoints.candidates": candidates,
        "fixedpoints.kept_ratio": kept / candidates if candidates else 0.0,
        "contributions.busy_s": busy["contributions"],
        "contributions.calls": contribution_calls,
        "contributions.distinct_args": distinct,
        "contributions.reuse_x": contribution_calls / distinct if distinct else 0.0,
        "localize.busy_s": busy["localize"],
        "localize.chain_factors_calls": calls.get("localize.chain_factors", 0),
        "localize.configurations": calls.get("localize.configuration_contribution", 0),
        "exact.busy_s": busy["exact"],
        "exact.factorize_busy_s": self_s.get("exact.factorize", 0.0),
        "exact.factorize_calls": calls.get("exact.factorize", 0),
        "exact.is_prime_calls": calls.get("exact.is_prime", 0),
        "exact.format_busy_s": self_s.get("exact.format_factored", 0.0),
        "exact.parse_busy_s": sum(total_s.get(n, 0.0) for n in PARSE_SPANS),
        "exact.max_factor_bits": counters.get("exact.max_factor_bits", 0),
        "cli.busy_s": busy["cli"],
        "other.busy_s": wall_s - sum(busy.values()),
        "trace.wall_s": wall_s,
    }


def load(path: str):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return doc["names"], doc["spans"], doc["counters"]
