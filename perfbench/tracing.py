"""Benchmark-side layer tracing.

Each layer of the program is timed by wrapping its public entry points
*from the benchmark*: :class:`LayerHooks` swaps a traced wrapper into
the module or class attribute the program calls through, records one
``repro.telemetry`` span per call (named after the layer, with the
wrapped function and the lane count as attributes) and restores the
original on :meth:`LayerHooks.uninstall`.  Nothing under ``src/``
changes, and an untraced round runs the original functions.

A wrapper does not open a second span for a call nested inside the same
layer (``match_with_timing_batch`` calling ``match_batch``), so a
layer's busy time is the plain sum of its span durations; self time is
busy time minus the nested spans of *other* layers.
"""

from __future__ import annotations

import functools
import importlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable


def _one(args, kwargs) -> int:
    return 1


def _rows(position: int, name: str) -> Callable[..., int]:
    """Lane count = leading dimension of an array argument."""

    def lanes(args, kwargs) -> int:
        value = kwargs[name] if name in kwargs else args[position]
        return int(value.shape[0])

    return lanes


def _param_rows(position: int, name: str) -> Callable[..., int]:
    """Lane count of a stacked ``{"size": (B, V), ...}`` parameter dict,
    or of an assignment sequence passed in its place."""

    def lanes(args, kwargs) -> int:
        value = kwargs.get(name, args[position] if len(args) > position else None)
        if value is None:
            return len(kwargs.get("assignments") or args[position - 1])
        return int(value["size"].shape[0])

    return lanes


#: ``(layer, module, class or None, attribute, lane counter or None)``.
#: Functions are patched in the module the program calls them from, so
#: the same helper called by another layer (the matcher's timing walk)
#: is not attributed here.
HOOKS: tuple[tuple[str, str, str | None, str, Callable | None], ...] = (
    ("table_builder", "repro.tech.table_builder", "TechnologyTables",
     "stacked_values", None),
    ("engine.p_matrix", "repro.engine.engine", "AnalysisEngine",
     "p_matrix", None),
    ("engine.masking_structure", "repro.engine.engine", "AnalysisEngine",
     "masking_structure", None),
    ("engine.sweep_plan", "repro.engine.engine", "AnalysisEngine",
     "sweep_plan", None),
    ("electrical_view", "repro.core.aserta", "AsertaAnalyzer",
     "electrical_view", _one),
    ("electrical_view", "repro.core.aserta", None,
     "batched_electrical_arrays", _param_rows(2, "params")),
    ("electrical_view", "repro.core.aserta", None,
     "stack_cell_param_arrays", None),
    ("electrical_view", "repro.core.aserta", None,
     "default_sample_widths", None),
    ("electrical_view", "repro.core.aserta", None,
     "default_sample_widths_batch", None),
    ("sweep", "repro.core.aserta", None, "electrical_masking", _one),
    ("sweep", "repro.core.aserta", None, "electrical_masking_many",
     _rows(1, "delays")),
    ("reduce", "repro.core.aserta", None, "gate_contributions", None),
    ("reduce", "repro.core.aserta", None, "total_unreliability", None),
    ("reduce", "repro.core.aserta", None, "build_report_from_arrays", None),
    ("reduce", "repro.core.aserta", None, "analyze_timing_batch", None),
    ("reduce", "repro.core.aserta", None, "circuit_energy_batch", None),
    ("baseline", "repro.core.sertopt", None, "size_for_speed", None),
    ("matching", "repro.core.matching", "MatchingEngine", "match", _one),
    ("matching", "repro.core.matching", "MatchingEngine",
     "match_with_timing", _one),
    ("matching", "repro.core.matching", "MatchingEngine", "match_batch",
     _rows(1, "targets")),
    ("matching", "repro.core.matching", "MatchingEngine",
     "match_with_timing_batch", _rows(1, "targets")),
    ("cost", "repro.core.cost", "CostEvaluator", "__init__", None),
    ("cost", "repro.core.cost", "CostEvaluator", "evaluate", _one),
    ("cost", "repro.core.cost", "CostEvaluator", "evaluate_batch",
     _param_rows(2, "params")),
    ("delay_space", "repro.core.delay_assignment", "DelaySpace",
     "__init__", None),
    ("delay_space", "repro.core.delay_assignment", "DelaySpace",
     "describe", None),
    ("optimizer", "repro.core.sertopt", None, "run_optimizer", None),
    ("store", "repro.campaign.store", "ResultStore", "__init__", None),
    ("store", "repro.campaign.store", "ResultStore", "add", _one),
    ("store", "repro.campaign.store", "ResultStore", "digests", None),
)


class LayerHooks:
    """Install/uninstall traced wrappers for a set of layers.

    Layers are selected by name prefix (``"engine"`` selects all three
    engine layers).  A hook whose target no longer exists is reported in
    :attr:`missing` instead of failing the run, so a refactor that moves
    a function shows up as an unhooked layer in the report.
    """

    def __init__(self, tracer, layers: Iterable[str]) -> None:
        self.tracer = tracer
        prefixes = tuple(layers)
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.missing: list[str] = []
        depth: dict[str, int] = {}
        for layer, module_name, owner_name, attr, lanes in HOOKS:
            if not layer.startswith(prefixes):
                continue
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            original = (
                owner.__dict__.get(attr) if owner is not None else None
            )
            if original is None:
                self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            depth.setdefault(layer, 0)
            wrapper = self._wrap(original, layer, attr, lanes, depth)
            self._patches.append((owner, attr, original, wrapper))
        self.installed = False

    def _wrap(self, original, layer, attr, lanes, depth):
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if depth[layer]:
                return original(*args, **kwargs)
            attrs = {"fn": attr}
            if lanes is not None:
                attrs["lanes"] = lanes(args, kwargs)
            depth[layer] += 1
            try:
                with tracer.span(layer, **attrs):
                    return original(*args, **kwargs)
            finally:
                depth[layer] -= 1

        return traced

    def install(self) -> None:
        if not self.installed:
            for owner, attr, __, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, __ in self._patches:
                setattr(owner, attr, original)
            self.installed = False


def union_seconds(
    intervals: Iterable[tuple[int, int]], start_ns: int, end_ns: int
) -> float:
    """Length of the union of ``intervals`` clipped to one window, s."""
    clipped = sorted(
        (max(a, start_ns), min(b, end_ns))
        for a, b in intervals
        if b > start_ns and a < end_ns
    )
    covered = 0
    cursor = start_ns
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            covered += b - a
            cursor = b
    return covered / 1e9


def layer_table(spans, windows: list[tuple[int, int]], layers) -> dict:
    """Per-layer busy/self seconds, call and lane counts over the spans
    that start inside any of ``windows``.

    Self time subtracts direct child spans (any layer) — the telemetry
    exporter's :func:`~repro.telemetry.aggregate_spans` rule.
    """
    from repro.telemetry import aggregate_spans

    inside = [
        span
        for span in spans
        if span.name in layers
        and any(a <= span.start_ns < b for a, b in windows)
    ]
    table = {
        name: {**stats, "lanes": 0, "by_fn": {}}
        for name, stats in aggregate_spans(inside).items()
    }
    for span in inside:
        entry = table[span.name]
        entry["lanes"] += span.attrs.get("lanes", 0)
        fn = span.attrs.get("fn", "")
        entry["by_fn"][fn] = entry["by_fn"].get(fn, 0.0) + span.duration_s
    return table


def coverage(spans, windows: list[tuple[int, int]], layers) -> float:
    """Share of the windows' wall time covered by layer spans."""
    intervals = [
        (span.start_ns, span.end_ns) for span in spans if span.name in layers
    ]
    total = sum(b - a for a, b in windows) / 1e9
    if total <= 0.0:
        return 0.0
    return sum(union_seconds(intervals, a, b) for a, b in windows) / total


def export_chrome_trace(spans, path: Path, metadata: dict) -> list[str]:
    """Write the Chrome trace of ``spans`` and return the schema
    problems found when reading it back (empty = valid)."""
    from repro.telemetry import validate_chrome_trace, write_chrome_trace

    write_chrome_trace(path, spans, metadata)
    return validate_chrome_trace(json.loads(path.read_text(encoding="utf-8")))
