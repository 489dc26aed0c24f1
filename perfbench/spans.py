"""In-memory spans around the library's public names, for the traced run.

``install`` replaces each public name at every place a caller looks it
up (for example ``skewenergy.cli.verify_theorem_1``, which the CLI calls,
and ``skewenergy.extremal.orientation_coefficient_census``, which
``verify_theorem_1`` calls) with a wrapper that records a span: name,
start, end and the span that was open when it began.  Some wrappers
also add counters read off the call's result, such as the number of
classes an enumeration returned.  Nothing is wrapped in an untraced
run, so its timings carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import time


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                for key, value in count(result).items():
                    self.add(f"{name}.{key}", value)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        if ".max_" in key:
            self.counters[key] = max(self.counters.get(key, value), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def summary(self) -> dict[str, float]:
        """Per span name: total seconds ``s``, ``self_s`` and ``calls``; plus counters.

        Self time is a span's duration minus the durations of its direct
        children.  Spans run on one thread, so children never overlap and
        that difference is the time no child span covers.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out.update(self.counters)
        return out

    def self_total(self) -> float:
        """Sum of every span's self time: the pass time some span covers."""
        return sum(
            end - start for name, start, end, parent in self.spans if parent is None
        )


def _census_counts(census) -> dict:
    return {"orientations": sum(census.values()), "distinct": len(census)}


# (span name, the (module, attribute) places callers look the name up, counter)
TARGETS = [
    ("cli.verify", [("skewenergy.cli", "main")], None),
    ("extremal.verify", [("skewenergy.cli", "verify_theorem_1")], None),
    (
        "extremal.enumerate",
        [("skewenergy.extremal", "enumerate_connected_underlying")],
        lambda classes: {"classes": len(classes)},
    ),
    (
        "extremal.census",
        [("skewenergy.extremal", "orientation_coefficient_census")],
        _census_counts,
    ),
    (
        "extremal.quad_bound",
        [
            ("skewenergy.extremal", "verify_quadrangle_bound"),
            ("skewenergy.extremal", "verify_quadrangle_bound_max_degree"),
        ],
        None,
    ),
    ("subgraphs.count_quadrangles", [("skewenergy.extremal", "count_quadrangles")], None),
    ("subgraphs.expansion", [("skewenergy.subgraphs", "coefficient_by_expansion")], None),
    ("subgraphs.a4_bound", [("skewenergy.subgraphs", "a4_bound_check")], None),
    (
        "charpoly.charpoly",
        [
            ("skewenergy.charpoly", "charpoly"),
            ("skewenergy.energy", "charpoly"),
            ("skewenergy.extremal", "charpoly"),
        ],
        None,
    ),
    ("charpoly.quasi_compare", [("skewenergy.extremal", "quasi_compare")], None),
    (
        "energy.report",
        [("skewenergy.energy", "energy_report")],
        lambda rep: {"max_discrepancy": rep.discrepancy},
    ),
    ("energy.spectral", [("skewenergy.energy", "skew_energy_spectral")], None),
    (
        "energy.integral",
        [("skewenergy.energy", "skew_energy_integral")],
        lambda res: {"nodes": res.nodes},
    ),
    ("energy.float_roots", [("skewenergy.extremal", "energy_from_even_coeffs")], None),
    ("energy.precise", [("skewenergy.extremal", "energy_from_even_coeffs_precise")], None),
    ("graphs.roundtrip", [("workloads", "roundtrip")], None),
]


def install(recorder: Recorder) -> None:
    """Wrap every target name in place for the rest of this process."""
    for name, places, count in TARGETS:
        for module_name, attr in places:
            module = importlib.import_module(module_name)
            setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))
