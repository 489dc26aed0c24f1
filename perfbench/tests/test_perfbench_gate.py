"""The benchmark's own tests: its gate can say fail, and its metric names are declared.

Run from the root of a checkout with:  python3 -m pytest -q perfbench/tests
"""

import copy
import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from skewenergy.charpoly import SkewCharPoly  # noqa: E402
from skewenergy.graphs import construct_o_plus  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def certify_5_5():
    argv = workloads.certify_ops(5, (5,))[0]
    out = workloads.run_certify(argv)
    return argv, out, {workloads.certify_key(argv): copy.deepcopy(out)}


def test_certify_gate_passes_on_the_recorded_certificate(certify_5_5):
    argv, out, reference = certify_5_5
    assert out["exit_code"] == 0
    assert workloads.check_certify(argv, out, reference) == []


def test_certify_gate_fails_on_a_tampered_reference(certify_5_5):
    argv, out, reference = certify_5_5
    key = workloads.certify_key(argv)
    tampered = copy.deepcopy(reference)
    tampered[key]["stdout"] = tampered[key]["stdout"].replace('"pass"', '"fail"')
    assert tampered[key]["stdout"] != out["stdout"]
    assert workloads.check_certify(argv, out, tampered)
    tampered = copy.deepcopy(reference)
    tampered[key]["exit_code"] = 1
    assert workloads.check_certify(argv, out, tampered)
    assert workloads.check_certify(argv, out, {})


def test_bounds_gate_fails_on_a_changed_count():
    op = workloads.bounds_ops(6, (7,))[0]
    out = workloads.run_bounds(op)
    reference = {workloads.bounds_key(op): dict(out)}
    assert workloads.check_bounds(op, out, reference) == []
    reference[workloads.bounds_key(op)]["witnesses_checked"] += 1
    assert workloads.check_bounds(op, out, reference)
    reference[workloads.bounds_key(op)] = dict(out, passed=not out["passed"])
    assert workloads.check_bounds(op, out, reference)


def test_recorded_references_cover_every_operation():
    certify = workloads.load_reference("certify_n8")
    bounds = workloads.load_reference("bounds_n9")
    assert {workloads.certify_key(a) for a in workloads.certify_ops()} == set(certify)
    assert {workloads.bounds_key(op) for op in workloads.bounds_ops()} == set(bounds)
    assert all(entry["exit_code"] == 0 for entry in certify.values())
    assert all(entry["passed"] for entry in bounds.values())


def test_corpus_gate_fails_on_a_corrupted_coefficient():
    g = construct_o_plus(5, 5)
    out = workloads.run_corpus(g)
    assert workloads.check_corpus(g, out) == []
    coeffs = list(out["poly"].coeffs)
    coeffs[-1] += 1
    corrupted = dict(out, poly=SkewCharPoly(g.n, tuple(coeffs)))
    assert any("expansion" in p for p in workloads.check_corpus(g, corrupted))
    coeffs = list(out["poly"].coeffs)
    coeffs[1] += 2
    corrupted = dict(out, poly=SkewCharPoly(g.n, tuple(coeffs)))
    assert any("a_2" in p for p in workloads.check_corpus(g, corrupted))


def test_corpus_gate_fails_on_disagreeing_energies():
    g = construct_o_plus(6, 7)
    out = workloads.run_corpus(g)
    for change in ({"discrepancy": 1e-3}, {"tolerance_met": False}):
        spoiled = dict(out, energy=dataclasses.replace(out["energy"], **change))
        assert any("energy" in p for p in workloads.check_corpus(g, spoiled))


def test_corpus_is_seeded_and_mixed():
    first, again, other = (workloads.corpus_ops(s) for s in (1, 1, 2))
    assert first == again and first != other
    assert len(first) >= 1000
    sizes = [g.n for g in first]
    assert min(sizes) == 4 and max(sizes) == 20
    assert sum(n >= 16 for n in sizes) >= 100
    assert sum(g.m == g.n - 1 for g in first) >= 300


def test_spans_nest_and_self_times_partition_the_root():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: inner() + inner(), count=lambda r: {"total": r})
    outer()
    summary = rec.summary()
    assert summary["inner.calls"] == 2 and summary["outer.calls"] == 1
    assert summary["outer.total"] == 2 * sum(range(1000))
    self_sum = summary["inner.self_s"] + summary["outer.self_s"]
    assert self_sum == pytest.approx(summary["outer.s"])
    assert rec.self_total() == pytest.approx(summary["outer.s"])


def _fake_pass(wall):
    return {
        "wall_s": wall,
        "items": 100,
        "peak_rss_mb": 40.0,
        "covered_s": wall * 0.9,
        "layers": {"extremal.census.orientations": 10, "extremal.census.distinct": 2},
    }


def test_printed_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    metrics = run.end_to_end_metrics([_fake_pass(1.0), _fake_pass(1.2)], [0.2] * 5)
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = run.per_layer_metrics([_fake_pass(1.0)], [_fake_pass(1.1)])
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert metrics["extremal.census.distinct_ratio"]["value"] == pytest.approx(0.2)
    assert metrics["trace.overhead_frac"]["value"] == pytest.approx(0.1)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_span_target_exists():
    for _, places, _ in spans.TARGETS:
        for module_name, attr in places:
            assert callable(getattr(importlib.import_module(module_name), attr))
