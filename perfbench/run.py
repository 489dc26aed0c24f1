"""Benchmark of the skewenergy certifier.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-n8 --seed 1 --seconds 40 --trace 0

Workloads: ``certify-n8``, ``bounds-n9`` and ``oracle-corpus``; see
``workloads.py`` and ``BENCHMARK.json``.  Each timed pass runs in a
fresh worker process (``worker.py``), one at a time, single-threaded,
with the BLAS thread count pinned to 1, so every pass starts with cold
library caches as a ``skewenergy verify`` call does.  Passes repeat while
another one fits in ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics taken from
the spans of the traced ones, with the tracing overhead.  Every output is
checked against the workload's gate; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and
the exit code is 0 only when no operation failed.  The command exits
with code 2 and prints no result when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# what items_per_s counts on each workload
WORKLOADS = {
    "certify-n8": "labelled orientations scanned",
    "bounds-n9": "classes checked",
    "oracle-corpus": "graphs",
}
SEED_INDEPENDENT = ("certify-n8", "bounds-n9")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "extremal.verify.s": "s",
    "extremal.verify.self_s": "s",
    "extremal.enumerate.s": "s",
    "extremal.enumerate.calls": "count",
    "extremal.enumerate.classes": "count",
    "extremal.census.s": "s",
    "extremal.census.calls": "count",
    "extremal.census.orientations": "count",
    "extremal.census.distinct": "count",
    "extremal.census.distinct_ratio": "ratio",
    "extremal.quad_bound.s": "s",
    "extremal.quad_bound.self_s": "s",
    "subgraphs.count_quadrangles.s": "s",
    "subgraphs.count_quadrangles.calls": "count",
    "subgraphs.expansion.s": "s",
    "subgraphs.expansion.calls": "count",
    "subgraphs.a4_bound.s": "s",
    "subgraphs.a4_bound.calls": "count",
    "charpoly.charpoly.s": "s",
    "charpoly.charpoly.calls": "count",
    "charpoly.quasi_compare.calls": "count",
    "energy.integral.s": "s",
    "energy.integral.calls": "count",
    "energy.integral.nodes": "count",
    "energy.spectral.s": "s",
    "energy.float_roots.s": "s",
    "energy.float_roots.calls": "count",
    "energy.precise.calls": "count",
    "energy.report.max_discrepancy": "abs",
    "graphs.roundtrip.s": "s",
    "graphs.roundtrip.calls": "count",
    "cli.verify.self_s": "s",
    "trace.wall_s": "s",
    "trace.covered_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    """A worker process failed to start, crashed or ran too long."""


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one worker to completion; its result plus the measured set-up time."""
    env = dict(os.environ, **{k: "1" for k in PINNED_THREADS})
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, "-I", str(WORKER), workload, str(seed), mode],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"{workload} {mode} worker ran past {timeout:.0f} s") from None
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise WorkerError(f"{workload} {mode} worker exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def run_passes(workload: str, seed: int, seconds: float, modes: tuple[str, ...]) -> dict:
    """Repeat the group of passes ``modes`` while another group fits in ``seconds``.

    Then top the set-up samples up to SETUP_SAMPLES with set-up-only
    workers.  Returns the pass results per mode and all set-up times.
    """
    begin = time.monotonic()
    deadline = begin + seconds
    results: dict[str, list[dict]] = {mode: [] for mode in modes}
    setups: list[float] = []
    longest_group = 0.0
    while True:
        group_start = time.monotonic()
        for mode in modes:
            res = spawn(workload, seed, mode, begin + RUN_LIMIT_S - time.monotonic())
            results[mode].append(res)
            setups.append(res["setup_s"])
        longest_group = max(longest_group, time.monotonic() - group_start)
        setup_reserve = max(0, SETUP_SAMPLES - len(setups)) * max(setups) * 1.5
        if time.monotonic() + longest_group + setup_reserve > deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", begin + RUN_LIMIT_S - time.monotonic())["setup_s"])
    return {"results": results, "setups": setups}


def end_to_end_metrics(passes: list[dict], setups: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def graph_latency(passes: list[dict]) -> str:
    """Median and 99th percentile of per-graph latency, with the sample count."""
    ms = [1000 * t for p in passes for t in p["op_s"]]
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98]
    return f"graph_p50_ms {statistics.median(ms):.6g} ms; graph_p99_ms {p99:.6g} ms ({len(ms)} samples)"


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    def med(key: str) -> float:
        return statistics.median(p["layers"].get(key, 0) for p in traced)

    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values = {key: med(key) for key in PER_LAYER}
    orientations = values["extremal.census.orientations"]
    values["extremal.census.distinct_ratio"] = (
        values["extremal.census.distinct"] / orientations if orientations else 0.0
    )
    values["trace.wall_s"] = traced_wall
    values["trace.covered_frac"] = statistics.median(p["covered_s"] / p["wall_s"] for p in traced)
    values["trace.overhead_frac"] = traced_wall / statistics.median(p["wall_s"] for p in plain) - 1
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewenergy" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src' / 'skewenergy'}", file=sys.stderr)
        return 2
    modes = ("plain", "traced") if args.trace else ("plain",)
    try:
        run = run_passes(args.workload, args.seed, args.seconds, modes)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = run["results"]
    passes = [p for mode in modes for p in results[mode]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = per_layer_metrics(results["plain"], results["traced"])
    else:
        metrics = end_to_end_metrics(results["plain"], run["setups"])

    seed_note = " (exhaustive: the input does not depend on the seed)" if args.workload in SEED_INDEPENDENT else ""
    print(f"workload {args.workload} seed {args.seed}{seed_note}")
    print(f"environment {json.dumps(passes[0]['environment'], sort_keys=True)}")
    print(
        f"passes {' + '.join(f'{len(results[m])} {m}' for m in modes)}; "
        f"{passes[0]['attempted']} operations and {passes[0]['items']} "
        f"{WORKLOADS[args.workload]} per pass; {len(run['setups'])} set-up samples"
    )
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if args.workload == "oracle-corpus":
        print(graph_latency(results["plain"]))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
