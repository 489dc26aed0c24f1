"""One pass of one workload, in a fresh process.

Usage: python3 -I perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the inputs, then stop), ``plain``
(one timed pass) or ``traced`` (one timed pass with spans installed).
The library under test is the ``src/`` beside ``perfbench/``.  The
worker prints one JSON line: the ``time.monotonic()`` reading when set-up
ended, which the parent compares with its own reading at spawn, and for
a pass its timings, outputs' verdicts and environment.  Set-up is the
import of the library and the generation of the inputs, nothing more.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    import mpmath
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import skewenergy

    if Path(skewenergy.__file__).resolve().parent != ROOT / "src" / "skewenergy":
        print(f"error: imported skewenergy from {skewenergy.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.ops(seed)
    recorder = None
    if mode == "traced":
        recorder = spans.Recorder()
        spans.install(recorder)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    outs, op_s, problems = [], [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outs.append(workload.run(op))
        except Exception:
            outs.append(None)
            problems.append(traceback.format_exc())
        op_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start

    verdicts = workload.check_all(ops, outs)
    failed = sum(bool(found) for found in verdicts)
    items = sum(workload.items(out) for out, found in zip(outs, verdicts) if not found)
    problems += [f"{op!r}: " + "; ".join(found) for op, found in zip(ops, verdicts) if found]
    for text in problems[:20]:
        print(f"gate: {text}", file=sys.stderr)

    result = {
        "ready": ready,
        "wall_s": wall,
        "op_s": op_s,
        "attempted": len(ops),
        "failed": failed,
        "items": items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
        result["covered_s"] = recorder.self_total()
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(recorder.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
