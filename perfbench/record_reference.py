"""Record the reference outputs that the exhaustive workloads are gated on.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

Writes ``reference/certify_n8.json`` (certificate text and exit code of
each ``verify`` call) and ``reference/bounds_n9.json`` (witnesses checked
and verdict of each bound check).  Run it only on a commit whose
certificates are trusted; the recorded files are then the gate that later
commits must match byte for byte.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    certify = {
        workloads.certify_key(argv): workloads.run_certify(argv) for argv in workloads.certify_ops()
    }
    bounds = {workloads.bounds_key(op): workloads.run_bounds(op) for op in workloads.bounds_ops()}
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, data in (("certify_n8", certify), ("bounds_n9", bounds)):
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
