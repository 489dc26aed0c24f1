"""The benchmark's three workloads: inputs, one pass, and the correctness gate.

Each workload is a list of operations.  Its ``run`` performs one
operation through the library's public functions and returns the raw
output; its ``check`` compares that output with what the workload
demands and returns a list of failure messages, empty when it is correct.
Library functions are looked up as module attributes at call time, so
the span wrappers that ``spans.install`` puts in place during a traced
run see every call.

- ``certify-n8``: the CLI ``verify`` command at n = 8, m = 8..11.
- ``bounds-n9``: both quadrangle-bound checks at n = 9, m = 9..13.
- ``oracle-corpus``: a seeded corpus of single oriented graphs run
  through the exact, oracle and energy routes one graph at a time.

Only ``oracle-corpus`` depends on the seed; the other two are exhaustive
scans whose input is fixed by (n, m).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from math import comb
from pathlib import Path

cli = importlib.import_module("skewenergy.cli")
cp = importlib.import_module("skewenergy.charpoly")
energy = importlib.import_module("skewenergy.energy")
extremal = importlib.import_module("skewenergy.extremal")
graphs = importlib.import_module("skewenergy.graphs")
subgraphs = importlib.import_module("skewenergy.subgraphs")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

CERTIFY_N = 8
CERTIFY_MS = (8, 9, 10, 11)
BOUNDS_N = 9
BOUNDS_MS = (9, 10, 11, 12, 13)
BOUND_FUNCTIONS = ("verify_quadrangle_bound", "verify_quadrangle_bound_max_degree")

EXPANSION_MAX_N = 8  # exhaustive subgraph expansion is only cheap up to here
ENERGY_AGREEMENT = 1e-6
ENERGY_TOL = 1e-9


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# certify-n8
# ---------------------------------------------------------------------------

def certify_ops(n: int = CERTIFY_N, ms=CERTIFY_MS) -> list[list[str]]:
    return [["verify", "--n", str(n), "--m", str(m)] for m in ms]


def run_certify(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"stdout": buf.getvalue(), "exit_code": code}


def certify_key(argv: list[str]) -> str:
    return f"{argv[2]},{argv[4]}"


def check_certify(argv: list[str], out: dict, reference: dict) -> list[str]:
    """The certificate must be byte-identical to the recorded one, exit code too."""
    want = reference.get(certify_key(argv))
    if want is None:
        return [f"no reference certificate for (n, m) = ({certify_key(argv)})"]
    problems = []
    if out["exit_code"] != want["exit_code"]:
        problems.append(f"exit code {out['exit_code']} != reference {want['exit_code']}")
    if out["stdout"] != want["stdout"]:
        problems.append("certificate text differs from the reference")
    return problems


def certify_items(out: dict) -> int:
    """Labelled orientations the certificate says it scanned."""
    return int(json.loads(out["stdout"])["orientations_scanned"])


# ---------------------------------------------------------------------------
# bounds-n9
# ---------------------------------------------------------------------------

def bounds_ops(n: int = BOUNDS_N, ms=BOUNDS_MS) -> list[tuple[str, int, int]]:
    return [(fn, n, m) for m in ms for fn in BOUND_FUNCTIONS]


def run_bounds(op: tuple[str, int, int]) -> dict:
    fn, n, m = op
    report = getattr(extremal, fn)(n, m, max_n=n)
    return {"witnesses_checked": report.witnesses_checked, "passed": report.passed}


def bounds_key(op: tuple[str, int, int]) -> str:
    fn, n, m = op
    return f"{fn}:{n},{m}"


def check_bounds(op, out: dict, reference: dict) -> list[str]:
    want = reference.get(bounds_key(op))
    if want is None:
        return [f"no reference for {bounds_key(op)}"]
    return [
        f"{field} = {out[field]} != reference {want[field]}"
        for field in ("witnesses_checked", "passed")
        if out[field] != want[field]
    ]


def bounds_items(out: dict) -> int:
    return out["witnesses_checked"]


# ---------------------------------------------------------------------------
# oracle-corpus
# ---------------------------------------------------------------------------

def _named_graphs() -> list:
    """Every named construction at a spread of sizes; seed-independent."""
    out = []
    for n in range(5, 13):
        for m in range(n, 2 * n - 3):
            out.append(graphs.construct_o_plus(n, m))
            out.append(graphs.construct_b_plus(n, m))
    for n in range(4, 21):
        out.append(graphs.oriented_star(n))
        out.append(graphs.oriented_path(n))
    for n in range(4, 21, 2):
        out.append(graphs.oriented_cycle(n, "odd"))
        out.append(graphs.oriented_cycle(n, "even"))
    return out


def _random_connected(rng: random.Random, n: int, m: int):
    """A connected oriented graph on n vertices with m arcs."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {tuple(sorted((label[v], label[rng.randrange(v)]))) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)]
    rng.shuffle(arcs)
    return graphs.build(n, arcs)


def corpus_shapes() -> list[tuple[int, int]]:
    """The (n, m) of every random corpus graph; the same for every seed.

    Twenty trees and twenty sparse graphs (1 to n/2 edges beyond a tree)
    for each n from 4 to 20, and forty dense graphs (half to all of the
    pairs) for each n from 4 to 12: 1040 graphs, 200 of them with
    n >= 16, where charpoly takes its arbitrary-precision path.
    """
    shapes = []
    for n in range(4, 21):
        shapes += [(n, n - 1)] * 20
        shapes += [(n, n + k % (n // 2)) for k in range(20)]
    for n in range(4, 13):
        lo, hi = (comb(n, 2) + 1) // 2, comb(n, 2)
        shapes += [(n, lo + k * (hi - lo) // 39) for k in range(40)]
    return shapes


def corpus_ops(seed: int) -> list:
    """Named constructions plus one random graph per corpus shape, in seeded order.

    The seed chooses each random graph's edges and orientation and the
    order of the corpus, not its sizes, so every seed asks for about the
    same work.
    """
    rng = random.Random(seed)
    ops = _named_graphs() + [_random_connected(rng, n, m) for n, m in corpus_shapes()]
    rng.shuffle(ops)
    return ops


def roundtrip(g):
    return graphs.parse_graph(graphs.serialize_graph(g))


def run_corpus(g) -> dict:
    out = {"roundtrip": roundtrip(g), "poly": cp.charpoly(g)}
    out["energy"] = energy.energy_report(g, tol=ENERGY_TOL)
    out["a4"] = subgraphs.a4_bound_check(g)
    if g.n <= EXPANSION_MAX_N:
        out["expansion"] = [
            subgraphs.coefficient_by_expansion(g, i) for i in range(0, g.n + 1, 2)
        ]
    return out


def check_corpus(g, out: dict) -> list[str]:
    """Exact coefficients against the oracles; both energy routes within 1e-6."""
    problems = []
    poly = out["poly"]
    if out["roundtrip"] != g:
        problems.append("serialize/parse round trip changed the graph")
    if poly.coefficient(2) != g.m:
        problems.append(f"a_2 = {poly.coefficient(2)} != m = {g.m}")
    expansion = out.get("expansion")
    if expansion is not None and list(poly.coeffs) != expansion:
        problems.append(f"charpoly {list(poly.coeffs)} != expansion {expansion}")
    a4 = out["a4"]
    if a4.a4 != poly.coefficient(4) or a4.a4 < a4.lower_bound:
        problems.append(f"a_4 bound check {a4} disagrees with charpoly a_4 = {poly.coefficient(4)}")
    rep = out["energy"]
    if not rep.tolerance_met or not rep.discrepancy <= ENERGY_AGREEMENT:
        problems.append(
            f"energy routes disagree: discrepancy {rep.discrepancy:.3g}, "
            f"tolerance_met {rep.tolerance_met}"
        )
    return problems


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class Workload:
    """One workload: its operations, how to run and check one, what it counts."""

    def __init__(self, ops, run, check, items, reference=None):
        self.ops = ops
        self.run = run
        self.check = check
        self.items = items
        self.reference = reference

    def check_all(self, ops: list, outs: list) -> list[list[str]]:
        """Failure messages per operation, against the recorded reference if any."""
        extra = () if self.reference is None else (load_reference(self.reference),)
        return [
            ["the operation raised"] if out is None else self.check(op, out, *extra)
            for op, out in zip(ops, outs)
        ]


WORKLOADS = {
    "certify-n8": Workload(
        lambda seed: certify_ops(), run_certify, check_certify,
        certify_items, reference="certify_n8",
    ),
    "bounds-n9": Workload(
        lambda seed: bounds_ops(), run_bounds, check_bounds,
        bounds_items, reference="bounds_n9",
    ),
    "oracle-corpus": Workload(
        corpus_ops, run_corpus, check_corpus, lambda out: 1,
    ),
}
