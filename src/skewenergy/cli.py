"""Command-line front end.

Subcommands: charpoly, energy, compare, construct, verify,
verify-oracle, crossover.  Graphs come from oriented edge list files
(--file) or from the named constructions (--construct with --n/--m);
one table, _CONSTRUCTIONS, maps each construction's name to its builder
and says whether it takes --m.
energy and crossover print TSV unless given --emit json, and verify
prints JSON unless given --emit tsv.
All output is deterministic for fixed input and flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from decimal import Decimal
from functools import partial

from .charpoly import charpoly, quasi_compare
from .energy import energy_report
from .extremal import crossover_table, verify_theorem_1
from .graphs import (
    GraphError,
    OrientedGraph,
    construct_b_plus,
    construct_o_plus,
    oriented_cycle,
    oriented_path,
    oriented_star,
    parse_graph,
    serialize_graph,
)
from .subgraphs import a4_bound_check, coefficient_by_expansion

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2  # argparse's own code
EXIT_GRAPH_ERROR = 3
EXIT_DOMAIN_ERROR = 4
EXIT_INTERNAL = 5

_EXIT_HELP = """\
exit codes:
  0  success (verify: verdict pass)
  1  a verification subcommand reported a failure
  2  command-line usage error
  3  invalid graph input (unreadable file, parse error or invariant violation)
  4  parameter outside an operation's valid window
  5  internal error: an exactness check failed or an unexpected exception
     (a bug; please report)
"""

# each construction's builder, and whether it takes an arc count --m
_CONSTRUCTIONS = {
    "o-plus": (construct_o_plus, True),
    "b-plus": (construct_b_plus, True),
    "star": (oriented_star, False),
    "path": (oriented_path, False),
    "cycle-odd": (partial(oriented_cycle, parity="odd"), False),
    "cycle-even": (partial(oriented_cycle, parity="even"), False),
}


def _construct(name: str, n: int | None, m: int | None) -> OrientedGraph:
    if n is None:
        raise ValueError(f"--construct {name} needs --n")
    builder, takes_m = _CONSTRUCTIONS[name]
    if not takes_m:
        if m is not None:
            raise ValueError(f"--construct {name} takes no --m: n fixes its arcs")
        return builder(n)
    if m is None:
        raise ValueError(f"--construct {name} needs --m")
    return builder(n, m)


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--file", help="path to an oriented edge list file ('-' for stdin)")
    sub.add_argument("--construct", choices=_CONSTRUCTIONS, help="use a named construction")
    sub.add_argument("--n", type=int, help="vertex count for --construct")
    takes_m = ", ".join(name for name, (_, m) in _CONSTRUCTIONS.items() if m)
    sub.add_argument("--m", type=int, help=f"arc count for --construct ({takes_m})")


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for '-'."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_source(args: argparse.Namespace) -> tuple[str, OrientedGraph]:
    if (args.file is None) == (args.construct is None):
        raise ValueError("exactly one of --file and --construct is required")
    if args.file is not None:
        return args.file, parse_graph(_read_text(args.file))
    label = args.construct
    if args.n is not None:
        label += f"(n={args.n}" + (f",m={args.m})" if args.m is not None else ")")
    return label, _construct(args.construct, args.n, args.m)


def _resolve_spec(spec: str) -> tuple[str, OrientedGraph]:
    """A compare operand: either 'name:n[:m]' for a construction or a file path."""
    head, _, rest = spec.partition(":")
    if head in _CONSTRUCTIONS:
        parts = rest.split(":") if rest else []
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed construction spec {spec!r}") from None
        if len(nums) > 2:
            raise ValueError(f"construction spec {spec!r} has more than two numbers")
        n = nums[0] if nums else None
        m = nums[1] if len(nums) > 1 else None
        return spec, _construct(head, n, m)
    return spec, parse_graph(_read_text(spec))


_SIG_DIGITS = 12


def _fmt(x: float) -> str:
    return f"{x:.{_SIG_DIGITS}g}"


def _cell(x) -> str:
    """One TSV cell: booleans lower-case, floats to _SIG_DIGITS, sequences space-joined."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return _fmt(x)
    if isinstance(x, (list, tuple)):
        return " ".join(map(str, x))
    return str(x)


def _emit(fmt: str, records: dict | list[dict]) -> None:
    """Print one record or a list of them, as JSON or as TSV under one header."""
    if fmt == "json":
        print(json.dumps(records, indent=2))
        return
    rows = [records] if isinstance(records, dict) else records
    print("\t".join(rows[0]))
    for row in rows:
        print("\t".join(_cell(x) for x in row.values()))


def _cmd_charpoly(args) -> int:
    _, g = _load_source(args)
    print(charpoly(g).line())
    return EXIT_OK


def _cmd_energy(args) -> int:
    """Print both energy routes with only the digits they carry.

    Each energy carries a few ulp of rounding noise whose bits depend on
    the machine (numpy's vectorized exp/log, summed over the quadrature
    nodes), so no output shows them.
    ``spectral`` and ``integral`` are printed to 12 significant digits,
    a last place of at least 4500 ulp.  ``discrepancy`` is their
    difference, so it cancels: it is rounded to a fixed absolute
    quantum, one decimal place finer than the last printed digit of the
    larger energy (1e-12 for energies in [1, 10)), which is at least
    450 ulp of the energies it subtracts.  A value that falls within a
    few ulp of a rounding boundary can still print differently on
    another machine; the library's ``EnergyReport`` keeps full floats.
    """
    label, g = _load_source(args)
    rep = energy_report(g, tol=args.tol)
    scale = max(rep.spectral, rep.integral, 1.0)
    quantum = Decimal(10) ** (math.floor(math.log10(scale)) - _SIG_DIGITS)
    spectral = float(_fmt(rep.spectral))
    integral = float(_fmt(rep.integral))
    discrepancy = float(Decimal(rep.discrepancy).quantize(quantum))
    _emit(
        args.emit,
        {
            "graph": label,
            "spectral": spectral,
            "integral": integral,
            "discrepancy": discrepancy,
            "nodes": rep.quadrature_nodes,
            "tolerance_met": rep.tolerance_met,
        },
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    label_a, ga = _resolve_spec(args.a)
    label_b, gb = _resolve_spec(args.b)
    pa, pb = charpoly(ga), charpoly(gb)
    verdict = quasi_compare(pa, pb)
    print(f"verdict\t{verdict.value}")
    print(f"a\t{label_a}\t{pa.line()}")
    print(f"b\t{label_b}\t{pb.line()}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    g = _construct(args.name, args.n, args.m)
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert = verify_theorem_1(args.n, args.m)
    _emit(args.emit, dataclasses.asdict(cert))
    return EXIT_OK if cert.verdict == "pass" else EXIT_VERIFY_FAILED


def _cmd_verify_oracle(args) -> int:
    _, g = _load_source(args)
    poly = charpoly(g)
    ok = True
    print("index\tcharpoly\texpansion\tmatch")
    for i in range(0, g.n + 1, 2):
        lhs = poly.coefficient(i)
        rhs = coefficient_by_expansion(g, i)
        match = lhs == rhs
        ok = ok and match
        print(f"{i}\t{lhs}\t{rhs}\t{str(match).lower()}")
    if g.n >= 4:
        b = a4_bound_check(g)
        ok = ok and b.a4 == poly.coefficient(4)
        print(f"a4-bound\t{b.lower_bound}\ta4={b.a4}\ttight={str(b.tight).lower()}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_crossover(args) -> int:
    _emit(args.emit, [dataclasses.asdict(r) for r in crossover_table(args.n)])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewenergy",
        description="Exact skew characteristic polynomials and skew energies of oriented graphs.",
        epilog=_EXIT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charpoly", help="exact even coefficients, one line 'n: a0 a2 ...'")
    _add_source_args(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("energy", help="spectral and integral skew energy with diagnostics")
    _add_source_args(p)
    p.add_argument("--tol", type=float, default=1e-9, help="quadrature tolerance (default 1e-9)")
    p.add_argument("--emit", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser(
        "compare",
        help="quasi-order verdict between two graphs (files or 'name:n[:m]' specs)",
    )
    p.add_argument("a", help="file path or construction spec like o-plus:6:7")
    p.add_argument("b", help="file path or construction spec like b-plus:6:7")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("construct", help="emit a named construction as an edge list")
    p.add_argument("--name", choices=_CONSTRUCTIONS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="exhaustive minimum-energy scan at (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--emit", choices=("json", "tsv"), default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "verify-oracle",
        help="cross-check exact coefficients against the subgraph expansion, a_4 against quadrangles",
    )
    _add_source_args(p)
    p.set_defaults(func=_cmd_verify_oracle)

    p = sub.add_parser("crossover", help="quartic coefficients of both constructions per m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_crossover)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        # a bad graph, or a --file that is missing, a directory, unreadable
        # or not text; GraphError and UnicodeDecodeError are ValueErrors,
        # so this clause comes first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GRAPH_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # anything else is a bug too; exit 1 would read as a failed verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
