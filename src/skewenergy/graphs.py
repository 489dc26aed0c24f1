"""Oriented graphs, their skew-adjacency matrices, and named constructions.

An oriented graph is a simple undirected graph together with a chosen
direction for each edge.  Vertices are the integers 0..n-1 throughout;
the hub and apex vertices of the built-in extremal constructions sit at
indices 0 and 1.  All types here are immutable, so one instance can be
shared by every caller.  (The class enumeration caches no graphs: it
keeps the (n, m) classes it last built as a uint8 array of canonical
keys, each the canonically labeled graph's lower triangle packed into
bytes.)

One rule decides what a vertex is, for both graph types, the parser and
every function here or in charpoly and subgraphs that takes a vertex
(_vertex_count, _vertices, _pairs): the vertex count n and every index
are integers by ``operator.index``, kept as Python ints (bools, floats
and strings are refused); n >= 1 and every index v has 0 <= v < n; and
a list of pairs holds exactly two indices in each entry, no loop and no
unordered pair twice.  A violation raises GraphError.

One rule decides what an arc argument is, for delete_arc,
subgraphs.arc_on_even_cycle and charpoly.charpoly_delete_arc (_arc): a
pair by the rule above, which the graph has; an absent arc raises
ValueError "arc (u,v) is not present", naming the reversed arc when
that one is.

Text interchange format ("oriented edge list"): the first significant
line is "n m", followed by exactly m lines "t h" giving the tail and
head of each arc.  Blank lines and lines starting with '#' are ignored.
Serialization emits arcs in their stored order, so parse(serialize(G))
reproduces G exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "GraphError",
    "ParseError",
    "OrientedGraph",
    "UndirectedGraph",
    "build",
    "skew_adjacency",
    "underlying",
    "construct_o_plus",
    "construct_b_plus",
    "oriented_star",
    "oriented_path",
    "oriented_cycle",
    "parse_graph",
    "serialize_graph",
    "delete_arc",
    "delete_vertices",
]


class GraphError(ValueError):
    """An arc or edge list violates the simple-graph invariants."""


class ParseError(GraphError):
    """Malformed graph text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _integer(x) -> int | None:
    """x as a Python int by operator.index, or None for a bool or a non-integer."""
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def _vertex_count(n) -> int:
    """n as a Python int, if it is a positive integer."""
    count = _integer(n)
    if count is None or count < 1:
        raise GraphError(f"vertex count must be a positive integer, got {n!r}")
    return count


def _vertices(n: int, vs: Iterable) -> tuple[int, ...]:
    """vs as Python ints, each an integer index v with 0 <= v < n."""
    out = []
    for v in vs:
        i = v if type(v) is int else _integer(v)  # the common case, without a call
        if i is None:
            raise GraphError(f"index {v!r} is not an integer")
        if not 0 <= i < n:
            raise GraphError(f"index {i} out of range for n={n}")
        out.append(i)
    return tuple(out)


def _pairs(n: int, pairs: Iterable) -> tuple[tuple[int, int], ...]:
    """pairs as (u, v) tuples of indices (_vertices), in their given order,
    each of exactly two entries, with no loop and no unordered pair twice."""
    out: list[tuple[int, int]] = []
    seen: set[int] = set()  # low * n + high for each unordered pair
    for pair in pairs:
        try:
            u, v = _vertices(n, pair)
        except GraphError:
            raise
        except (TypeError, ValueError):  # not iterable, or not two entries
            raise GraphError(f"{pair!r} is not a pair") from None
        if u == v:
            raise GraphError(f"loop ({u},{v}) is not allowed")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise GraphError(f"({u},{v}) repeats the unordered pair {divmod(key, n)}")
        seen.add(key)
        out.append((u, v))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class OrientedGraph:
    """Simple graph with every edge given a direction.

    Arcs are (tail, head) pairs checked by the module's vertex rule, so
    each adjacent pair carries exactly one arc and the skew-adjacency
    entries are well defined.  Arc order is preserved and drives
    serialization; equality ignores it.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _vertex_count(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", _pairs(n, self.arcs))

    @property
    def m(self) -> int:
        return len(self.arcs)

    @property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.n == other.n and frozenset(self.arcs) == frozenset(other.arcs)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.arcs)))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, arcs={list(self.arcs)})"


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are normalized to sorted pairs in sorted order, so structural
    equality and hashing come straight from the dataclass machinery.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _vertex_count(self.n)
        edges = ((u, v) if u < v else (v, u) for u, v in _pairs(n, self.edges))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees(), reverse=True))

    def max_degree(self) -> int:
        return max(self.degrees())

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def is_connected(self) -> bool:
        return len(_spanning_forest(self.n, self.edges)[0]) == self.n - 1

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()


def _spanning_forest(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(forest edges, other edges) of a spanning forest of vertices 0..n-1,
    grown by union-find in edge order: an edge joins the forest exactly
    when no earlier edge connects its endpoints."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest, rest = [], []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rest.append((u, v))
        else:
            root[ru] = rv
            forest.append((u, v))
    return forest, rest


def build(n: int, arcs: Iterable[tuple[int, int]]) -> OrientedGraph:
    """Validate and freeze an arc list into an OrientedGraph."""
    return OrientedGraph(n, tuple(arcs))


def skew_adjacency(g: OrientedGraph) -> np.ndarray:
    """Antisymmetric {-1,0,+1} matrix with +1 at (tail, head) of each arc.

    The returned array is write-locked; callers that need to mutate must
    copy.
    """
    s = np.zeros((g.n, g.n), dtype=np.int64)
    tails, heads = np.array(g.arcs, dtype=np.intp).reshape(-1, 2).T
    s[tails, heads] = 1
    s[heads, tails] = -1
    s.flags.writeable = False
    return s


def underlying(g: OrientedGraph) -> UndirectedGraph:
    """Forget arc directions."""
    return UndirectedGraph(g.n, tuple((min(t, h), max(t, h)) for t, h in g.arcs))


def construct_o_plus(n: int, m: int) -> OrientedGraph:
    """Out-directed star at vertex 0 plus m-n+1 arcs from distinct leaves into vertex 1.

    Every added arc closes a triangle through vertices 0 and 1.  Valid
    for n >= 5 and n <= m <= 2n-3, which keeps the added arcs on
    distinct third endpoints.
    """
    if n < 5 or not (n <= m <= 2 * n - 3):
        raise ValueError(
            f"construction requires n >= 5 and n <= m <= 2n-3; got n={n}, m={m}"
        )
    arcs = [(0, j) for j in range(1, n)]
    arcs += [(j, 1) for j in range(2, m - n + 3)]
    return OrientedGraph(n, tuple(arcs))


def construct_b_plus(n: int, m: int) -> OrientedGraph:
    """The m+1-arc hub construction with the hub-to-apex arc (0,1) removed.

    Valid for n >= 5 and n <= m <= 2n-4.  Underlying degree sequence is
    (n-2, m-n+2, 2, ..., 2, 1, ..., 1) with m-n+2 twos and 2n-m-4 ones.
    """
    if n < 5 or not (n <= m <= 2 * n - 4):
        raise ValueError(
            f"construction requires n >= 5 and n <= m <= 2n-4; got n={n}, m={m}"
        )
    wider = construct_o_plus(n, m + 1)
    return OrientedGraph(n, tuple(a for a in wider.arcs if a != (0, 1)))


def oriented_star(n: int) -> OrientedGraph:
    """Star with all arcs pointing away from the center vertex 0."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    return OrientedGraph(n, tuple((0, j) for j in range(1, n)))


def oriented_path(n: int) -> OrientedGraph:
    """Path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return OrientedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def oriented_cycle(n: int, parity: str) -> OrientedGraph:
    """Even cycle on n vertices with the requested orientation parity.

    parity="even": all arcs follow the traversal 0,1,...,n-1 (n arcs
    along, an even count).  parity="odd": the closing arc is reversed,
    leaving n-1 arcs along the traversal.  Parity is only defined for
    even cycle length, so odd n is rejected.
    """
    if n < 4 or n % 2:
        raise ValueError(f"orientation parity needs an even cycle length >= 4, got n={n}")
    arcs = [(i, i + 1) for i in range(n - 1)]
    if parity == "even":
        arcs.append((n - 1, 0))
    elif parity == "odd":
        arcs.append((0, n - 1))
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return OrientedGraph(n, tuple(arcs))


def parse_graph(text: str) -> OrientedGraph:
    """Parse the oriented edge list format, with positioned diagnostics.

    The text fixes the header, two integer tokens per line and the arc
    count; OrientedGraph checks each arc once, as it reads it, and a
    violation is reported at that arc's line.
    """
    lines = text.splitlines()
    end = max(len(lines), 1)
    rows = _integer_rows(lines)
    header = next(rows, None)
    if header is None:
        raise ParseError(end, "missing header line 'n m'")
    line_no, (n, m) = header
    if m < 0:
        raise ParseError(line_no, f"arc count must be nonnegative, got {m}")

    def arcs():
        nonlocal line_no  # the line of the arc being read, for a GraphError
        for k, (line_no, arc) in enumerate(rows):
            if k == m:
                raise ParseError(line_no, f"more than the declared {m} arcs")
            yield arc

    try:
        g = OrientedGraph(n, arcs())
    except ParseError:
        raise
    except GraphError as exc:
        raise ParseError(line_no, str(exc)) from None
    if g.m != m:
        raise ParseError(end, f"declared {m} arcs but found {g.m}")
    return g


def _integer_rows(lines: list[str]) -> Iterator[tuple[int, tuple[int, int]]]:
    """(1-based line number, its two integers) for each significant line;
    blank lines and '#' comments are skipped."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected two whitespace-separated integers, got {line!r}")
        try:
            pair = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"expected two integers, got {line!r}") from None
        yield line_no, pair


def serialize_graph(g: OrientedGraph) -> str:
    """Emit the oriented edge list format; arc order is preserved."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{t} {h}" for t, h in g.arcs]
    return "\n".join(lines) + "\n"


def _arc(g: OrientedGraph, arc) -> tuple[int, int]:
    """arc as (u, v) by the pair rule (_pairs), if g has it; ValueError if not."""
    ((u, v),) = _pairs(g.n, (arc,))
    arcs = g.arc_set
    if (u, v) not in arcs:
        hint = f" (the reversed arc ({v},{u}) is)" if (v, u) in arcs else ""
        raise ValueError(f"arc ({u},{v}) is not present{hint}")
    return u, v


def _minus_arc(g: OrientedGraph, arc: tuple[int, int]) -> OrientedGraph:
    """g without an arc it has (_arc), keeping all vertices and the arc order."""
    return OrientedGraph(g.n, tuple(a for a in g.arcs if a != arc))


def delete_arc(g: OrientedGraph, arc: tuple[int, int]) -> OrientedGraph:
    """Remove one arc, keeping all vertices and the remaining arc order."""
    return _minus_arc(g, _arc(g, arc))


def delete_vertices(g: OrientedGraph, dead: Iterable[int]) -> OrientedGraph:
    """Remove vertices and their arcs; survivors are relabeled in order."""
    gone = set(_vertices(g.n, dead))
    keep = [v for v in range(g.n) if v not in gone]
    if not keep:
        raise ValueError("cannot delete every vertex")
    remap = {old: new for new, old in enumerate(keep)}
    arcs = tuple(
        (remap[t], remap[h]) for t, h in g.arcs if t not in gone and h not in gone
    )
    return OrientedGraph(len(keep), arcs)
