"""Exhaustive desk-scale search for minimum-skew-energy oriented graphs.

Pipeline: enumerate the connected underlying graphs up to isomorphism,
as one int64 array of canonical keys per (n, m), each class with its
M(G,2) and q(G), carried from the class it grew from (its max degree is
that of canonical vertex 0, read off the key);
census only the classes whose bound M(G,2) - 2q(G) on a_4 is at most
the predicted construction's a_4, keeping the vectors whose a_4 is too;
and compare those against it.  Every 4-cycle weighs +-2 in a_4 (Hou and
Lei, Electron. J. Combin. 18, 2011), so every orientation of G has
a_4 >= M(G,2) - 2q(G), the quartic bound of the paper's proof.  Both
hub constructions have rank S <= 4, so the target is
(1, m, a_4, 0, ..., 0), and a vector with a larger a_4 is strictly above
it: skipping it, or a class all of whose vectors are such, changes no
verdict and no minimizer.  Energy increases in every coefficient, so
the quasi-order on exact coefficient vectors decides the verdict, with
the 60-digit energy integral for incomparable vectors; floats only name
the minimizer of a failed scan.

Canonical labeling: the minimum adjacency bit-string over all vertex
orders that list degrees in non-increasing sequence.  That restriction
is label-independent, so the minimum is a complete isomorphism
invariant, and it prunes the search to degree classes.  One numpy
search (_canonical_batch) runs it over a stack of graphs at once, and
places only the lowest unplaced vertex of each twin class (equal open or
equal closed neighbourhoods), since swapping twins is an automorphism.
Its final frontier has one order per coset of the twin swaps in
Aut(G), so |Aut(G)| = frontier size x prod |twin class|!.

Class enumeration is one memoized recursion over key arrays.  Trees
grow from the trees on one vertex fewer by a pendant vertex.  Every
other (n, m) class grows from the (n, m-1) classes by one edge, and a
child is canonicalized, with others in one batch, only when its new
edge has the largest invariant (max degree, min degree, common
neighbours) among the child's cycle edges: the canonical-deletion
filter of McKay's canonical augmentation ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), which loses no class because
deleting such an edge from any class leaves a connected (n, m-1) class.
The filter runs in numpy over (parent, non-edge, edge) arrays.
A child P + uv has q(P) + (A^3)_uv 4-cycles for P's adjacency A, one
per walk u-a-b-v, and its M(G,2) follows from P's degrees.
Completeness is checked at run time: over the classes, sum n!/|Aut| must
equal the labelled connected count, or enumeration raises RuntimeError.
Keys are decoded into graphs only for enumerate_connected_underlying's
callers and for the few classes a scan reports or censuses.
Exhaustive by construction, hence the default cap at n = 9 (DEFAULT_MAX_N).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb, factorial

import numpy as np

from .charpoly import QuasiOrder, SkewCharPoly, _newton, _trace_batch, charpoly, quasi_compare
from .energy import energy_from_even_coeffs, energy_from_even_coeffs_precise
from .graphs import UndirectedGraph, _spanning_forest, construct_b_plus, construct_o_plus
# count_quadrangles is a public name here too (perfbench/spans.py wraps it),
# though the scans take q(G) from enumeration, which carries it from the
# parent class (_grown)
from .subgraphs import count_quadrangles  # noqa: F401

__all__ = [
    "enumerate_connected_underlying",
    "orientation_coefficient_census",
    "MinimalityCertificate",
    "verify_theorem_1",
    "predicted_family",
    "BoundReport",
    "verify_quadrangle_bound",
    "verify_quadrangle_bound_max_degree",
    "CrossoverRow",
    "crossover_table",
]

DEFAULT_MAX_N = 9
_ORIENTATION_GUARD = 30  # a census stands for 2^m orientations
_CENSUS_CHUNK = 4096
_CANON_CHUNK = 1024  # children per _canonical_batch call; larger ones raise peak RSS
_CUBE_CHUNK = 128  # parents per filter step, or classes per decode; bounds peak RSS


# ---------------------------------------------------------------------------
# canonical labeling and isomorphism-free enumeration
# ---------------------------------------------------------------------------

def _canonical_batch(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, |Aut|) of a stack of graphs under the degree-sorted minimum
    bit-string order.

    adj is a (B, n) int64 array, row b holding graph b's adjacency masks;
    the masks must fit an int64, so n <= 62.  Returns the (B, n) int64
    keys and the (B,) exact |Aut| (object dtype, Python ints).  Row d of
    a key has bit d-1-i set exactly when the vertices placed at i and d
    are adjacent, so the key is the canonically labeled graph itself
    (_cube, _class_graphs).

    Works breadth-first over partial vertex orders of every graph at
    once: at each depth keep every placement, of a vertex of the next
    degree in non-increasing order, that attains its graph's minimal
    next adjacency row, so all of a graph's survivors share one row
    prefix and any completed order realizes the canonical key.  The
    frontier is three arrays: the graph each entry belongs to (sorted),
    the mask of placed vertices, and each unplaced vertex's row against
    the placed prefix, the vertex placed at depth d contributing bit
    n-1-d to the rows of its neighbours.

    Twins, vertices with equal open or equal closed neighbourhoods, are
    interchangeable: swapping two is an automorphism, and they have the
    same row against any prefix that places neither.  So only the lowest
    unplaced member of each twin class is placed, which keeps every
    minimum, and the final frontier holds one order per coset of the
    twin swaps in Aut(G): |Aut| = frontier size x prod |twin class|!.
    """
    count, n = adj.shape
    if n > 62:
        raise ValueError(f"the batched canonical search needs n <= 62, got n = {n}")
    verts = np.arange(n, dtype=np.int64)
    bit = np.int64(1) << verts
    # degrees from the masks' bits, one byte each: an int64 cube is 8 times larger
    octets = np.ascontiguousarray(adj, dtype="<i8").view(np.uint8).reshape(count, n, 8)
    deg = np.unpackbits(octets, axis=2, count=n, bitorder="little").sum(axis=2, dtype=np.int64)
    wants = -np.sort(-deg, axis=1)
    closed = adj | bit
    lower = (  # lower[b, v, u]: u < v, and u and v are twins
        (adj[:, :, None] == adj[:, None, :]) | (closed[:, :, None] == closed[:, None, :])
    ) & (verts[:, None] > verts)
    lower_twins = _masks(lower)
    # prod over vertices of (1 + lower twins) is prod over classes of |class|!
    twin_swaps = np.prod((lower.sum(axis=2) + 1).astype(object), axis=1)

    keys = np.empty((count, n), dtype=np.int64)
    barred = np.iinfo(np.int64).max  # the row of a non-candidate: above every row
    owner = np.arange(count)
    starts = owner
    used = np.zeros(count, dtype=np.int64)
    rows = np.zeros((count, n), dtype=np.int64)
    for d in range(n):
        cand = (
            ((used[:, None] & bit) == 0)
            & (deg == wants[:, d, None])[owner]
            & ((lower_twins[owner] & ~used[:, None]) == 0)
        )
        row = np.where(cand, rows, barred)
        best = np.minimum.reduceat(row.min(axis=1), starts)
        keys[:, d] = best >> (n - d)
        e, v = np.nonzero(row == best[owner, None])
        owner = owner[e]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        used = used[e] | bit[v]
        rows = rows[e] | ((adj[owner, v, None] >> verts) & 1) << (n - 1 - d)
    return keys, np.bincount(owner, minlength=count).astype(object) * twin_swaps


def _cube(keys: np.ndarray) -> np.ndarray:
    """(K, n, n) boolean adjacency of the graphs a (K, n) key array describes.

    Bit d-1-i of row d of a key is the edge (i, d), as _canonical_batch
    writes it.
    """
    verts = np.arange(keys.shape[1], dtype=np.int64)
    shift = verts[:, None] - 1 - verts  # [d, i] = d-1-i, negative where i >= d
    lower = ((keys[:, :, None] >> np.maximum(shift, 0)) & 1).astype(bool) & (shift >= 0)
    return lower | lower.transpose(0, 2, 1)


def _masks(cube: np.ndarray) -> np.ndarray:
    """(K, n) int64 adjacency masks of a 0/1 adjacency cube."""
    return cube @ (np.int64(1) << np.arange(cube.shape[1], dtype=np.int64))


def _common(cube: np.ndarray) -> np.ndarray:
    """(K, n, n) common-neighbour counts A.A, degrees on the diagonal."""
    a = cube.astype(np.int64)
    return a @ a


def _class_graphs(keys: np.ndarray) -> list[UndirectedGraph]:
    """The canonically labeled graphs a (K, n) key array describes."""
    n = keys.shape[1]
    iu, ju = np.triu_indices(n, 1)
    pairs = list(zip(iu.tolist(), ju.tolist()))
    graphs = []
    for start in range(0, len(keys), _CUBE_CHUNK):
        for row in _cube(keys[start:start + _CUBE_CHUNK])[:, iu, ju].tolist():
            graphs.append(UndirectedGraph(n, tuple(compress(pairs, row))))
    return graphs


@lru_cache(maxsize=None)
def labelled_connected_count(n: int, m: int) -> int:
    """Labelled connected graphs with n vertices, m edges, by the
    component-of-vertex-1 recurrence."""
    total = comb(comb(n, 2), m)
    for k in range(1, n):
        ways = comb(n - 1, k - 1)
        for j in range(m + 1):
            total -= ways * labelled_connected_count(k, j) * comb(comb(n - k, 2), m - j)
    return total


def _check_complete(n: int, m: int, automorphisms) -> None:
    """Raise unless the classes count each labelled connected graph once.

    A class with automorphism group Aut has n!/|Aut| labellings, so a
    complete, duplicate-free list of the connected (n, m) classes has
    sum n!/|Aut| equal to the labelled connected count.
    """
    labelled = sum(factorial(n) // aut for aut in automorphisms)
    want = labelled_connected_count(n, m)
    if labelled != want:
        raise RuntimeError(
            f"class enumeration at (n, m) = ({n}, {m}) covers {labelled} labelled "
            f"graphs, not {want}; this is a bug"
        )


def _edge_sides(adj: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per edge xy of each graph, the mask of vertices x reaches without xy.

    adj is (P, n) adjacency masks and x, y are (P, E) edge ends.  The
    edge lies on a cycle exactly when its side holds y; a bridge's side
    is x's component once the edge is gone.  Grows every side at once,
    one breadth-first step per pass, until none grows.
    """
    verts = np.arange(adj.shape[1], dtype=np.int64)
    bit = np.int64(1) << verts
    rows = np.arange(len(adj))[:, None]
    cut = np.repeat(adj[:, None, :], x.shape[1], axis=1)  # (P, E, n), less the edge
    np.put_along_axis(cut, x[..., None], (adj[rows, x] & ~bit[y])[..., None], axis=2)
    np.put_along_axis(cut, y[..., None], (adj[rows, y] & ~bit[x])[..., None], axis=2)
    side = bit[x]
    while True:
        inside = ((side[..., None] >> verts) & 1).astype(bool)
        grown = side | np.bitwise_or.reduce(np.where(inside, cut, 0), axis=2)
        if (grown == side).all():
            return side
        side = grown


def _grown(stats: np.ndarray, edges: int, du, dv, walks) -> np.ndarray:
    """(2, C) int32 stats of children P + uv, u !~ v, from their parents' stats.

    A class's stats are M(G,2) and q(G).  uv makes a 2-matching with each
    of P's edges that misses both ends, edges - du - dv of them, for the
    degrees du and dv of u and v in P; and it closes one 4-cycle per walk
    u-a-b-v, walks = (A^3)_uv for P's adjacency A.
    """
    return np.stack((stats[0] + edges - du - dv, stats[1] + walks)).astype(np.int32)


def _pendant_children(trees: np.ndarray, stats: np.ndarray, n: int):
    """Adjacency masks and stats of every tree on n-1 vertices plus a leaf
    n-1 at each vertex."""
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    cube = _cube(trees)
    adj = np.zeros((len(trees), n), dtype=np.int64)
    adj[:, :-1] = _masks(cube)
    children = np.repeat(adj[:, None, :], n - 1, axis=1)
    v = np.arange(n - 1)
    children[:, v, v] |= bit[-1]
    children[:, v, -1] = bit[v]
    # the new leaf has degree 0 in the parent, and a pendant edge closes no cycle
    grown = _grown(np.repeat(stats, n - 1, axis=1), n - 2, cube.sum(axis=2).reshape(-1), 0, 0)
    return children.reshape(-1, n), grown


def _deletion_filter(parents: np.ndarray, stats: np.ndarray, n: int):
    """Adjacency masks and stats (_grown) of the children P + uv that pass
    the filter, per chunk.

    A child passes when no cycle edge of it has a larger invariant
    (max degree, min degree, common neighbours) than uv, each packed
    into one int with fields n.bit_length() bits wide.  Every child's
    invariants follow from its parent's, over (parent, non-edge, edge)
    arrays for _CUBE_CHUNK parents at a time:

    - adding uv raises the degrees of u and v by one and gives a parent
      edge (u, w) one more common neighbour exactly when w ~ v (likewise
      at v), so only the edges at u or v change invariant, and none
      falls;
    - a parent cycle edge stays one, and a parent bridge becomes one
      exactly when its side (_edge_sides) holds one of u and v.

    So a parent cycle edge above uv's invariant rejects the child
    outright; only the children it leaves are checked edge by edge.  The
    stats of a child that passes come from its parent's: as u !~ v, the
    walks u-a-b-v, the 4-cycles through uv, number (A.A.A)_uv.
    """
    verts = np.arange(n, dtype=np.int64)
    bit = np.int64(1) << verts
    width = n.bit_length()
    iu, ju = np.triu_indices(n, 1)

    def invariant(dx, dy, common):
        return (np.maximum(dx, dy) << width | np.minimum(dx, dy)) << width | common

    for start in range(0, len(parents), _CUBE_CHUNK):
        cube = _cube(parents[start:start + _CUBE_CHUNK])
        count = len(cube)
        rows = np.arange(count)[:, None]
        adj = _masks(cube)
        common = _common(cube)
        deg = common[:, verts, verts]
        present = cube[:, iu, ju]  # every parent has the same number of edges
        pair = np.nonzero(present)[1].reshape(count, -1)
        x, y = iu[pair], ju[pair]
        pair = np.nonzero(~present)[1].reshape(count, -1)
        u, v = iu[pair], ju[pair]
        dx, dy, cxy = deg[rows, x], deg[rows, y], common[rows, x, y]
        side = _edge_sides(adj, x, y)
        cycle = ((side >> y) & 1).astype(bool)
        top = np.where(cycle, invariant(dx, dy, cxy), -1).max(axis=1)
        mine = invariant(deg[rows, u] + 1, deg[rows, v] + 1, common[rows, u, v])
        # the children no parent cycle edge rejects, one row each
        p, k = np.nonzero(top[:, None] <= mine)
        u, v, mine = u[p, k, None], v[p, k, None], mine[p, k, None]
        xp, yp, side = x[p], y[p], side[p]
        at_x = (xp == u) | (xp == v)
        at_y = (yp == u) | (yp == v)
        # u ^ v ^ x is the end of uv other than x, when x is one
        gained = at_x & ((adj[p[:, None], yp] >> (u ^ v ^ xp)) & 1).astype(bool)
        gained |= at_y & ((adj[p[:, None], xp] >> (u ^ v ^ yp)) & 1).astype(bool)
        child = invariant(dx[p] + at_x, dy[p] + at_y, cxy[p] + gained)
        on_cycle = cycle[p] | (((side >> u) ^ (side >> v)) & 1).astype(bool)
        keep = ~(on_cycle & (child > mine)).any(axis=1)
        p, u, v = p[keep], u[keep, 0], v[keep, 0]
        children = adj[p]
        children[np.arange(len(p)), u] |= bit[v]
        children[np.arange(len(p)), v] |= bit[u]
        walks = (common @ cube)[p, u, v]
        parent = stats[:, start:start + _CUBE_CHUNK][:, p]
        yield children, _grown(parent, x.shape[1], deg[p, u], deg[p, v], walks)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _connected_classes(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Connected classes with n vertices and m edges: a (K, n) int64
    array of canonical keys, in increasing row order, and the (2, K)
    int32 stats of the same classes, rows M(G,2) and q(G).  A class's max
    degree is that of canonical vertex 0, since _canonical_batch places
    vertices in non-increasing degree order.

    Trees (m = n-1) grow from the trees on n-1 vertices by a pendant
    vertex, since a tree less a leaf is a tree.  Every connected graph C
    with m >= n edges has a cycle, and among its cycle edges one, e*, of
    largest invariant (max degree, min degree, common neighbours).
    C - e* is connected, so it is one of the (n, m-1) classes; that
    class's representative plus the image of e* is isomorphic to C, and
    the new edge has the largest invariant among the child's cycle
    edges, since the invariant ignores labels.  So a child P + uv is
    canonicalized only when no cycle edge of it beats uv's invariant
    (_deletion_filter): the cheap first step of McKay's canonical
    augmentation ("Isomorph-free exhaustive generation", J. Algorithms
    26, 1998), which drops most children before their canonical form is
    built.

    Children that pass are canonicalized _CANON_CHUNK at a time by
    _canonical_batch, and deduplicated by sorting the key rows, which
    orders them as their tuples would, every key being nonnegative.  So
    the output does not depend on which child reached a class first.
    Every child is born with its stats, derived from its parent's
    (_grown); isomorphic children have equal stats, so each class keeps
    those of its first sorted row.  Before returning, the classes' |Aut|
    values must satisfy sum n!/|Aut| = labelled connected count.  Both
    cached arrays are read-only, since every caller shares them; parents
    become adjacency masks by bit operations on their keys (_cube,
    _masks).
    """
    if m < n - 1 or n == 1:
        count = int(m == n - 1)  # K_1, or no class
        keys, stats = np.zeros((count, n), dtype=np.int64), np.zeros((2, count), dtype=np.int32)
        return _frozen(keys), _frozen(stats)
    if m == n - 1:
        blocks = [_pendant_children(*_connected_classes(n - 1, m - 1), n)]
    else:
        blocks = _deletion_filter(*_connected_classes(n, m - 1), n)
    keys, auts, stats = [], [], []
    for children, grown in blocks:
        stats.append(grown)
        for start in range(0, len(children), _CANON_CHUNK):
            batch_keys, batch_auts = _canonical_batch(children[start:start + _CANON_CHUNK])
            keys.append(batch_keys)
            auts.append(batch_auts)
    keys, auts, stats = np.concatenate(keys), np.concatenate(auts), np.concatenate(stats, axis=1)
    order = np.lexsort(keys.T[::-1])
    for column in keys.T:  # sorted in place, so only one column is ever copied
        column[:] = column[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    kept = order[first]
    _check_complete(n, m, auts[kept])
    return _frozen(keys[first]), _frozen(stats[:, kept])


def _classes(n: int, m: int, max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """_connected_classes(n, m), after the checks every public caller makes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise ValueError(
            f"exhaustive enumeration is capped at n = {max_n} (got n = {n}); "
            "the library's max_n argument raises the cap"
        )
    if not (1 <= m <= comb(n, 2)):
        raise ValueError(f"need 1 <= m <= C(n,2) = {comb(n, 2)}, got m = {m}")
    return _connected_classes(n, m)


def enumerate_connected_underlying(
    n: int, m: int, max_n: int = DEFAULT_MAX_N
) -> list[UndirectedGraph]:
    """All connected simple graphs with n vertices and m edges, one per class,
    canonically labeled, in the order of their keys; each call decodes them
    afresh from the cached keys."""
    return _class_graphs(_classes(n, m, max_n)[0])


# ---------------------------------------------------------------------------
# orientation census
# ---------------------------------------------------------------------------

def orientation_coefficient_census(ug: UndirectedGraph) -> Counter:
    """Exact coefficient vector multiset over all 2^m orientations.

    Reversing every arc at a vertex maps S to DSD with D diagonal +-1,
    a similarity, so the coefficients depend only on the switching
    class.  Switchings act freely in orbits of 2^|F| orientations for a
    spanning forest F, and each orbit holds exactly one orientation with
    the forest edges directed as listed.  So only those are scanned,
    varying the other m - |F| edges in chunks through the batched trace
    kernel, and each count is multiplied by 2^|F|.  The scan counts
    trace rows; Newton's identities map the traces one-to-one onto the
    coefficients, so each distinct row is converted once, at the end.
    Every forest edge
    (u, v) is directed u -> v; edge i of the rest is directed as listed
    when bit i of the code is 0 and reversed when it is 1.  The result
    maps coefficient tuples to the number of orientations attaining them.
    """
    if ug.m > _ORIENTATION_GUARD:
        raise ValueError(
            f"refusing to scan 2^{ug.m} orientations (guard is 2^{_ORIENTATION_GUARD})"
        )
    forest, rest = _spanning_forest(ug.n, ug.edges)
    f_tails, f_heads = np.array(forest, dtype=np.intp).reshape(-1, 2).T
    r_tails, r_heads = np.array(rest, dtype=np.intp).reshape(-1, 2).T
    traces: Counter = Counter()
    total = 1 << len(rest)
    for start in range(0, total, _CENSUS_CHUNK):
        codes = np.arange(start, min(start + _CENSUS_CHUNK, total), dtype=np.int64)
        s = np.zeros((len(codes), ug.n, ug.n), dtype=np.int64)
        s[:, f_tails, f_heads] = 1
        s[:, f_heads, f_tails] = -1
        signs = 1 - 2 * ((codes[:, None] >> np.arange(len(rest), dtype=np.int64)) & 1)
        s[:, r_tails, r_heads] = signs
        s[:, r_heads, r_tails] = -signs
        traces.update(map(tuple, _trace_batch(s).tolist()))
    weight = 1 << len(forest)
    h = ug.n // 2
    counts = Counter({_newton(row, h): count * weight for row, count in traces.items()})
    if ug.n >= 2 and any(vec[1] != ug.m for vec in counts):
        raise RuntimeError("a_2 disagrees with the arc count; this is a bug")
    return counts


# ---------------------------------------------------------------------------
# the minimality scan
# ---------------------------------------------------------------------------

def _check_window(n: int, m: int) -> None:
    if n < 5:
        raise ValueError(f"the minimality statement needs n >= 5, got n = {n}")
    if m == 2 * (n - 2):
        raise ValueError(
            f"m = 2(n-2) = {m} sits on the open boundary of the verified window "
            "n <= m < 2(n-2) and is excluded"
        )
    if not (n <= m < 2 * (n - 2)):
        raise ValueError(
            f"parameters outside the verified window n <= m < 2(n-2): n = {n}, m = {m}"
        )


def predicted_family(n: int, m: int) -> str:
    """Which construction should minimize, by the crossover at m = (3n-5)/2."""
    _check_window(n, m)
    if 2 * m < 3 * n - 5:
        return "O_plus"
    if 2 * m == 3 * n - 5:
        return "Both"
    return "B_plus"


@dataclass(frozen=True)
class MinimalityCertificate:
    """Outcome of one exhaustive minimum-energy scan."""

    n: int
    m: int
    predicted: str
    min_coeffs: tuple[int, ...]
    minimizer_count: int
    verdict: str
    graphs_scanned: int
    orientations_scanned: int



def _decide(n: int, census, target: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """(verdict, min_coeffs) of the census vectors against the target vector.

    Energy, (1/pi) * integral of ln(sum a_2i x^2i) / x^2, increases in
    every coefficient, so the verdict is pass when each vector is >= the
    target componentwise, or incomparable with a larger 60-digit energy.
    On fail, min_coeffs is the vector of least integral energy
    (energy_from_even_coeffs), ties broken by the vector.
    """
    if target not in census:
        raise RuntimeError(
            "the predicted construction never appeared in the scan; this is a bug"
        )
    target_poly = SkewCharPoly(n, target)
    target_energy = None
    for vec in census:
        rel = quasi_compare(target_poly, SkewCharPoly(n, vec))
        if rel in (QuasiOrder.STRICTLY_LESS, QuasiOrder.EQUIVALENT):
            continue
        if rel is QuasiOrder.INCOMPARABLE:
            if target_energy is None:
                target_energy = energy_from_even_coeffs_precise(target)
            # a difference, so mpmath's 53-bit default rounds only a tiny number
            if energy_from_even_coeffs_precise(vec) - target_energy > 1e-30:
                continue
        return "fail", min(census, key=lambda v: (energy_from_even_coeffs(v), v))
    return "pass", target


def verify_theorem_1(n: int, m: int, max_n: int = DEFAULT_MAX_N) -> MinimalityCertificate:
    """Scan every orientation of every connected (n, m) class for the minimum.

    The verdict is exact (see _decide): integer comparisons with the
    predicted construction's vector, unless some vector is incomparable.

    Every arc of both constructions touches vertex 0 or 1, so S has rank
    at most 4 and the target is (1, m, a_4, 0, ..., 0); this is checked.
    Every census vector is (1, m, a_4, ...) with a nonnegative tail, so
    one with a_4 above the target's is strictly greater than the target
    in the quasi-order: _decide passes over it, and with a larger energy
    than the target's it cannot be the least-energy vector on fail.
    a_4 sums the basic subgraphs on four vertices: each of the M(G,2)
    2-matchings weighs 1 and each 4-cycle +-2, so every orientation of a
    class has a_4 >= M(G,2) - 2q(G).  So only the classes whose bound is
    at most the target's a_4 are censused, each checked against its
    bound, and only their vectors with a_4 at most the target's are kept:
    that census, weighted as orientation_coefficient_census weights it,
    is the one _decide reads.
    """
    _check_window(n, m)
    keys, (two_matchings, quads) = _classes(n, m, max_n)
    predicted = predicted_family(n, m)
    o_vec = charpoly(construct_o_plus(n, m)).coeffs
    b_vec = charpoly(construct_b_plus(n, m)).coeffs
    if predicted == "O_plus":
        target = o_vec
    elif predicted == "B_plus":
        target = b_vec
    else:
        if o_vec != b_vec:
            raise RuntimeError(
                "the two constructions disagree at the crossover; this is a bug"
            )
        target = o_vec
    if any(target[3:]):
        raise RuntimeError(
            f"the target {target} has a nonzero coefficient past a_4; this is a bug"
        )

    bound = two_matchings - 2 * quads
    near = bound <= target[2]
    census: Counter = Counter()
    for ug, low in zip(_class_graphs(keys[near]), bound[near].tolist()):
        vectors = orientation_coefficient_census(ug)
        if min(vec[2] for vec in vectors) < low:
            raise RuntimeError(
                f"an orientation of {ug.edges} has a_4 below M(G,2) - 2q(G) = {low}; "
                "this is a bug"
            )
        census.update({vec: count for vec, count in vectors.items() if vec[2] <= target[2]})
    verdict, min_coeffs = _decide(n, census, target)

    return MinimalityCertificate(
        n=n,
        m=m,
        predicted=predicted,
        min_coeffs=min_coeffs,
        minimizer_count=census[min_coeffs],
        verdict=verdict,
        graphs_scanned=len(keys),
        orientations_scanned=len(keys) << m,
    )


# ---------------------------------------------------------------------------
# quadrangle bounds and the crossover table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Result of checking a quadrangle-count bound over enumerated classes."""

    n: int
    m: int
    bound: int
    witnesses_checked: int
    violations: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _quadrangle_bound(n: int, m: int, max_n: int, dominating_only: bool) -> BoundReport:
    """The bound over every class, or only those with a dominating vertex.

    A dominating vertex lowers the bound from C(m-n+2, 2) to C(m-n+1, 2).
    q(G) comes from enumeration's stats (_connected_classes).  A class
    has a dominating vertex exactly when canonical vertex 0, of max
    degree, is adjacent to every other: bit d-1 of key row d is set for
    every d >= 1.  Only the violators are decoded into graphs.
    """
    _check_window(n, m)
    bound = comb(m - n + (1 if dominating_only else 2), 2)
    keys, (_, quads) = _classes(n, m, max_n)
    if dominating_only:
        dominating = ((keys[:, 1:] >> np.arange(n - 1)) & 1).all(axis=1)
        keys, quads = keys[dominating], quads[dominating]
    violations = tuple(ug.edges for ug in _class_graphs(keys[quads > bound]))
    return BoundReport(n, m, bound, len(keys), violations)


def verify_quadrangle_bound(n: int, m: int, max_n: int = DEFAULT_MAX_N) -> BoundReport:
    """q(G) <= C(m-n+2, 2) over every connected class in the window."""
    return _quadrangle_bound(n, m, max_n, dominating_only=False)


def verify_quadrangle_bound_max_degree(
    n: int, m: int, max_n: int = DEFAULT_MAX_N
) -> BoundReport:
    """q(G) <= C(m-n+1, 2) over the classes with a dominating vertex."""
    return _quadrangle_bound(n, m, max_n, dominating_only=True)


@dataclass(frozen=True)
class CrossoverRow:
    m: int
    a4_o_plus: int
    a4_b_plus: int
    winner: str


def crossover_table(n: int) -> list[CrossoverRow]:
    """Quartic coefficients of both constructions for every m in the window."""
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    rows = []
    for m in range(n, 2 * (n - 2)):
        a4_o = (m - n + 1) * (2 * n - m - 3)
        a4_b = (m - n + 2) * (2 * n - m - 4)
        rows.append(CrossoverRow(m, a4_o, a4_b, predicted_family(n, m)))
    return rows
