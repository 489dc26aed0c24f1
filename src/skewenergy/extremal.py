"""Exhaustive desk-scale search for minimum-skew-energy oriented graphs.

Pipeline: enumerate connected underlying graphs up to isomorphism,
take a_4 of every orientation of every class (one per switching class,
weighted by the class size) from one Walsh-Hadamard transform over the
classes' 4-cycles, compute exact coefficient vectors only for the
orientations whose a_4 is at most the predicted construction's, and
compare those against it.  Both hub constructions have rank S <= 4, so
the target is (1, m, a_4, 0, ..., 0), and a vector with a larger a_4 is
strictly above it: skipping it changes no verdict and no minimizer.
Energy increases in every coefficient, so the quasi-order on exact
coefficient vectors decides the verdict, with the 60-digit energy
integral for incomparable vectors; floats only name the minimizer of a
failed scan.

Canonical labeling: the minimum adjacency bit-string over all vertex
orders that list degrees in non-increasing sequence.  That restriction
is label-independent, so the minimum is a complete isomorphism
invariant, and it prunes the search to degree classes.  One numpy
search (_canonical_batch) runs it over a stack of graphs at once, and
places only the lowest unplaced vertex of each twin class (equal open or
equal closed neighbourhoods), since swapping twins is an automorphism.
Its final frontier has one order per coset of the twin swaps in
Aut(G), so |Aut(G)| = frontier size x prod |twin class|!.

Class enumeration is one memoized recursion.  Trees grow from the trees
on one vertex fewer by a pendant vertex.  Every other (n, m) class grows
from the (n, m-1) classes by one edge, and a child is canonicalized,
with others in one batch, only when its new edge has the largest
invariant (max degree, min degree, common neighbours) among the child's
cycle edges: the canonical-deletion filter of McKay's canonical
augmentation ("Isomorph-free exhaustive generation", J. Algorithms 26,
1998), which loses no class because deleting such an edge from any
class leaves a connected (n, m-1) class.
Completeness is checked at run time: over the classes, sum n!/|Aut| must
equal the labelled connected count, or enumeration raises RuntimeError.
Exhaustive by construction, hence the default cap at n = 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .charpoly import QuasiOrder, SkewCharPoly, _even_coeffs_batch, charpoly, quasi_compare
from .energy import energy_from_even_coeffs, energy_from_even_coeffs_precise
from .graphs import UndirectedGraph, construct_b_plus, construct_o_plus
from .subgraphs import _two_matching_count, count_quadrangles, quadrangles

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

DEFAULT_MAX_N = 8
_ORIENTATION_GUARD = 30  # a census stands for 2^m orientations
_CENSUS_CHUNK = 4096
_CANON_CHUNK = 256  # children per _canonical_batch call; larger ones raise peak RSS


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
    (_class_graph).

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
    cube = (adj[:, :, None] >> verts) & 1  # cube[b, v, x]: v ~ x in graph b
    deg = cube.sum(axis=2)
    wants = -np.sort(-deg, axis=1)
    closed = adj | bit
    lower = (  # lower[b, v, u]: u < v, and u and v are twins
        (adj[:, :, None] == adj[:, None, :]) | (closed[:, :, None] == closed[:, None, :])
    ) & (verts[:, None] > verts)
    lower_twins = (lower * bit).sum(axis=2)
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
        rows = rows[e] | (cube[owner, v] << (n - 1 - d))
    return keys, np.bincount(owner, minlength=count).astype(object) * twin_swaps


def _class_graph(n: int, key: tuple[int, ...]) -> UndirectedGraph:
    """The canonically labeled graph a _canonical_batch key describes."""
    edges = []
    for d, row in enumerate(key):
        while row:  # bit d-1-i of row d is the edge (i, d)
            low = row & -row
            edges.append((d - low.bit_length(), d))
            row ^= low
    return UndirectedGraph(n, tuple(edges))


@lru_cache(maxsize=None)
def labelled_graph_count(n: int, m: int) -> int:
    """Labelled simple graphs with n vertices and m edges."""
    if n < 0 or m < 0:
        return 0
    return comb(comb(n, 2), m)


@lru_cache(maxsize=None)
def labelled_connected_count(n: int, m: int) -> int:
    """Labelled connected graphs with n vertices, m edges, by the
    component-of-vertex-1 recurrence."""
    if n == 0:
        return 1 if m == 0 else 0
    total = labelled_graph_count(n, m)
    for k in range(1, n):
        ways = comb(n - 1, k - 1)
        for j in range(m + 1):
            total -= ways * labelled_connected_count(k, j) * labelled_graph_count(n - k, m - j)
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


def _on_cycle(adj: list[int], x: int, y: int) -> bool:
    """Whether the edge xy lies on a cycle: y is reachable from x without it."""
    seen = 1 << x
    frontier = adj[x] & ~(1 << y)
    while frontier:
        if frontier >> y & 1:
            return True
        seen |= frontier
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
    return False


@lru_cache(maxsize=None)
def _connected_classes(n: int, m: int) -> tuple[UndirectedGraph, ...]:
    """Connected classes with n vertices and m edges, canonically labeled.

    Trees (m = n-1) grow from the trees on n-1 vertices by a pendant
    vertex, since a tree less a leaf is a tree.  Every connected graph C
    with m >= n edges has a cycle, and among its cycle edges one, e*, of
    largest invariant (max degree, min degree, common neighbours).
    C - e* is connected, so it is one of the (n, m-1) classes; that
    class's representative plus the image of e* is isomorphic to C, and
    the new edge has the largest invariant among the child's cycle
    edges, since the invariant ignores labels.  So a child P + uv is
    canonicalized only when no cycle edge of it beats uv's invariant:
    the cheap first step of McKay's canonical augmentation
    ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998),
    which drops most children before their canonical form is built.

    Each invariant is packed into one int, its fields n.bit_length()
    bits wide, and the child's follow from the parent's: adding uv raises
    the degrees of u and v by one and gives a parent edge (u, w) one more
    common neighbour exactly when w ~ v (likewise at v); every other edge
    keeps its parent invariant.

    Children that pass wait in a pending list, canonicalized together by
    _canonical_batch whenever _CANON_CHUNK of them have gathered and once
    more for the rest.  Children are deduplicated by canonical key, and
    only then is each key decoded into its graph (_class_graph), in key
    order, so the output does not depend on which child reached a class
    first.  Before returning, the classes must satisfy sum n!/|Aut| =
    labelled connected count.  The cache holds each class's graph once,
    and enumerate_connected_underlying hands out those same objects.
    """
    if m < n - 1 or m > comb(n, 2):
        return ()
    if n == 1:
        return (UndirectedGraph(1, ()),)
    found: dict[tuple[int, ...], int] = {}
    pending: list[list[int]] = []

    def flush() -> None:
        keys, auts = _canonical_batch(np.array(pending, dtype=np.int64))
        found.update(zip(map(tuple, keys.tolist()), auts.tolist()))
        pending.clear()

    def offer(adj: list[int]) -> None:
        pending.append(adj.copy())
        if len(pending) >= _CANON_CHUNK:
            flush()

    if m == n - 1:
        leaf = n - 1
        for tree in _connected_classes(n - 1, m - 1):
            adj = tree.adjacency_masks() + [0]
            for v in range(leaf):
                adj[v] |= 1 << leaf
                adj[leaf] = 1 << v
                offer(adj)
                adj[v] ^= 1 << leaf
    else:
        width = n.bit_length()

        def invariant(dx: int, dy: int, common: int) -> int:
            if dx < dy:
                dx, dy = dy, dx
            return (dx << width | dy) << width | common

        for parent in _connected_classes(n, m - 1):
            adj = parent.adjacency_masks()
            deg = [a.bit_count() for a in adj]
            # adding uv keeps every cycle edge of the parent on a cycle and
            # changes the invariant only of the edges at u or v, never
            # lowering it; so the edges whose parent invariant beats uv's
            # form a prefix of this ranking, and only the edges at u or v
            # outside that prefix need their child invariant
            ranked = []
            # at[x]: the edges at x, each with its other end and common count
            at: list[list] = [[] for _ in range(n)]
            for x, y in parent.edges:
                common = (adj[x] & adj[y]).bit_count()
                e = (invariant(deg[x], deg[y], common), x, y, _on_cycle(adj, x, y))
                ranked.append(e)
                at[x].append((*e, y, common))
                at[y].append((*e, x, common))
            ranked.sort(reverse=True)
            for u in range(n):
                for v in range(u + 1, n):
                    if adj[u] >> v & 1:
                        continue
                    mine = invariant(deg[u] + 1, deg[v] + 1, (adj[u] & adj[v]).bit_count())
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    beaten = False
                    for inv, x, y, cyc in ranked:
                        if inv <= mine:
                            break
                        if cyc or _on_cycle(adj, x, y):
                            beaten = True
                            break
                    if not beaten:
                        beaten = any(
                            inv <= mine
                            and invariant(deg[a] + 1, deg[w], common + (adj[w] >> b & 1)) > mine
                            and (cyc or _on_cycle(adj, x, y))
                            for a, b in ((u, v), (v, u))
                            for inv, x, y, cyc, w, common in at[a]
                        )
                    if not beaten:
                        offer(adj)
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
    if pending:
        flush()
    _check_complete(n, m, found.values())
    return tuple(_class_graph(n, key) for key in sorted(found))


def enumerate_connected_underlying(
    n: int, m: int, max_n: int = DEFAULT_MAX_N
) -> list[UndirectedGraph]:
    """All connected simple graphs with n vertices and m edges, one per class."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > max_n:
        raise ValueError(
            f"exhaustive enumeration is capped at n = {max_n} (got n = {n}); "
            "pass max_n explicitly to override"
        )
    if not (1 <= m <= comb(n, 2)):
        raise ValueError(f"need 1 <= m <= C(n,2) = {comb(n, 2)}, got m = {m}")
    return list(_connected_classes(n, m))


# ---------------------------------------------------------------------------
# orientation census
# ---------------------------------------------------------------------------

def _spanning_forest(ug: UndirectedGraph):
    """(forest edges, other edges) of a spanning forest grown in edge order."""
    root = list(range(ug.n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest, rest = [], []
    for u, v in ug.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rest.append((u, v))
        else:
            root[ru] = rv
            forest.append((u, v))
    return forest, rest


def _orientation_matrices(n: int, forest, rest, codes: np.ndarray) -> np.ndarray:
    """Skew matrices of the census orientations with the given codes.

    Every forest edge (u, v) is directed u -> v; edge i of rest is
    directed as listed when bit i of the code is 0 and reversed when it
    is 1.  Edges are listed low vertex first, so code 0 directs every
    edge from its lower to its higher vertex.
    """
    s = np.zeros((len(codes), n, n), dtype=np.int64)
    tails, heads = np.array(forest, dtype=np.intp).reshape(-1, 2).T
    s[:, tails, heads] = 1
    s[:, heads, tails] = -1
    tails, heads = np.array(rest, dtype=np.intp).reshape(-1, 2).T
    signs = 1 - 2 * ((codes[:, None] >> np.arange(len(rest), dtype=np.int64)) & 1)
    s[:, tails, heads] = signs
    s[:, heads, tails] = -signs
    return s


def orientation_coefficient_census(
    ug: UndirectedGraph, chunk: int = _CENSUS_CHUNK
) -> Counter:
    """Exact coefficient vector multiset over all 2^m orientations.

    Reversing every arc at a vertex maps S to DSD with D diagonal +-1,
    a similarity, so the coefficients depend only on the switching
    class.  Switchings act freely in orbits of 2^|F| orientations for a
    spanning forest F, and each orbit holds exactly one orientation with
    the forest edges directed as listed.  So only those are scanned,
    varying the other m - |F| edges in chunks through the batched
    kernel, and each count is multiplied by 2^|F|.  The result maps
    coefficient tuples to the number of orientations attaining them.
    """
    if ug.m > _ORIENTATION_GUARD:
        raise ValueError(
            f"refusing to scan 2^{ug.m} orientations (guard is 2^{_ORIENTATION_GUARD})"
        )
    forest, rest = _spanning_forest(ug)
    counts: Counter = Counter()
    total = 1 << len(rest)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        block = _even_coeffs_batch(_orientation_matrices(ug.n, forest, rest, codes))
        if ug.n >= 2 and not (block[:, 1] == ug.m).all():
            raise RuntimeError("a_2 disagrees with the arc count; this is a bug")
        counts.update(map(tuple, block.tolist()))
    weight = 1 << len(forest)
    return Counter({vec: count * weight for vec, count in counts.items()})


def _a4_spectra(classes, r: int) -> np.ndarray:
    """a_4 of every census orientation of every class, as an int32 array.

    Row k, column b is a_4 of class k's orientation with code b (see
    _orientation_matrices); each class must have r = m - |F| edges
    outside its spanning forest.  a_4 sums the basic subgraphs on four
    vertices (Hou and Lei, Electron. J. Combin. 18, 2011): each of the
    M(G,2) 2-matchings weighs 1, and each 4-cycle Q weighs 2 when oddly
    oriented and -2 when evenly.  The code bits of Q's non-forest edges
    form mask_Q, and code b reverses Q's parity exactly when
    popcount(b & mask_Q) is odd.  So with w_Q the weight at code 0,

        a_4(b) = M(G,2) + sum_Q w_Q (-1)^popcount(b & mask_Q),

    the Walsh-Hadamard transform of the row holding M(G,2) at index 0
    and each w_Q added at index mask_Q.  One in-place butterfly pass per
    code bit transforms every row at once.
    """
    spectra = np.zeros((len(classes), 1 << r), dtype=np.int32)
    for k, ug in enumerate(classes):
        _, rest = _spanning_forest(ug)
        bit = {e: 1 << i for i, e in enumerate(rest)}
        row = [0] * (1 << r)
        row[0] = _two_matching_count(ug)
        for quad in quadrangles(ug):
            mask, against = 0, 0
            for x, y in zip(quad, quad[1:] + quad[:1]):
                if x < y:
                    mask |= bit.get((x, y), 0)
                else:  # code 0 directs every edge up, against this step
                    mask |= bit.get((y, x), 0)
                    against += 1
            # of 4 arcs, an odd number along the cycle means an odd number against
            row[mask] += 2 if against % 2 else -2
        spectra[k] = row
    for j in range(r):
        pairs = spectra.reshape(len(classes), -1, 2, 1 << j)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        lo += hi  # lo + hi
        hi *= -2
        hi += lo  # (lo + hi) - 2 hi = lo - hi
    return spectra


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "predicted": self.predicted,
            "min_coeffs": list(self.min_coeffs),
            "minimizer_count": self.minimizer_count,
            "verdict": self.verdict,
            "graphs_scanned": self.graphs_scanned,
            "orientations_scanned": self.orientations_scanned,
        }


def _decide(n: int, census, target: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """(verdict, min_coeffs) of the census vectors against the target vector.

    Energy, (1/pi) * integral of ln(sum a_2i x^2i) / x^2, increases in
    every coefficient, so the verdict is pass when each vector is >= the
    target componentwise, or incomparable with a larger 60-digit energy.
    On fail, min_coeffs is the vector of least float energy.
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
    than the target's it cannot be the least-energy vector on fail.  So
    _a4_spectra gives a_4 for every census orientation of every class
    at once, and only the orientations whose a_4 is at most the target's
    go through the exact kernel, which must agree with the transform on
    each of them.  Those kernel vectors, each weighted by the 2^(n-1)
    switchings of its orientation, are the census _decide reads.
    """
    _check_window(n, m)
    classes = enumerate_connected_underlying(n, m, max_n=max_n)
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

    a4 = _a4_spectra(classes, m - n + 1)
    orientations = a4.size << (n - 1)
    if orientations != len(classes) << m:
        raise RuntimeError("orientation count does not add up; this is a bug")
    ks, codes = np.nonzero(a4 <= target[2])
    blocks = [np.empty((0, n, n), dtype=np.int64)]
    for k in sorted(set(ks.tolist())):
        forest, rest = _spanning_forest(classes[k])
        blocks.append(_orientation_matrices(n, forest, rest, codes[ks == k]))
    kernel = _even_coeffs_batch(np.concatenate(blocks))
    if not (kernel[:, 1] == m).all():
        raise RuntimeError("a_2 disagrees with the arc count; this is a bug")
    if not (kernel[:, 2] == a4[ks, codes]).all():
        raise RuntimeError("the kernel's a_4 disagrees with the transform's; this is a bug")
    weight = 1 << (n - 1)
    census = Counter(
        {vec: count * weight for vec, count in Counter(map(tuple, kernel.tolist())).items()}
    )
    verdict, min_coeffs = _decide(n, census, target)

    return MinimalityCertificate(
        n=n,
        m=m,
        predicted=predicted,
        min_coeffs=min_coeffs,
        minimizer_count=census[min_coeffs],
        verdict=verdict,
        graphs_scanned=len(classes),
        orientations_scanned=orientations,
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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "bound": self.bound,
            "witnesses_checked": self.witnesses_checked,
            "violations": [list(map(list, edges)) for edges in self.violations],
            "passed": self.passed,
        }


def _quadrangle_bound(n: int, m: int, max_n: int, dominating_only: bool) -> BoundReport:
    """The bound over every class, or only those with a dominating vertex.

    A dominating vertex lowers the bound from C(m-n+2, 2) to C(m-n+1, 2).
    """
    _check_window(n, m)
    bound = comb(m - n + (1 if dominating_only else 2), 2)
    violations = []
    checked = 0
    for ug in enumerate_connected_underlying(n, m, max_n=max_n):
        if dominating_only and ug.max_degree() != n - 1:
            continue
        checked += 1
        if count_quadrangles(ug) > bound:
            violations.append(ug.edges)
    return BoundReport(n, m, bound, checked, tuple(violations))


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
