"""Exact integer characteristic polynomials of skew-adjacency matrices.

For an antisymmetric integer matrix S the polynomial det(xI - S) has
zero coefficients at every odd power-offset and nonnegative ones at
even offsets, so only the even-offset coefficients are stored:
coeffs[i] is the coefficient of x^(n-2i).  (The alternating-sign
convention sum (-1)^k a_k x^(n-k) stores identical numbers, since the
odd terms vanish and (-1)^(2i) = 1; the two conventions agree on
everything kept here.)

The coefficients are computed exactly in two steps: the even
coefficients are the elementary symmetric functions of the squared
singular values, whose power sums are traces of powers of S^T S.  One
batched numpy kernel (_trace_batch) takes those traces, in int64 when a
bound in n and the batch's largest arc count m allows it
(3 m^(n//2 + 1) < 2^63: every graph up to n = 15, up to 47 arcs at
n = 20) and on Python integers otherwise.  Newton's identities (_newton)
then turn a trace row into coefficients, on Python integers.  charpoly
runs the kernel on one matrix; the orientation census
(extremal.orientation_coefficient_census) batches it and converts each
distinct trace row once.  The trace parity is asserted, every division
is checked to be exact, and the vanishing of e_(h+1) and nonnegativity
are asserted; a violation raises RuntimeError because it can only mean
a bug.

The deletion identity for an arc on no even cycle assembles charpoly(g)
from two smaller graphs (charpoly_delete_arc); the pendant recurrence
(pendant_coefficients) is that identity at a pendant arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import (
    OrientedGraph,
    _arc,
    _minus_arc,
    _vertices,
    delete_vertices,
    skew_adjacency,
)
from .subgraphs import _arc_masks, _on_even_cycle

__all__ = [
    "SkewCharPoly",
    "QuasiOrder",
    "charpoly",
    "charpoly_delete_arc",
    "pendant_coefficients",
    "quasi_compare",
]


@dataclass(frozen=True)
class SkewCharPoly:
    """Even-offset coefficients (a_0, a_2, ..., a_{2*floor(n/2)}) of det(xI - S).

    Coefficients are exact Python integers; a_0 is always 1 and every
    stored coefficient is nonnegative.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"degree must be nonnegative, got {self.n}")
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        want = self.n // 2 + 1
        if len(coeffs) != want:
            raise ValueError(f"expected {want} even coefficients for n={self.n}, got {len(coeffs)}")
        if coeffs[0] != 1:
            raise ValueError(f"leading coefficient must be 1, got {coeffs[0]}")
        if any(c < 0 for c in coeffs):
            raise ValueError(f"negative coefficient in {coeffs}")

    def coefficient(self, i: int) -> int:
        """a_i, i.e. the coefficient of x^(n-i).  Odd i gives 0."""
        if not (0 <= i <= self.n):
            raise IndexError(f"coefficient index {i} outside [0, {self.n}]")
        return 0 if i % 2 else self.coeffs[i // 2]

    def line(self) -> str:
        """One-line serialization "n: a0 a2 a4 ..."."""
        return f"{self.n}: " + " ".join(str(c) for c in self.coeffs)

    @classmethod
    def from_line(cls, text: str) -> "SkewCharPoly":
        head, _, rest = text.partition(":")
        try:
            n = int(head.strip())
            coeffs = tuple(int(tok) for tok in rest.split())
        except ValueError:
            raise ValueError(f"malformed coefficient line {text!r}") from None
        return cls(n, coeffs)


class QuasiOrder(Enum):
    STRICTLY_LESS = "StrictlyLess"
    STRICTLY_GREATER = "StrictlyGreater"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"


def _int64_recursion_safe(n: int, m: int) -> bool:
    """Whether int64 holds the trace kernel for n x n skew matrices of at most m arcs.

    With m arcs, M = S^T S has trace 2m, so its eigenvalues (each
    lambda_j^2 twice) are at most m and the power sums satisfy
    p_k <= m^k.  By Cauchy-Schwarz every partial sum of a product entry
    of M^a (at most m^a) or of a trace sum(M^a o M^b) (at most 2 m^(a+b))
    is bounded the same way.  Traces run up to k = h + 1 with h = n // 2,
    so the powers and traces fit when 3 m^(h+1) < 2^63, and so do the
    coefficients e_k <= m^k / k!.  Newton's identities run on Python
    integers and need no bound.  The bound is
    keyed on the arc count itself: a sparse n = 20 graph (m <= 47) runs
    in int64, a dense n = 16 one (m >= 114) does not.
    """
    return 3 * m ** (n // 2 + 1) < 2**63


def _trace_batch(s: np.ndarray) -> np.ndarray:
    """(B, h + 1) traces tr(M^k), k = 1..h + 1, of a (B, n, n) stack of skew matrices.

    M = S^T S = -S^2 and h = n // 2.  tr(M^(a+b)) = sum(M^a o M^b) needs
    only the powers up to M^ceil((h+1)/2).  Runs in int64 where
    _int64_recursion_safe allows it for n and the batch's largest arc
    count (half the nonzeros), and on Python integers in an object array
    otherwise, for the whole batch.  Raises RuntimeError on an odd trace,
    which can only mean a bug.
    """
    n = s.shape[1]
    h = n // 2
    m = (int(np.count_nonzero(s, axis=(1, 2)).max(initial=0)) + 1) // 2
    work = s.astype(np.int64 if _int64_recursion_safe(n, m) else object)
    powers = [-(work @ work)]
    for _ in range(h // 2):
        powers.append(powers[-1] @ powers[0])
    traces = np.stack(
        [powers[0].diagonal(axis1=1, axis2=2).sum(axis=1)]
        + [
            (powers[(k + 1) // 2 - 1] * powers[k // 2 - 1]).sum(axis=(1, 2))
            for k in range(2, h + 2)
        ],
        axis=1,
    )
    odd = (traces % 2 != 0).any(axis=0)
    if odd.any():
        raise RuntimeError(f"odd trace of M^{int(odd.argmax()) + 1}; this is a bug")
    return traces


def _newton(traces: tuple[int, ...], h: int) -> tuple[int, ...]:
    """Even coefficients (a_0, a_2, ..., a_2h) from one row of _trace_batch.

    With +-i lambda_j the eigenvalues of S, the a_2k are the elementary
    symmetric functions e_k of the h values lambda_j^2, whose power sums
    are p_k = tr(M^k) / 2, and Newton's
    identities k e_k = sum_i (-1)^(i-1) e_(k-i) p_i give them, on Python
    integers.  Raises RuntimeError on a non-exact division, a nonzero
    e_(h+1) (the trace form of Cayley-Hamilton) or a negative
    coefficient, because each can only mean a bug.
    """
    # signed_p[i - 1] = (-1)^(i-1) p_i
    signed_p = [t // 2 if i % 2 == 0 else -(t // 2) for i, t in enumerate(traces)]
    e = [1]
    for k in range(1, h + 2):
        acc = sum(a * b for a, b in zip(reversed(e), signed_p))
        quotient, remainder = divmod(acc, k)
        if remainder:
            raise RuntimeError(f"non-exact division at Newton step {k}; this is a bug")
        e.append(quotient)
    if e[h + 1]:
        raise RuntimeError(f"e_{h + 1} is nonzero (Cayley-Hamilton fails); this is a bug")
    if any(c < 0 for c in e):
        raise RuntimeError("negative even coefficient; this is a bug")
    return tuple(e[: h + 1])


def charpoly(g: OrientedGraph) -> SkewCharPoly:
    """Exact even-offset coefficients of det(xI - S(g))."""
    even = _newton(tuple(_trace_batch(skew_adjacency(g)[None])[0].tolist()), g.n // 2)
    if g.n >= 2 and even[1] != g.m:
        raise RuntimeError(f"a_2 = {even[1]} does not equal the arc count {g.m}; this is a bug")
    return SkewCharPoly(g.n, even)


def _coeff_or_zero(p: SkewCharPoly, i: int) -> int:
    if i < 0 or i > p.n:
        return 0
    return p.coefficient(i)


def _deletion_identity(g: OrientedGraph, arc: tuple[int, int]) -> SkewCharPoly:
    """charpoly(g) as charpoly(g - e) plus charpoly(g - u - v), aligned by
    powers of x, for a present arc e = (u, v) on no even cycle; unchecked."""
    minus_arc = charpoly(_minus_arc(g, arc))
    minus_ends = SkewCharPoly(0, (1,)) if g.n == 2 else charpoly(delete_vertices(g, arc))
    coeffs = tuple(
        _coeff_or_zero(minus_arc, 2 * i) + _coeff_or_zero(minus_ends, 2 * (i - 1))
        for i in range(g.n // 2 + 1)
    )
    return SkewCharPoly(g.n, coeffs)


def charpoly_delete_arc(g: OrientedGraph, arc: tuple[int, int]) -> SkewCharPoly:
    """Assemble charpoly(g) from the deletion identity for an arc on no even cycle.

    For such an arc e=(u,v): det(xI - S(g)) equals the polynomial of
    g - e plus the polynomial of g - u - v, aligned by powers of x.
    The arc must be present (graphs._arc) and must avoid every even
    cycle; both conditions are checked.
    """
    u, v = _arc(g, arc)
    if _on_even_cycle(g, u, v):
        raise ValueError(
            f"arc ({u},{v}) lies on an even cycle; the deletion identity does not apply"
        )
    return _deletion_identity(g, (u, v))


def pendant_coefficients(g: OrientedGraph, u: int, v: int) -> SkewCharPoly:
    """Assemble charpoly(g) from the pendant recurrence at leaf v attached to u.

    a_i(g) = a_i(g - v) + a_{i-2}(g - v - u), indices read within each
    graph's own degree.  This is the deletion identity at the arc
    between u and v (g - e is g - v with v isolated), and a pendant arc
    lies on no cycle, so no even-cycle search is run.
    """
    u, v = _vertices(g.n, (u, v))
    adj, out = _arc_masks(g)
    if adj[v] != 1 << u:
        raise ValueError(f"vertex {v} is not a pendant vertex attached to {u}")
    return _deletion_identity(g, (u, v) if out[u] >> v & 1 else (v, u))


def quasi_compare(p: SkewCharPoly, q: SkewCharPoly) -> QuasiOrder:
    """Componentwise comparison of two equal-degree coefficient vectors."""
    if p.n != q.n:
        raise ValueError(f"only polynomials of equal degree compare; got n={p.n} and n={q.n}")
    le = all(a <= b for a, b in zip(p.coeffs, q.coeffs))
    ge = all(a >= b for a, b in zip(p.coeffs, q.coeffs))
    if le and ge:
        return QuasiOrder.EQUIVALENT
    if le:
        return QuasiOrder.STRICTLY_LESS
    if ge:
        return QuasiOrder.STRICTLY_GREATER
    return QuasiOrder.INCOMPARABLE
