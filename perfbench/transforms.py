"""Transformations of a worked example and the verdicts they preserve.

Every benchmark document is the image of one example from
:mod:`systems` under a :class:`Transform`:

* a rational linear change of the base coordinates, ``x_old = M x_new``;
* a Moebius reparametrization of the spectral parameter,
  ``lam_old = (a lam + b)/(c lam + d)``;
* optionally a spectral shift ``lam_new = lam_old + h`` by a jet
  expression ``h``;
* optionally a vertical perturbation ``m -> m + j`` by a jet ``j`` that is
  not reducible modulo the system.

The first three preserve being a Lax pair, being normal, being
characteristic, lying on a conic and the Einstein-Weyl / self-duality
classification; the self-dual orientation flips exactly when
``det M < 0``.  A vertical perturbation adds ``j d_lam n - Y(j)`` to the
vertical residual, whose coefficient of ``lam`` (3D) or ``lam^0`` (4D) is
a total derivative of ``j`` that no reduction removes, so the pair stops
being integrable.  :func:`expected` applies these rules to the
hand-recorded expectations.  Nothing here imports ``sympy`` or
``laxweyl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from systems import BaseSystem

Matrix = Tuple[Tuple[Fraction, ...], ...]
IDENTITY_MOBIUS = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def jet_name(base: Sequence[str], unknown: str, alpha: Sequence[int]) -> str:
    """``u_xt``-style name with suffix letters in base order."""
    suffix = "".join(name * k for name, k in zip(base, alpha))
    return unknown + ("_" + suffix if suffix else "")


def split_jet(base: Sequence[str], unknowns: Sequence[str],
              name: str) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """Inverse of :func:`jet_name`; None for names that are not jets."""
    head, sep, tail = name.partition("_")
    if head not in unknowns or (sep and not tail):
        return None
    alpha = [0] * len(base)
    for letter in tail:
        if letter not in base:
            return None
        alpha[base.index(letter)] += 1
    return head, tuple(alpha)


def rank_key(unknowns: Sequence[str], unknown: str, alpha) -> tuple:
    """The workbench's documented jet ranking: total order, then the
    unknown's position, then the exponent vector (earlier base coordinates
    more significant)."""
    return (sum(alpha), list(unknowns).index(unknown), tuple(alpha))


def identity_matrix(dim: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                 for i in range(dim))


def diagonal(factors: Sequence[Fraction]) -> Matrix:
    n = len(factors)
    return tuple(tuple(Fraction(factors[i]) if i == j else Fraction(0)
                       for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


def shear(dim: int, i: int, j: int, s: Fraction) -> Matrix:
    """``x_old_i = x_new_i + s x_new_j``, other coordinates unchanged."""
    rows = [list(r) for r in identity_matrix(dim)]
    rows[i][j] = Fraction(s)
    return tuple(tuple(r) for r in rows)


def det(m: Matrix) -> Fraction:
    """Exact determinant by fraction-valued elimination."""
    rows = [list(r) for r in m]
    n = len(rows)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            out = -out
        out *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return out


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(tuple(r[n:]) for r in rows)


@dataclass(frozen=True)
class Transform:
    """``x_old = matrix x_new``, ``lam_old = (a lam + b)/(c lam + d)``, then
    an optional spectral shift by ``shift`` and vertical perturbation
    ``m -> m + jolt`` (jet-expression texts over the new coordinates)."""

    matrix: Matrix
    mobius: Tuple[Fraction, Fraction, Fraction, Fraction] = IDENTITY_MOBIUS
    shift: Optional[str] = None
    jolt: Optional[str] = None

    def __post_init__(self):
        a, b, c, d = self.mobius
        if a * d - b * c == 0:
            raise ValueError("degenerate Moebius map")
        if det(self.matrix) == 0:
            raise ValueError("singular coordinate change")

    @staticmethod
    def identity(dim: int) -> "Transform":
        return Transform(identity_matrix(dim))

    def inverse(self) -> "Transform":
        """The inverse coordinate change and Moebius map (only for
        transforms without shift or perturbation)."""
        if self.shift is not None or self.jolt is not None:
            raise ValueError("only linear-fractional transforms invert")
        a, b, c, d = self.mobius
        return Transform(inverse(self.matrix), (d, -b, -c, a))


@dataclass
class Document:
    """One generated ``.dspec`` document and the verdicts it must get."""

    source: str                # name of the worked example
    kind: str                  # transformation class, e.g. "shear-xt"
    text: str
    expect: Dict[str, str]
    checks: Tuple[str, ...]
    multi_term: bool = False   # some denominator has more than one term


def expected(system: BaseSystem, tr: Transform) -> Dict[str, str]:
    """Verdicts the image must get: the recorded ones, with the self-dual
    orientation flipped when the coordinate change reverses orientation and
    the verdict turned to ``not-integrable`` by a vertical perturbation."""
    out = dict(system.expect)
    if "orientation" in out and det(tr.matrix) < 0:
        out["orientation"] = "+" if out["orientation"] == "-" else "-"
    if tr.jolt is not None:
        out["verdict"] = "not-integrable"
        out.pop("normal", None)
    return out
