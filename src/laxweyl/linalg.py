"""Exact linear algebra over the expression field.

Everything here is pivoted Gaussian elimination with exact arithmetic; there
is no numerical tolerance anywhere.  Matrices are lists of lists of
:class:`~laxweyl.expr.Expr`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import DegenerateLinearSystem
from .expr import Expr, ONE, ZERO

Matrix = List[List[Expr]]
Vector = List[Expr]


def _complexity(x: Expr) -> int:
    """Pivot-selection heuristic: prefer structurally small entries."""
    return len(x.num) + len(x.den)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def rref(matrix: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form; returns ``(rref_matrix, pivot_columns)``."""
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        best = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                if best is None or _complexity(m[i][c]) < _complexity(m[best][c]):
                    best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        m[r] = [entry / piv for entry in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix: Matrix) -> List[Vector]:
    """Basis of the right kernel (free variables set to 1 one at a time)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * cols
        vec[f] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(vec)
    return basis


def solve(matrix: Matrix, rhs: Vector) -> Optional[Vector]:
    """One particular solution of ``matrix @ x = rhs``; None when
    inconsistent.  When solutions form a family this returns the one with
    free variables set to zero."""
    if not matrix:
        return []
    rows, cols = len(matrix), len(matrix[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def solve_unique(matrix: Matrix, rhs: Vector, what: str = "linear system") -> Vector:
    """Solution of a square or overdetermined system required to be unique."""
    if not matrix:
        return []
    cols = len(matrix[0])
    x = solve(matrix, rhs)
    if x is None:
        raise DegenerateLinearSystem("%s is inconsistent" % what)
    if rank(matrix) < cols:
        raise DegenerateLinearSystem("%s is underdetermined" % what)
    return x


def determinant(matrix: Matrix):
    """Determinant by exact Gaussian elimination with row pivoting."""
    n = len(matrix)
    if n == 0:
        return ONE
    m = [list(row) for row in matrix]
    det = ONE
    sign = 1
    for c in range(n):
        best = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                if best is None or _complexity(m[i][c]) < _complexity(m[best][c]):
                    best = i
        if best is None:
            return ZERO
        if best != c:
            m[c], m[best] = m[best], m[c]
            sign = -sign
        piv = m[c][c]
        det = det * piv
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                factor = m[i][c] / piv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    if sign < 0:
        det = -det
    return det


def minor(matrix: Matrix, i: int, j: int):
    sub = [row[:j] + row[j + 1:] for r, row in enumerate(matrix) if r != i]
    return determinant(sub)


def adjugate(matrix: Matrix) -> Matrix:
    """Adjugate (transpose cofactor matrix): ``matrix @ adj = det * I``."""
    n = len(matrix)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minor(matrix, i, j)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof
    return out


def invert(matrix: Matrix, what: str = "matrix") -> Matrix:
    n = len(matrix)
    det = determinant(matrix)
    if det.is_zero():
        raise DegenerateLinearSystem("%s is singular" % what)
    adj = adjugate(matrix)
    return [[entry / det for entry in row] for row in adj]
