"""Exact sparse rational-function arithmetic over the rationals.

Every symbolic quantity in the workbench is an :class:`Expr`: a reduced,
canonically normalized fraction of two sparse multivariate polynomials with
``fractions.Fraction`` coefficients.  Variables are interned :class:`Var`
objects; the variable universe is open-ended (jet variables are minted on
demand as prolongation produces them).

Canonical form invariants:

* numerator and denominator share no polynomial factor (exact multivariate
  gcd, including monomial content),
* the denominator is monic with respect to the global graded-lexicographic
  monomial order,
* the zero expression is ``0/1``.

Equality of expressions is therefore structural, which is what makes
"reduces to zero" a decidable, exact verdict everywhere downstream.

Gcds first split by variable set: a common factor lies in the shared
variables, so operands over different sets reduce to a gcd of their
coefficients over those variables, and the subresultant PRS only ever
sees operands over one and the same set.

Other modules import no private name from this one: they work on
:class:`Expr` values, through its methods (``numerator``, ``denominator``,
``coeffs_in``, ``partial``, ``subs_var``, ``eval_rational``)
and the public polynomial API:

* :func:`poly_gcd` -- canonical gcd of two polynomial expressions;
* :func:`poly_divexact` -- exact quotient, or None;
* :func:`expr_sqrt` -- exact square root in the rational function field,
  or None.

One key, ``_m_key``, encodes the monomial order: leading monomials, the
division heap and printing all sort by it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, isqrt
from typing import Mapping, Optional, Sequence, Union

from .errors import DivisionByZero, NotPolynomialIn

# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------

KIND_BASE = 0  # independent (base) coordinate
KIND_SPECTRAL = 1  # spectral parameter
KIND_THETA = 2  # covector symbol component
KIND_PARAM = 3  # auxiliary constant (solver unknowns, formal symbols)
KIND_JET = 4  # derivative coordinate of an unknown


class Var:
    """An interned symbolic variable.

    ``kind`` fixes differentiation semantics (total derivatives act only on
    base and jet variables), ``data`` is the kind-specific identity used for
    interning, and ``key`` is the global ordering key used by the monomial
    order.  Two calls with the same ``(kind, data)`` return the same object,
    so identity comparison is sound.
    """

    __slots__ = ("kind", "data", "name", "key")
    _registry: dict = {}

    def __new__(cls, kind: int, data: tuple, name: str):
        ident = (kind, data)
        existing = cls._registry.get(ident)
        if existing is not None:
            return existing
        var = object.__new__(cls)
        var.kind = kind
        var.data = data
        var.name = name
        var.key = (kind,) + data
        cls._registry[ident] = var
        return var

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: "Var") -> bool:
        return self.key < other.key

    @staticmethod
    def base(name: str) -> "Var":
        return Var(KIND_BASE, (name,), name)

    @staticmethod
    def spectral(name: str = "lam") -> "Var":
        return Var(KIND_SPECTRAL, (name,), name)

    @staticmethod
    def theta(base_name: str) -> "Var":
        return Var(KIND_THETA, (base_name,), "th_" + base_name)

    @staticmethod
    def param(name: str) -> "Var":
        return Var(KIND_PARAM, (name,), name)

    @staticmethod
    def jet(unknown: str, base_names: tuple) -> "Var":
        """Jet variable for ``unknown`` differentiated by the (sorted) tuple
        of base-coordinate names ``base_names``; the empty tuple is the
        unknown itself."""
        if base_names:
            name = unknown + "_" + "".join(base_names)
        else:
            name = unknown
        return Var(KIND_JET, (unknown, len(base_names), base_names), name)


# ---------------------------------------------------------------------------
# Monomials: sorted tuples of (Var, positive exponent)
# ---------------------------------------------------------------------------

Mono = tuple
_M_ONE: Mono = ()


def _m_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va.key < vb.key:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _m_div(a: Mono, b: Mono) -> Optional[Mono]:
    """Return a/b if b divides a, else None."""
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while j < lb:
        if i >= la:
            return None
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            if ea < eb:
                return None
            if ea > eb:
                out.append((va, ea - eb))
            i += 1
            j += 1
        elif va.key < vb.key:
            out.append(a[i])
            i += 1
        else:
            return None
    out.extend(a[i:])
    return tuple(out)


def _m_gcd(a: Mono, b: Mono) -> Mono:
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, min(ea, eb)))
            i += 1
            j += 1
        elif va.key < vb.key:
            i += 1
        else:
            j += 1
    return tuple(out)


def _m_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def _m_degree_in(a: Mono, v: Var) -> int:
    for var, e in a:
        if var is v:
            return e
    return 0


def _m_key(a: Mono) -> tuple:
    """The monomial order, as a tuple key: graded lexicographic, where a
    smaller ``Var.key`` is more significant and a larger exponent there
    wins.  Ascending keys run from the leading monomial down.  Two distinct
    monomials of equal degree differ at some variable or exponent, so the
    comparison never falls off the end of the shorter key."""
    key = [-_m_degree(a)]
    for v, e in a:
        key.append(v.key)
        key.append(-e)
    return tuple(key)


# ---------------------------------------------------------------------------
# Polynomials: dict {Mono: Fraction}, zero coefficients never stored
# ---------------------------------------------------------------------------

Poly = dict

_P_ZERO: Poly = {}


def _p_const(c: Fraction) -> Poly:
    return {_M_ONE: c} if c else {}


_P_ONE = _p_const(Fraction(1))


def _p_var(v: Var) -> Poly:
    return {((v, 1),): Fraction(1)}


def _p_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _p_sub(a: Poly, b: Poly) -> Poly:
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s = s - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _m_mul(ma, mb)
            c = ca * cb
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _p_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: co * c for m, co in a.items()}


def _p_mul_mono(a: Poly, mono: Mono, c: Fraction) -> Poly:
    if not c:
        return {}
    return {_m_mul(m, mono): co * c for m, co in a.items()}


def _p_pow(a: Poly, n: int) -> Poly:
    result = _P_ONE
    base = a
    while n:
        if n & 1:
            result = _p_mul(result, base)
        base_needed = n > 1
        n >>= 1
        if base_needed and n:
            base = _p_mul(base, base)
    return result


def _p_leading(a: Poly) -> tuple:
    m = min(a, key=_m_key)
    return m, a[m]


def _p_degree_in(a: Poly, v: Var) -> int:
    if not a:
        return -1
    return max(_m_degree_in(m, v) for m in a)


def _p_vars(a: Poly) -> set:
    out = set()
    for m in a:
        for v, _ in m:
            out.add(v)
    return out


def _p_derivative(a: Poly, v: Var) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        for idx, (var, e) in enumerate(m):
            if var is v:
                if e == 1:
                    nm = m[:idx] + m[idx + 1:]
                else:
                    nm = m[:idx] + ((var, e - 1),) + m[idx + 1:]
                nc = c * e
                s = out.get(nm)
                if s is None:
                    out[nm] = nc
                else:
                    s = s + nc
                    if s:
                        out[nm] = s
                    else:
                        del out[nm]
                break
    return out


def _p_mono_content(a: Poly) -> Mono:
    """Greatest monomial dividing every term."""
    it = iter(a.keys())
    g = next(it)
    for m in it:
        if not g:
            break
        g = _m_gcd(g, m)
    return g


def _p_div_mono(a: Poly, mono: Mono) -> Poly:
    if not mono:
        return dict(a)
    return {_m_div(m, mono): c for m, c in a.items()}


def _p_int_primitive(a: Poly) -> tuple:
    """Return ``(content, primitive)`` with ``a = content * primitive``,
    the primitive part having coprime integer coefficients and positive
    leading coefficient."""
    if not a:
        return Fraction(0), {}
    den_lcm = 1
    for c in a.values():
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in a.values():
        num_gcd = _int_gcd(num_gcd, c.numerator * (den_lcm // c.denominator))
    content = Fraction(num_gcd, den_lcm)
    prim = {m: c / content for m, c in a.items()}
    _, lc = _p_leading(prim)
    if lc < 0:
        content = -content
        prim = _p_neg(prim)
    return content, prim


def _p_divexact(a: Poly, b: Poly) -> Optional[Poly]:
    """Exact polynomial division ``a / b``; None if it does not divide.

    The remainder is updated in place and its monomials are kept in a heap
    (stale entries are skipped when popped), so each quotient term costs
    one pass over ``b`` rather than a rescan of the whole remainder."""
    if not a:
        return {}
    if not b:
        return None
    if len(b) == 1:
        (mb, cb), = b.items()
        out = {}
        for m, c in a.items():
            q = _m_div(m, mb)
            if q is None:
                return None
            out[q] = c / cb
        return out
    mb, cb = _p_leading(b)
    tail = [(m, c) for m, c in b.items() if m != mb]
    rem = dict(a)
    heap = [(_m_key(m), m) for m in rem]
    heapify(heap)
    quot: Poly = {}
    while heap:
        mr = heappop(heap)[1]
        cr = rem.pop(mr, None)
        if cr is None:
            continue
        qm = _m_div(mr, mb)
        if qm is None:
            return None
        qc = cr / cb
        quot[qm] = qc
        for mt, ct in tail:
            m = _m_mul(mt, qm)
            c = rem.get(m)
            if c is None:
                rem[m] = -qc * ct
                heappush(heap, (_m_key(m), m))
            else:
                c -= qc * ct
                if c:
                    rem[m] = c
                else:
                    del rem[m]
    return quot


# -- multivariate gcd -------------------------------------------------------


def _p_to_univ(a: Poly, v: Var) -> dict:
    """View ``a`` as a univariate polynomial in ``v`` with Poly coefficients:
    dict {exponent: Poly}."""
    out: dict = {}
    for m, c in a.items():
        e = 0
        rest = m
        for idx, (var, ex) in enumerate(m):
            if var is v:
                e = ex
                rest = m[:idx] + m[idx + 1:]
                break
        # distinct monomials keep distinct rests within one exponent, and
        # stored coefficients are never zero
        out.setdefault(e, {})[rest] = c
    return out


def _p_from_univ(u: dict, v: Var) -> Poly:
    out: Poly = {}
    for e, p in u.items():
        if e == 0:
            out = _p_add(out, p)
        else:
            mono = ((v, e),)
            out = _p_add(out, {_m_mul(m, mono): c for m, c in p.items()})
    return out


def _u_degree(u: dict) -> int:
    return max((e for e, p in u.items() if p), default=-1)


def _u_lc(u: dict) -> Poly:
    return u[_u_degree(u)]


def _u_mul_poly(u: dict, p: Poly) -> dict:
    return {e: _p_mul(c, p) for e, c in u.items()}


def _u_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, p in b.items():
        s = _p_sub(out.get(e, {}), p)
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return {e: p for e, p in out.items() if p}


def _u_shift(u: dict, k: int) -> dict:
    return {e + k: p for e, p in u.items()}


def _u_divexact_poly(u: dict, p: Poly) -> dict:
    return {e: _p_divexact(c, p) for e, c in u.items()}


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of univariate views: lc(b)^(da-db+1) * a mod b."""
    da, db = _u_degree(a), _u_degree(b)
    lb = _u_lc(b)
    e = da - db + 1
    r = a
    while r and _u_degree(r) >= db:
        dr = _u_degree(r)
        lr = _u_lc(r)
        r = _u_sub(_u_mul_poly(r, lb), _u_shift(_u_mul_poly(b, lr), dr - db))
        e -= 1
    if e > 0:
        scale = _p_pow(lb, e)
        r = _u_mul_poly(r, scale)
    return r


def _p_gcd_many(polys: Sequence[Poly]) -> Poly:
    """Gcd of several polynomials, smallest first, stopping at a constant."""
    g: Poly = {}
    for p in sorted(polys, key=len):
        if not g:
            g = p
            continue
        if len(g) == 1 and _M_ONE in g:
            break
        g = _p_gcd(g, p)
    return g


def _p_coeffs_in(a: Poly, keep: set) -> list:
    """Coefficients of ``a`` as a polynomial in the variables outside
    ``keep``; each coefficient is a Poly in the variables of ``keep``."""
    out: dict = {}
    for m, c in a.items():
        inner = tuple(t for t in m if t[0] in keep)
        outer = tuple(t for t in m if t[0] not in keep)
        out.setdefault(outer, {})[inner] = c
    return list(out.values())


def _pick_main_var(a: Poly, b: Poly, common: set) -> Var:
    best = None
    best_score = None
    for v in common:
        score = (min(_p_degree_in(a, v), _p_degree_in(b, v)), v.key)
        if best_score is None or score < best_score:
            best_score = score
            best = v
    return best


def _p_gcd(a: Poly, b: Poly) -> Poly:
    """Multivariate polynomial gcd; the result is integer-primitive with
    positive leading coefficient (so it is canonical)."""
    if not a:
        return _p_int_primitive(b)[1] if b else {}
    if not b:
        return _p_int_primitive(a)[1]
    mca = _p_mono_content(a)
    mcb = _p_mono_content(b)
    mg = _m_gcd(mca, mcb)
    a = _p_div_mono(a, mca)
    b = _p_div_mono(b, mcb)
    # with the monomial content split off, a single term has no common
    # factor but a constant with anything
    if len(a) == 1 or len(b) == 1:
        return {mg: Fraction(1)}
    vars_a, vars_b = _p_vars(a), _p_vars(b)
    if vars_a == vars_b:
        g = _p_gcd_core(_p_int_primitive(a)[1], _p_int_primitive(b)[1],
                        vars_a)
    else:
        # a common factor lies in the shared variables, so it divides every
        # coefficient of either operand over the variables it has alone;
        # operands without a shared variable have none
        shared = vars_a & vars_b
        if not shared:
            return {mg: Fraction(1)}
        g = _p_gcd_many(_p_coeffs_in(a, shared) + _p_coeffs_in(b, shared))
        g = _p_int_primitive(g)[1]
    if mg:
        g = _p_mul_mono(g, mg, Fraction(1))
    return g


def _p_gcd_core(a: Poly, b: Poly, variables: set) -> Poly:
    """Gcd of integer-primitive operands of two or more terms each, both
    over the same ``variables``."""
    if a == b:
        return a
    # cheap trial divisions catch the very common "one divides the other"
    if len(a) <= 600 and len(b) <= 600:
        if len(b) <= len(a) and _p_divexact(a, b) is not None:
            return b
        if len(a) < len(b) and _p_divexact(b, a) is not None:
            return a
    v = _pick_main_var(a, b, variables)
    ua, ub = _p_to_univ(a, v), _p_to_univ(b, v)
    cont_a = _p_gcd_many(list(ua.values()))
    cont_b = _p_gcd_many(list(ub.values()))
    cont = _p_gcd(cont_a, cont_b)
    ua = _u_divexact_poly(ua, cont_a)
    ub = _u_divexact_poly(ub, cont_b)
    if _u_degree(ua) < _u_degree(ub):
        ua, ub = ub, ua
    # subresultant polynomial remainder sequence
    g_poly = _p_const(Fraction(1))
    h_poly = _p_const(Fraction(1))
    while True:
        delta = _u_degree(ua) - _u_degree(ub)
        r = _prem(ua, ub)
        if not r:
            result = ub
            break
        if _u_degree(r) == 0:
            result = None
            break
        ua = ub
        divisor = _p_mul(g_poly, _p_pow(h_poly, delta))
        ub = _u_divexact_poly(r, divisor)
        g_poly = _u_lc(ua)
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h_poly = g_poly
        else:
            h_new = _p_divexact(_p_pow(g_poly, delta), _p_pow(h_poly, delta - 1))
            h_poly = h_new
    if result is None:
        return _p_int_primitive(cont)[1] if cont else _p_const(Fraction(1))
    # primitive part of the last nonzero remainder with respect to v
    res_cont = _p_gcd_many(list(result.values()))
    result = _u_divexact_poly(result, res_cont)
    out = _p_mul(_p_from_univ(result, v), cont)
    return _p_int_primitive(out)[1]


# ---------------------------------------------------------------------------
# Expr: canonical fractions
# ---------------------------------------------------------------------------

Number = Union[int, Fraction]


def _coerce_fraction(x) -> Optional[Fraction]:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class Expr:
    """A reduced fraction of sparse polynomials; immutable and hashable."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly, _normalized: bool = False):
        if not _normalized:
            num, den = _normalize(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def number(value: Number) -> "Expr":
        return Expr(_p_const(Fraction(value)), dict(_P_ONE), _normalized=True)

    @staticmethod
    def variable(v: Var) -> "Expr":
        return Expr(_p_var(v), dict(_P_ONE), _normalized=True)

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and _M_ONE in self.den and len(self.den) == 1 \
            and (not self.num or _M_ONE in self.num)

    def is_polynomial(self) -> bool:
        return len(self.den) == 1 and _M_ONE in self.den

    def numerator(self) -> "Expr":
        """The numerator of the canonical fraction, as a polynomial Expr."""
        return Expr(dict(self.num), dict(_P_ONE), _normalized=True)

    def denominator(self) -> "Expr":
        """The denominator of the canonical fraction, as a polynomial Expr."""
        return Expr(dict(self.den), dict(_P_ONE), _normalized=True)

    def vars(self) -> set:
        return _p_vars(self.num) | _p_vars(self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return Expr(_p_add(self.num, other.num), dict(self.den))
        num = _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        den = _p_mul(self.den, other.den)
        return Expr(num, den)

    __radd__ = __add__

    def __sub__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            return self
        if self.den == other.den:
            return Expr(_p_sub(self.num, other.num), dict(self.den))
        num = _p_sub(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        den = _p_mul(self.den, other.den)
        return Expr(num, den)

    def __rsub__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        return Expr(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero expression")
        if self.is_zero():
            return ZERO
        return Expr(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __rtruediv__(self, other) -> "Expr":
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self) -> "Expr":
        return Expr(_p_neg(self.num), dict(self.den), _normalized=True)

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("zero expression to a negative power")
            num, den = _p_pow(self.den, -n), _p_pow(self.num, -n)
        else:
            num, den = _p_pow(self.num, n), _p_pow(self.den, n)
        # powers of a coprime pair stay coprime; only re-normalize the
        # denominator's leading coefficient
        if len(den) == 1 and _M_ONE in den:
            c = den[_M_ONE]
            if c != 1:
                num, den = _p_scale(num, 1 / c), dict(_P_ONE)
        else:
            _, lc = _p_leading(den)
            if lc != 1:
                num, den = _p_scale(num, 1 / lc), _p_scale(den, 1 / lc)
        return Expr(num, den, _normalized=True)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_expr(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((frozenset(self.num.items()), frozenset(self.den.items())))
            self._hash = h
        return h

    # -- calculus -----------------------------------------------------------

    def partial(self, v: Var) -> "Expr":
        """Partial derivative with respect to a single variable."""
        dn = _p_derivative(self.num, v)
        if len(self.den) == 1 and _M_ONE in self.den:
            c = self.den[_M_ONE]
            return Expr(_p_scale(dn, 1 / c), dict(_P_ONE))
        dd = _p_derivative(self.den, v)
        if not dd:
            return Expr(dn, dict(self.den))
        num = _p_sub(_p_mul(dn, self.den), _p_mul(self.num, dd))
        den = _p_mul(self.den, self.den)
        return Expr(num, den)

    def coeffs_in(self, v: Var) -> dict:
        """Coefficients {exponent: Expr} of an expression polynomial in ``v``
        (the denominator must be free of ``v``)."""
        if _p_degree_in(self.den, v) > 0:
            raise NotPolynomialIn("expression has %s in its denominator" % v)
        univ = _p_to_univ(self.num, v)
        return {
            e: Expr(p, dict(self.den))
            for e, p in univ.items()
            if p
        }

    def subs_var(self, v: Var, value: "Expr") -> "Expr":
        """Substitute a single variable by an expression (Horner scheme)."""
        if v not in self.vars():
            return self
        num = _horner(self.num, v, value)
        den = _horner(self.den, v, value)
        if den.is_zero():
            raise DivisionByZero("substitution made a denominator vanish")
        return num / den

    def subs(self, assignment: Mapping[Var, "Expr"]) -> "Expr":
        """Simultaneous substitution of several variables."""
        relevant = [v for v in assignment if v in self.vars()]
        if not relevant:
            return self
        num = _subs_poly(self.num, assignment)
        den = _subs_poly(self.den, assignment)
        if den.is_zero():
            raise DivisionByZero("substitution made a denominator vanish")
        return num / den

    def eval_rational(self, assignment: Mapping[Var, Fraction]) -> Fraction:
        """Evaluate at a rational point; every variable present must be
        assigned.  Raises ZeroDivisionError on a pole."""
        num = _eval_poly(self.num, assignment)
        den = _eval_poly(self.den, assignment)
        return num / den

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_polynomial():
            return _p_str(self.num)
        num = _p_str(self.num)
        den = _p_str(self.den)
        num_wrapped = "(%s)" % num if len(self.num) > 1 else num
        return "%s/(%s)" % (num_wrapped, den)

    def __repr__(self) -> str:
        return "Expr(%s)" % self


def _as_expr(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    c = _coerce_fraction(x)
    if c is None:
        return NotImplemented
    return Expr.number(c)


def _normalize(num: Poly, den: Poly) -> tuple:
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, dict(_P_ONE)
    if len(den) == 1 and _M_ONE in den:
        c = den[_M_ONE]
        if c == 1:
            return num, den
        return _p_scale(num, 1 / c), dict(_P_ONE)
    g = _p_gcd(num, den)
    if len(g) > 1 or _M_ONE not in g or g[_M_ONE] != 1:
        num = _p_divexact(num, g)
        den = _p_divexact(den, g)
    if len(den) == 1 and _M_ONE in den:
        c = den[_M_ONE]
        return (_p_scale(num, 1 / c), dict(_P_ONE)) if c != 1 else (num, den)
    _, lc = _p_leading(den)
    if lc != 1:
        inv = 1 / lc
        num = _p_scale(num, inv)
        den = _p_scale(den, inv)
    return num, den


def _horner(p: Poly, v: Var, value: Expr) -> Expr:
    univ = _p_to_univ(p, v)
    if not univ:
        return ZERO
    top = max(univ)
    acc = Expr(univ.get(top, {}), dict(_P_ONE))
    for e in range(top - 1, -1, -1):
        acc = acc * value
        c = univ.get(e)
        if c:
            acc = acc + Expr(c, dict(_P_ONE))
    return acc


def _subs_poly(p: Poly, assignment: Mapping[Var, Expr]) -> Expr:
    total = ZERO
    for m, c in p.items():
        term = Expr.number(c)
        for var, e in m:
            repl = assignment.get(var)
            if repl is None:
                term = term * Expr.variable(var) ** e
            else:
                term = term * repl ** e
        total = total + term
    return total


def _eval_poly(p: Poly, assignment: Mapping[Var, Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        val = c
        for var, e in m:
            x = assignment.get(var)
            if x is None:
                raise KeyError("no value for variable %s" % var)
            val *= x ** e
        total += val
    return total


def _p_str(p: Poly) -> str:
    if not p:
        return "0"
    monos = sorted(p, key=_m_key)
    parts = []
    for m in monos:
        c = p[m]
        factors = []
        for v, e in m:
            factors.append(v.name if e == 1 else "%s^%d" % (v.name, e))
        body = "*".join(factors)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = "%s*%s" % (abs(c), body)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append((" + " if c > 0 else " - ") + term)
    return "".join(parts)


ZERO = Expr.number(0)
ONE = Expr.number(1)


def poly_gcd(a: Expr, b: Expr) -> Expr:
    """Gcd of two polynomial expressions (canonical primitive form)."""
    if not (a.is_polynomial() and b.is_polynomial()):
        raise NotPolynomialIn("gcd requires polynomial expressions")
    return Expr(_p_gcd(a.num, b.num), dict(_P_ONE))


def poly_divexact(a: Expr, b: Expr) -> Optional[Expr]:
    """Exact quotient a/b of polynomial expressions, or None."""
    if not (a.is_polynomial() and b.is_polynomial()):
        raise NotPolynomialIn("exact division requires polynomial expressions")
    q = _p_divexact(a.num, b.num)
    if q is None:
        return None
    return Expr(q, dict(_P_ONE))


def expr_sqrt(e: Expr) -> Optional[Expr]:
    """Exact square root of an expression when one exists in the rational
    function field (None otherwise)."""
    if e.is_zero():
        return ZERO
    num = _poly_sqrt(e.num)
    if num is None:
        return None
    den = _poly_sqrt(e.den)
    if den is None:
        return None
    return Expr(num, den)


def _fraction_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    pn, pd = isqrt(c.numerator), isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


def _poly_sqrt(p: Poly) -> Optional[Poly]:
    """Square root of a polynomial when it is a perfect square: build the
    root term by term against twice the leading root term."""
    if not p:
        return {}
    lead_mono, lead_coeff = _p_leading(p)
    if any(exp % 2 for _, exp in lead_mono):
        return None
    c = _fraction_sqrt(lead_coeff)
    if c is None:
        return None
    half_mono = tuple((v, exp // 2) for v, exp in lead_mono)
    root = {half_mono: c}
    for _ in range(len(p) * len(p) + 2):
        rem = _p_sub(p, _p_mul(root, root))
        if not rem:
            return root
        rm, rc = _p_leading(rem)
        div = _m_div(rm, half_mono)
        if div is None:
            return None
        coeff = rc / (2 * c)
        new = root.get(div, Fraction(0)) + coeff
        if new:
            root[div] = new
        else:
            root.pop(div, None)
    return None
