"""Document generator: the worked examples under any :class:`Transform`.

Expressions are elements of ``sympy``'s sparse rational-function fields
(:class:`sympy.polys.fields.FracField` over ``QQ``), one field per jet
space: the base coordinates, ``lam`` and every jet up to one order above
the highest in the example.  Field elements are kept in lowest terms, so
equality is exact, and arithmetic on them costs about a millisecond per
document for diagonal scalings and maps of ``lam``.  Shears, whose
re-solved equations and re-normalized frames carry multi-term
denominators, take tens of milliseconds.  Never imports ``laxweyl``.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import sympy
from sympy import QQ
from sympy.polys.fields import FracField
from sympy.polys.rings import ring

from systems import SYSTEMS, BaseSystem
from transforms import Transform, inverse, jet_name, rank_key, split_jet

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
LAM = "lam"


class Space:
    """The rational functions on the jet space of one example, up to jets
    of a fixed order."""

    def __init__(self, base: Tuple[str, ...], unknowns: Tuple[str, ...],
                 order: int):
        self.base, self.unknowns = base, unknowns
        names = list(base) + [LAM]
        self.jets: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
        for unknown in unknowns:
            for k in range(order + 1):
                for alpha in _multi_indices(len(base), k):
                    self.jets[len(names)] = (unknown, alpha)
                    names.append(jet_name(base, unknown, alpha))
        self.field = FracField([sympy.Symbol(n) for n in names], QQ)
        self.ring = self.field.ring
        self.index = {n: i for i, n in enumerate(names)}
        self.lam = self.index[LAM]

    def var(self, name: str):
        return self.field.gens[self.index[name]]

    def parse(self, text: str):
        """A ``.dspec`` expression (``^`` for powers) as a field element."""
        names = {n: sympy.Symbol(n) for n in _NAME_RE.findall(text)}
        return self.field.from_expr(sympy.sympify(text.replace("^", "**"),
                                                  locals=names))

    def bump(self, i: int, k: int):
        """The jet of variable ``i`` differentiated once more by base
        coordinate ``k``."""
        unknown, alpha = self.jets[i]
        bumped = list(alpha)
        bumped[k] += 1
        return self.var(jet_name(self.base, unknown, bumped))

    def total_derivative(self, f, k: int):
        """``D_k f`` on the jet space, ``lam`` held fixed."""
        out = f.diff(self.var(self.base[k]))
        for i in sorted(_present(f.numer) | _present(f.denom)):
            if i in self.jets:
                out += f.diff(self.field.gens[i]) * self.bump(i, k)
        return out

    def substitute(self, f, images: Dict[int, tuple]):
        """``f`` with variable ``i`` replaced by ``P / Q`` for every
        ``images[i] = (P, Q)`` (ring elements; ``Q`` None for 1)."""
        if not images.keys() & (_present(f.numer) | _present(f.denom)):
            return f
        num, num_den = self._evaluate(f.numer, images)
        den, den_den = self._evaluate(f.denom, images)
        return self.field.new(num * den_den, num_den * den)

    def _evaluate(self, p, images):
        """Numerator and denominator of a polynomial under ``images``: a
        variable with a denominator ``Q`` is homogenized to the degree
        ``p`` has in it."""
        ring = self.ring
        degree = {i: max(p.degree(i), 0) for i, (_, q) in images.items()
                  if q is not None}
        powers: Dict[tuple, object] = {}

        def power(i, which, e):
            key = (i, which, e)
            if key not in powers:
                powers[key] = images[i][which] ** e
            return powers[key]

        num = ring.zero
        for monom, coeff in p.terms():
            kept = tuple(0 if i in images else e for i, e in enumerate(monom))
            term = ring.term_new(kept, coeff)
            for i in images:
                if monom[i]:
                    term *= power(i, 0, monom[i])
                if i in degree and degree[i] > monom[i]:
                    term *= power(i, 1, degree[i] - monom[i])
            num += term
        den = ring.one
        for i, d in degree.items():
            den *= power(i, 1, d)
        return num, den


def _multi_indices(n: int, k: int):
    """Exponent vectors of length ``n`` and total ``k``."""
    for cut in itertools.combinations(range(k + n - 1), n - 1):
        bounds = (-1,) + cut + (k + n - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(n))


def _present(p) -> set:
    """Indices of the variables that occur in a polynomial."""
    out = set()
    for monom in p.monoms():
        out.update(i for i, e in enumerate(monom) if e)
    return out


def _q(x) -> object:
    return QQ(x.numerator, x.denominator)


@lru_cache(maxsize=None)
def _operators(n: int):
    """Polynomial ring in the derivations ``d0 .. d(n-1)``."""
    return ring(["d%d" % i for i in range(n)], QQ)


@lru_cache(maxsize=None)
def space(base: Tuple[str, ...], unknowns: Tuple[str, ...],
          order: int) -> Space:
    return Space(base, unknowns, order)


def system_texts(s: BaseSystem) -> List[str]:
    texts = [t for eq in s.equations for t in eq]
    texts += list((s.pair or {}).values())
    texts += [x for row in s.metric for x in row] + list(s.omega or ())
    return texts


def space_for(s: BaseSystem, extra: int) -> Space:
    """The space of ``s``: jets up to ``extra`` orders above the highest
    jet it writes."""
    order = 0
    for text in system_texts(s):
        for name in _NAME_RE.findall(text):
            jet = split_jet(s.base, s.unknowns, name)
            if jet is not None:
                order = max(order, sum(jet[1]))
    return space(tuple(s.base), tuple(s.unknowns), order + extra)


def parse_system(s: BaseSystem, extra: int = 0):
    """The space of ``s`` (jets up to ``extra`` orders above its highest)
    and its equations, pair, metric and covector as field elements."""
    sp = space_for(s, extra)
    eqs = [(sp.var(target), sp.parse(rhs)) for target, rhs in s.equations]
    pair = {k: sp.parse(v) for k, v in s.pair.items()} if s.pair else None
    metric = [[sp.parse(x) for x in row] for row in s.metric]
    omega = [sp.parse(x) for x in s.omega] if s.omega else None
    return sp, eqs, pair, metric, omega


@lru_cache(maxsize=None)
def source(name: str, extra: int):
    """:func:`parse_system` of one bundled example (parsed once)."""
    return parse_system(SYSTEMS[name], extra)


def frame_action(sp: Space, pair: Dict[str, object], which: str, f):
    """Action of X (``which='x'``) or Y of a positional pair on ``f``,
    vertical part included."""
    if len(sp.base) == 3:
        comps = ([1, 0, -pair["alpha"]] if which == "x"
                 else [0, 1, -pair["beta"]])
    elif which == "x":
        comps = [1, 0, -pair["alpha"], -pair["beta"]]
    else:
        comps = [0, 1, -pair["gamma"], -pair["delta"]]
    out = sp.field.zero
    for k, cf in enumerate(comps):
        if cf != 0:
            out += cf * sp.total_derivative(f, k)
    vertical = pair["m"] if which == "x" else pair["n"]
    return out + vertical * f.diff(sp.var(LAM))


def _images(sp: Space, tr: Transform) -> Dict[int, tuple]:
    """Old variables in terms of new ones: ``x_old = M x_new``, old jets
    through ``d_j = sum_i Minv[i][j] d~_i``, and the Moebius map of
    ``lam``.  Variables that map to themselves are left out."""
    ring = sp.ring
    n = len(sp.base)
    images: Dict[int, tuple] = {}
    m = tr.matrix
    if any(m[i][j] != (i == j) for i in range(n) for j in range(n)):
        minv = inverse(m)
        gens = ring.gens
        for j in range(n):
            images[j] = (sum((_q(m[j][i]) * gens[i] for i in range(n)),
                             ring.zero), None)
        ops, *d = _operators(n)
        for index, (unknown, alpha) in sp.jets.items():
            op = ops.one
            for j, k in enumerate(alpha):
                op *= sum((_q(minv[i][j]) * d[i] for i in range(n)),
                          ops.zero) ** k
            image = ring.zero
            for mono, c in op.terms():
                image += c * gens[sp.index[jet_name(sp.base, unknown, mono)]]
            images[index] = (image, None)
    a, b, c, d = (_q(x) for x in tr.mobius)
    if (a, b, c, d) != (1, 0, 0, 1):
        lam = ring.gens[sp.lam]
        if c == 0:
            images[sp.lam] = ((a * lam + b) * (1 / d), None)
        else:
            images[sp.lam] = (a * lam + b, c * lam + d)
    return images


def _renormalized(field, n: int, minv, xs, ys, vx, vy) -> Dict[str, object]:
    """Positional pair of the frame ``X = sum_j xs[j] D_j + vx d_lam`` (and
    ``Y``) over the new coordinates, where ``D_j = sum_i Minv[i][j] D~_i``:
    the frame is multiplied by the inverse of its first 2x2 block."""
    xt = [sum((minv[i][j] * xs[j] for j in range(n) if minv[i][j]),
              field.zero) for i in range(n)]
    yt = [sum((minv[i][j] * ys[j] for j in range(n) if minv[i][j]),
              field.zero) for i in range(n)]
    block = xt[0] * yt[1] - xt[1] * yt[0]
    inv = [[yt[1] / block, -xt[1] / block], [-yt[0] / block, xt[0] / block]]
    f1 = [inv[0][0] * xt[k] + inv[0][1] * yt[k] for k in range(n)]
    f2 = [inv[1][0] * xt[k] + inv[1][1] * yt[k] for k in range(n)]
    new = {"m": inv[0][0] * vx + inv[0][1] * vy,
           "n": inv[1][0] * vx + inv[1][1] * vy}
    if n == 3:
        new["alpha"], new["beta"] = -f1[2], -f2[2]
    else:
        new["alpha"], new["beta"] = -f1[2], -f1[3]
        new["gamma"], new["delta"] = -f2[2], -f2[3]
    return new


def transform(system: BaseSystem, tr: Transform) -> Dict[str, object]:
    """Image of an example under ``tr``: equations (solved again for the
    highest-ranked jet), pair in positional frame form, metric and
    covector, as field elements over the new variables."""
    # a spectral shift differentiates the pair once more; every space is
    # kept as small as it can be, since gcds cost more with every variable
    extra = 0 if tr.shift is None else 1
    if SYSTEMS.get(system.name) is system:
        sp, eqs, pair, metric, omega = source(system.name, extra)
    else:
        sp, eqs, pair, metric, omega = parse_system(system, extra)
    n = len(sp.base)
    field = sp.field
    images = _images(sp, tr)
    m = [[_q(x) for x in row] for row in tr.matrix]
    minv = [[_q(x) for x in row] for row in inverse(tr.matrix)]
    a, b, c, d = (_q(x) for x in tr.mobius)

    def move(f):
        return sp.substitute(f, images)

    equations = []
    for target, rhs in eqs:
        residual = move(target - rhs).numer
        jets = [(rank_key(sp.unknowns, *sp.jets[i]), i)
                for i in _present(residual) if i in sp.jets]
        _, principal = max(jets)
        coeff = residual.diff(principal)
        if principal in _present(coeff):
            raise ValueError("equation is not linear in its principal jet")
        equations.append((sp.ring.symbols[principal].name,
                          field.gens[principal] - field.new(residual, coeff)))

    moved = [[move(e) for e in row] for row in metric]
    out: Dict[str, object] = {"equations": equations}
    out["metric"] = [[sum((m[i][p] * m[j][q] * moved[i][j]
                           for i in range(n) for j in range(n)
                           if m[i][p] and m[j][q]), field.zero)
                      for q in range(n)] for p in range(n)]
    out["omega"] = None
    if omega is not None:
        out["omega"] = [sum((m[i][p] * move(omega[i]) for i in range(n)
                             if m[i][p]), field.zero) for p in range(n)]
    out["pair"] = None
    if pair is None:
        return out

    if n == 3:
        xs = [field.one, field.zero, -pair["alpha"]]
        ys = [field.zero, field.one, -pair["beta"]]
    else:
        xs = [field.one, field.zero, -pair["alpha"], -pair["beta"]]
        ys = [field.zero, field.one, -pair["gamma"], -pair["delta"]]
    lam = sp.var(LAM)
    dphi = (a * d - b * c) / (c * lam + d) ** 2
    vx, vy = move(pair["m"]) / dphi, move(pair["n"]) / dphi
    if images.keys() <= {sp.lam}:
        # the base coordinates stay, so the frame keeps its normal form
        new = {k: move(v) for k, v in pair.items() if k not in ("m", "n")}
        new["m"], new["n"] = vx, vy
    else:
        new = _renormalized(field, n, minv, [move(e) for e in xs],
                            [move(e) for e in ys], vx, vy)
    if tr.shift is not None:
        h = sp.parse(tr.shift)
        if not h.denom.is_ground:
            raise ValueError("a spectral shift must be a jet polynomial")
        lam_new = lam - h
        back = {sp.lam: (lam_new.numer, lam_new.denom)}
        shifted = {k: sp.substitute(v, back) for k, v in new.items()
                   if k not in ("m", "n")}
        shifted["m"] = sp.substitute(frame_action(sp, new, "x", h)
                                     + new["m"], back)
        shifted["n"] = sp.substitute(frame_action(sp, new, "y", h)
                                     + new["n"], back)
        new = shifted
    if tr.jolt is not None:
        new["m"] = new["m"] + sp.parse(tr.jolt)
    out["pair"] = new
    return out


def poly_text(p) -> str:
    return str(p).replace("**", "^")


def text(f) -> str:
    """Canonical ``.dspec`` text of a field element."""
    num, den = f.numer, f.denom
    if den.is_ground:
        return poly_text(num.quo_ground(den.LC))
    return "(%s)/(%s)" % (poly_text(num), poly_text(den))


def pair_keys(dim: int):
    return ("alpha", "beta", "m", "n") if dim == 3 else (
        "alpha", "beta", "gamma", "delta", "m", "n")


def render(system: BaseSystem, image: Dict[str, object], title: str,
           geometry: bool = True) -> str:
    """``.dspec`` text of a transformed example (metric and covector only
    when ``geometry``)."""
    lines = ["# " + title, "", "[coords]",
             "base = " + ", ".join(system.base),
             "unknowns = " + ", ".join(system.unknowns)]
    for principal, rhs in image["equations"]:
        lines += ["", "[equation]", "solve %s = %s" % (principal, text(rhs))]
    pair = image["pair"]
    if pair is not None:
        lines += ["", "[pair]"]
        lines += ["%s = %s" % (k, text(pair[k])) for k in pair_keys(system.dim)]
    if geometry:
        rows = ", ".join("[%s]" % ", ".join(text(e) for e in row)
                         for row in image["metric"])
        lines += ["", "[metric]", "rows = [%s]" % rows]
        if image["omega"] is not None:
            lines += ["", "[weyl-form]",
                      "omega = " + ", ".join(text(e) for e in image["omega"])]
    return "\n".join(lines) + "\n"


def image_multi_term(image: Dict[str, object]) -> bool:
    """Whether any equation or pair coefficient has a multi-term
    denominator."""
    exprs = [rhs for _, rhs in image["equations"]]
    exprs += list((image["pair"] or {}).values())
    return any(len(e.denom.terms()) > 1 for e in exprs)


def read_system(text: str, like: Optional[BaseSystem] = None) -> BaseSystem:
    """A generated ``.dspec`` document read back as an example (expression
    texts as written).  Name, title and expectations come from ``like``."""
    coords: Dict[str, Tuple[str, ...]] = {}
    eqs: List[Tuple[str, str]] = []
    pair: Dict[str, str] = {}
    metric: Tuple[Tuple[str, ...], ...] = ()
    omega = None
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if section == "coords":
            coords[key] = tuple(v.strip() for v in value.split(","))
        elif section == "equation" and key.startswith("solve "):
            eqs.append((key.split()[1], value))
        elif section == "pair":
            pair[key] = value
        elif section == "metric":
            metric = tuple(tuple(row.split(", "))
                           for row in value[2:-2].split("], ["))
        elif section == "weyl-form":
            omega = tuple(value.split(", "))
    return BaseSystem(like.name + "-image" if like else "document",
                      like.title if like else "", coords["base"],
                      coords["unknowns"], tuple(eqs), pair or None, metric,
                      omega, dict(like.expect) if like else {})
