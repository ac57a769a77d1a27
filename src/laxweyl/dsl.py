"""A small text format (``.dspec``) for PDE systems, frames and metrics.

A document is line-oriented.  ``#`` starts a comment (anywhere in a line);
blank lines are ignored.  Sections are introduced by a bracketed header on
its own line and hold ``key = value`` entries::

    # dispersionless KP
    [coords]
    base = x, y, t
    unknowns = u

    [equation]
    solve u_xt = u_yy - u*u_tt - u_t^2

    [pair]
    alpha = lam^2 - u
    beta = lam
    m = -lam*u_t - u_y
    n = -u_t

    [metric]
    rows = [[-4*u, 0, 2], [0, -1, 0], [2, 0, 0]]

    [weyl-form]
    omega = -2*u_t, 0, 0

    [expect]
    verdict = lax-pair

Sections
--------

``[coords]``
    ``base`` (three or four comma-separated single-letter names),
    ``unknowns`` (comma-separated names), optional ``spectral`` (one name,
    default ``lam``).  Required, and must come first.
``[equation]``
    One ``solve <jet> = <expression>`` line, optional ``name = <label>``.
    Repeat the section for systems of several equations.  At least one is
    required, and the solved jets must form a consistent choice of leading
    derivatives (one per unknown, maximal in the jet ordering).
``[pair]``
    ``alpha, beta, m, n`` and, with four base coordinates, also ``gamma``
    and ``delta``: the coefficients of the spectral frame.  Optional.
``[metric]``
    ``rows``: a symmetric matrix of expressions, row-major, bracketed like
    a nested list.  Optional.
``[weyl-form]``
    ``omega``: comma-separated covector components, one per base
    coordinate.  Optional.
``[expect]``
    Free-form string keys recording expected outcomes; interpreted by
    :mod:`laxweyl.corpus`, ignored here.

Expressions use ``+ - * / ^`` with the usual precedence, integer literals,
parentheses, and names: base coordinates, the spectral name, unknowns
(``u``), and jets written ``u_xxt`` (suffix letters are base coordinates,
order-insensitive).  The grammar accepts everything :class:`~laxweyl.expr.Expr`
prints, so parsing round-trips formatting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import DslError, LaxweylError
from .expr import Expr, Var
from .jets import Coordinates
from .ideal import SolvedEquation, SolvedSystem
from .conformal import Metric
from .lax import LaxPair

__all__ = ["Document", "parse_document", "parse_expression"]


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<op>[-+*/^()\[\],])"
)


@dataclass
class _Token:
    kind: str          # "name" | "int" | "op" | "end"
    text: str
    column: int        # 1-based within the source line


def _tokenize(text: str, line: int, column_base: int) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslError("unexpected character %r" % text[pos],
                           line, column_base + pos)
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(),
                                 column_base + match.start()))
        pos = match.end()
    tokens.append(_Token("end", "", column_base + len(text)))
    return tokens


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------


class _ExprParser:
    """Recursive descent over the token list; precedence low to high:
    additive, multiplicative, unary minus, power, atom."""

    def __init__(self, tokens: List[_Token], coords: Coordinates, line: int):
        self.tokens = tokens
        self.coords = coords
        self.line = line
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None) -> Exception:
        tok = tok or self.peek()
        return DslError(message, self.line, tok.column)

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise self.fail("expected %r" % op)
        return self.take()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    # -- grammar --------------------------------------------------------------

    def expression_list(self) -> List[Expr]:
        """One or more comma-separated expressions."""
        items = [self.expression()]
        while self.at_op(","):
            self.take()
            items.append(self.expression())
        return items

    def expression(self) -> Expr:
        value = self.term()
        while self.at_op("+", "-"):
            op = self.take().text
            right = self.term()
            value = value + right if op == "+" else value - right
        return value

    def term(self) -> Expr:
        value = self.unary()
        while self.at_op("*", "/"):
            op = self.take().text
            tok = self.peek()
            right = self.unary()
            if op == "*":
                value = value * right
            else:
                if right.is_zero():
                    raise self.fail("division by zero", tok)
                value = value / right
        return value

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        value = self.atom()
        if self.at_op("^"):
            self.take()
            tok = self.peek()
            if tok.kind != "int" or int(tok.text) == 0:
                raise self.fail("exponent must be a positive integer", tok)
            self.take()
            value = value ** int(tok.text)
        return value

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return Expr.number(int(tok.text))
        if tok.kind == "name":
            self.take()
            return self.resolve(tok)
        if self.at_op("("):
            self.take()
            value = self.expression()
            self.expect_op(")")
            return value
        raise self.fail("expected an expression")

    def resolve(self, tok: _Token) -> Expr:
        coords = self.coords
        name = tok.text
        if name == coords.spectral:
            return Expr.variable(coords.spectral_var())
        if name in coords.base:
            return Expr.variable(Var.base(name))
        if name in coords.unknowns:
            return coords.var(name)
        head, sep, tail = name.partition("_")
        if sep and head in coords.unknowns and tail:
            alpha = [0] * coords.dim
            for letter in tail:
                if letter not in coords.base:
                    raise self.fail(
                        "%r is not a base coordinate (in jet %r)"
                        % (letter, name), tok)
                alpha[coords.base_index(letter)] += 1
            return Expr.variable(coords.jet_var(head, tuple(alpha)))
        raise self.fail("unknown name %r" % name, tok)


def parse_expression(text: str, coords: Coordinates,
                     line: int = 1, column_base: int = 1) -> Expr:
    """Parse one expression; ``line``/``column_base`` seed error positions."""
    parser = _ExprParser(_tokenize(text, line, column_base), coords, line)
    value = parser.expression()
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.fail("unexpected %r after expression" % tok.text, tok)
    return value


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


@dataclass
class Document:
    """A parsed ``.dspec`` file."""

    coords: Coordinates
    system: SolvedSystem
    pair: Optional[LaxPair] = None
    metric: Optional[Metric] = None
    omega: Optional[List[Expr]] = None
    expect: Dict[str, str] = field(default_factory=dict)
    title: Optional[str] = None


@dataclass
class _Entry:
    value: str
    line: int
    column: int


@dataclass
class _Section:
    name: str
    line: int
    entries: Dict[str, _Entry]


_SECTION_RE = re.compile(r"^\[([a-z][a-z-]*)\]$")
_KEY_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_-]*)\s*=\s*")
_SOLVE_RE = re.compile(r"^solve\s+([A-Za-z][A-Za-z0-9_]*)\s*=\s*")

_SECTION_KEYS = {
    "coords": {"base", "unknowns", "spectral"},
    "equation": {"solve", "name"},
    "pair": {"alpha", "beta", "gamma", "delta", "m", "n"},
    "metric": {"rows"},
    "weyl-form": {"omega"},
}
# [expect] takes any key
_KNOWN_SECTIONS = set(_SECTION_KEYS) | {"expect"}


def _split_sections(text: str) -> Tuple[Optional[str], List[_Section]]:
    sections: List[_Section] = []
    title: Optional[str] = None
    current: Optional[_Section] = None
    seen_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        comment_at = raw.find("#")
        if comment_at >= 0:
            comment = raw[comment_at + 1:].strip()
            if not seen_content and title is None and comment:
                title = comment
            raw = raw[:comment_at]
        line = raw.strip()
        if not line:
            continue
        seen_content = True
        header = _SECTION_RE.match(line)
        if header:
            name = header.group(1)
            if name not in _KNOWN_SECTIONS:
                raise DslError("unknown section [%s]" % name, lineno,
                               raw.index("[") + 1)
            if name != "equation" and any(s.name == name for s in sections):
                raise DslError("duplicate section [%s]" % name, lineno,
                               raw.index("[") + 1)
            current = _Section(name, lineno, {})
            sections.append(current)
            continue
        if current is None:
            raise DslError("content before the first section header",
                           lineno, len(raw) - len(raw.lstrip()) + 1)
        solve = _SOLVE_RE.match(line)
        key_match = _KEY_RE.match(line)
        indent = len(raw) - len(raw.lstrip())
        if current.name == "equation" and solve:
            if "solve" in current.entries:
                raise DslError("duplicate key 'solve'", lineno, indent + 1)
            current.entries["solve-target"] = _Entry(
                solve.group(1), lineno, indent + solve.start(1) + 1)
            current.entries["solve"] = _Entry(
                line[solve.end():].strip(), lineno, indent + solve.end() + 1)
            continue
        if key_match:
            key, end = key_match.group(1), key_match.end()
            value, column = line[end:], indent + end + 1
        else:
            raise DslError("expected 'key = value'", lineno, indent + 1)
        allowed = _SECTION_KEYS.get(current.name)
        if allowed is not None and key not in allowed:
            raise DslError("unknown key %r in section [%s]"
                           % (key, current.name), lineno, indent + 1)
        if key in current.entries:
            raise DslError("duplicate key %r" % key, lineno, indent + 1)
        current.entries[key] = _Entry(value.strip(), lineno, column)
    return title, sections


def _require(section: _Section, key: str) -> _Entry:
    entry = section.entries.get(key)
    if entry is None:
        raise DslError("section [%s] needs a %r entry" % (section.name, key),
                       section.line, 1)
    return entry


def _is_name(text: str) -> bool:
    return re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", text) is not None


def _name_list(entry: _Entry) -> List[str]:
    names = [part.strip() for part in entry.value.split(",")]
    if not all(_is_name(n) for n in names):
        raise DslError("expected a comma-separated list of names",
                       entry.line, entry.column)
    return names


def _parse_coords(section: _Section) -> Coordinates:
    base = _name_list(_require(section, "base"))
    unknowns = _name_list(_require(section, "unknowns"))
    spectral_entry = section.entries.get("spectral")
    spectral = spectral_entry.value if spectral_entry else "lam"
    if not _is_name(spectral):
        raise DslError("expected a single name", spectral_entry.line,
                       spectral_entry.column)
    for name in base:
        if len(name) != 1:
            entry = _require(section, "base")
            raise DslError(
                "base coordinates must be single letters (got %r)" % name,
                entry.line, entry.column)
    try:
        return Coordinates(base=tuple(base), unknowns=tuple(unknowns),
                           spectral=spectral)
    except LaxweylError as exc:
        raise DslError(str(exc), section.line, 1)


def _parse_equation(section: _Section, coords: Coordinates) -> SolvedEquation:
    rhs_entry = _require(section, "solve")
    target = section.entries["solve-target"]
    head, sep, tail = target.value.partition("_")
    if not sep or head not in coords.unknowns or not tail:
        raise DslError("the solved side must be a jet like u_xt (got %r)"
                       % target.value, target.line, target.column)
    alpha = [0] * coords.dim
    for letter in tail:
        if letter not in coords.base:
            raise DslError("%r is not a base coordinate (in jet %r)"
                           % (letter, target.value), target.line, target.column)
        alpha[coords.base_index(letter)] += 1
    rhs = parse_expression(rhs_entry.value, coords, rhs_entry.line,
                           rhs_entry.column)
    name_entry = section.entries.get("name")
    label = name_entry.value if name_entry else None
    return SolvedEquation(head, tuple(alpha), rhs, name=label)


def _parse_pair(section: _Section, coords: Coordinates) -> LaxPair:
    def get(key: str) -> Expr:
        entry = _require(section, key)
        return parse_expression(entry.value, coords, entry.line, entry.column)

    alpha, beta = get("alpha"), get("beta")
    m, n = get("m"), get("n")
    gamma = delta = None
    if coords.dim == 4:
        gamma, delta = get("gamma"), get("delta")
    else:
        for key in ("gamma", "delta"):
            entry = section.entries.get(key)
            if entry is not None:
                raise DslError("%r needs four base coordinates" % key,
                               entry.line, entry.column)
    try:
        return LaxPair(coords, alpha, beta, m, n, gamma=gamma, delta=delta)
    except LaxweylError as exc:
        raise DslError(str(exc), section.line, 1)


def _parse_matrix(entry: _Entry, coords: Coordinates) -> List[List[Expr]]:
    tokens = _tokenize(entry.value, entry.line, entry.column)
    parser = _ExprParser(tokens, coords, entry.line)
    parser.expect_op("[")
    rows: List[List[Expr]] = []
    while True:
        parser.expect_op("[")
        rows.append(parser.expression_list())
        parser.expect_op("]")
        if parser.at_op(","):
            parser.take()
            continue
        break
    parser.expect_op("]")
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.fail("unexpected %r after matrix" % tok.text, tok)
    return rows


def _parse_metric(section: _Section, coords: Coordinates) -> Metric:
    entry = _require(section, "rows")
    rows = _parse_matrix(entry, coords)
    dim = coords.dim
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise DslError("the metric must be %d x %d" % (dim, dim),
                       entry.line, entry.column)
    for i in range(dim):
        for j in range(i + 1, dim):
            if rows[i][j] != rows[j][i]:
                raise DslError("the metric must be symmetric (entries %d,%d)"
                               % (i + 1, j + 1), entry.line, entry.column)
    return Metric(coords, [list(r) for r in rows])


def _parse_omega(section: _Section, coords: Coordinates) -> List[Expr]:
    entry = _require(section, "omega")
    tokens = _tokenize(entry.value, entry.line, entry.column)
    parser = _ExprParser(tokens, coords, entry.line)
    parts = parser.expression_list()
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.fail("unexpected %r after covector" % tok.text, tok)
    if len(parts) != coords.dim:
        raise DslError("the covector needs %d components" % coords.dim,
                       entry.line, entry.column)
    return parts


def parse_document(text: str, max_order: Optional[int] = None) -> Document:
    """Parse a full ``.dspec`` document; its system reduces under the
    jet-order budget ``max_order`` (see :class:`SolvedSystem`)."""
    title, sections = _split_sections(text)
    if not sections or sections[0].name != "coords":
        line = sections[0].line if sections else 1
        raise DslError("the document must start with a [coords] section",
                       line, 1)
    coords = _parse_coords(sections[0])
    equations = [_parse_equation(s, coords)
                 for s in sections if s.name == "equation"]
    if not equations:
        raise DslError("at least one [equation] section is required",
                       sections[0].line, 1)
    try:
        system = SolvedSystem(coords, tuple(equations), max_order=max_order)
    except LaxweylError as exc:
        first = next(s for s in sections if s.name == "equation")
        raise DslError(str(exc), first.line, 1)

    def find(name: str) -> Optional[_Section]:
        return next((s for s in sections if s.name == name), None)

    pair_section = find("pair")
    metric_section = find("metric")
    omega_section = find("weyl-form")
    expect_section = find("expect")
    return Document(
        coords=coords,
        system=system,
        pair=_parse_pair(pair_section, coords) if pair_section else None,
        metric=_parse_metric(metric_section, coords) if metric_section else None,
        omega=_parse_omega(omega_section, coords) if omega_section else None,
        expect={k: e.value for k, e in expect_section.entries.items()}
        if expect_section else {},
        title=title,
    )
