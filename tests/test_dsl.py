"""The .dspec document format and its expression grammar."""

from __future__ import annotations

import random

import pytest

from laxweyl import Coordinates, ONE, ZERO
from laxweyl.dsl import (Document, DslError, parse_document,
                         parse_expression)

from conftest import atom_pool, random_jet_expression


@pytest.fixture(scope="module")
def c3():
    return Coordinates(("x", "y", "t"), ("u",))


MINIMAL = """# a tiny document
[coords]
base = x, y, t
unknowns = u

[equation]
solve u_xt = u_yy - u*u_tt - u_t^2
name = F
"""


class TestExpressionGrammar:
    def test_atoms(self, c3):
        assert (parse_expression("u_xxt", c3) - c3.jet("u", "xxt")).is_zero()
        assert (parse_expression("lam", c3) - c3.var("lam")).is_zero()
        assert (parse_expression("x", c3) - c3.var("x")).is_zero()
        assert (parse_expression("3/4", c3) - ONE * 3 / 4).is_zero()

    def test_precedence(self, c3):
        u = c3.var("u")
        lam = c3.var("lam")
        assert (parse_expression("lam^2 - u*lam + 1", c3)
                - (lam * lam - u * lam + 1)).is_zero()
        assert (parse_expression("-lam^2", c3) + lam * lam).is_zero()
        assert (parse_expression("(1 - u)/(1 + u)", c3)
                - (ONE - u) / (ONE + u)).is_zero()

    def test_power_binds_tighter_than_unary_minus(self, c3):
        lam = c3.var("lam")
        assert (parse_expression("-lam^2", c3) - (-(lam ** 2))).is_zero()

    def test_round_trip_seeded(self, c3):
        """Formatting then reparsing is the identity on canonical forms."""
        rng = random.Random(20260813)
        pool = atom_pool(c3, max_order=2, spectral=True)
        for _ in range(60):
            e = random_jet_expression(c3, rng, pool=pool)
            text = str(e)
            back = parse_expression(text, c3)
            assert (back - e).is_zero(), text

    def test_round_trip_corpus_pairs(self, dkp, manakov_santini,
                                     second_heavenly):
        for doc in (dkp, manakov_santini, second_heavenly):
            for e in (doc.pair.alpha, doc.pair.beta, doc.pair.m, doc.pair.n):
                back = parse_expression(str(e), doc.coords)
                assert (back - e).is_zero()


class TestExpressionErrors:
    @pytest.mark.parametrize("text,line,column,fragment", [
        ("u_q", 1, 1, "not a base coordinate"),
        ("lam ^ u", 1, 7, "exponent must be a positive integer"),
        ("u^0", 1, 3, "exponent must be a positive integer"),
        ("1/0", 1, 3, "division by zero"),
        ("w + 1", 1, 1, "unknown name"),
        ("(u", 1, 3, "expected ')'"),
        ("u +", 1, 4, "expected an expression"),
    ])
    def test_positions(self, c3, text, line, column, fragment):
        with pytest.raises(DslError) as err:
            parse_expression(text, c3)
        assert err.value.line == line
        assert err.value.column == column
        assert fragment in str(err.value)


class TestDocuments:
    def test_minimal(self):
        doc = parse_document(MINIMAL)
        assert doc.title == "a tiny document"
        assert doc.coords.base == ("x", "y", "t")
        assert doc.pair is None and doc.metric is None and doc.omega is None
        assert len(doc.system.equations) == 1
        assert doc.system.equations[0].label(doc.coords) == "F"

    def test_full_corpus_document(self, dkp):
        assert dkp.title == "dispersionless KP equation"
        assert dkp.pair is not None
        assert dkp.metric is not None
        assert dkp.omega is not None
        assert dkp.expect["verdict"] == "lax-pair"

    def test_two_equation_document(self, manakov_santini):
        assert len(manakov_santini.system.equations) == 2

    def test_four_dimensional_pair(self, second_heavenly):
        doc = second_heavenly
        assert doc.coords.dim == 4
        assert doc.pair.gamma is not None
        assert doc.pair.delta is not None

    @pytest.mark.parametrize("text,line,column,fragment", [
        ("[what]\nkey = 1\n", 1, 1, "unknown section"),
        ("[coords]\nbase = x, y, t\nunknowns = u\n\n[coords]\nbase = x, y, t\n"
         "unknowns = u\n", 5, 1, "duplicate section"),
        ("[coords]\nbase = x, y, t\nbase = x, y, t\nunknowns = u\n",
         3, 1, "duplicate key"),
        ("[coords]\nbase = x, y, t\nunknowns = u\nflavor = odd\n",
         4, 1, "unknown key"),
        ("[coords]\nbase = x, y, t\nunknowns = u\nspectral =\n",
         4, 11, "expected a single name"),
        ("[coords]\nbase = x, y, t\nunknowns = u\nspectral = 2\n",
         4, 12, "expected a single name"),
        ("[coords]\nbase = x, y, t\nunknowns = u\nspectral = a b\n",
         4, 12, "expected a single name"),
        ("[equation]\nsolve u_xt = u_yy\n", 1, 1,
         "must start with a [coords] section"),
        ("[coords]\nbase = x, y, t\nunknowns = u\n\n[equation]\n"
         "solve u = u_yy\n", 6, 7, "solved side must be a jet"),
    ])
    def test_document_errors(self, text, line, column, fragment):
        with pytest.raises(DslError) as err:
            parse_document(text)
        assert err.value.line == line
        assert err.value.column == column
        assert fragment in str(err.value)

    def test_metric_shape_checked(self):
        text = ("[coords]\nbase = x, y, t\nunknowns = u\n\n[equation]\n"
                "solve u_xt = u_yy\n\n[metric]\nrows = [[1, 0], [0, 1]]\n")
        with pytest.raises(DslError) as err:
            parse_document(text)
        assert "must be 3 x 3" in str(err.value)

    def test_metric_symmetry_checked(self):
        text = ("[coords]\nbase = x, y, t\nunknowns = u\n\n[equation]\n"
                "solve u_xt = u_yy\n\n[metric]\n"
                "rows = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]\n")
        with pytest.raises(DslError) as err:
            parse_document(text)
        assert "symmetric" in str(err.value)

    def test_gamma_requires_four_coordinates(self):
        text = ("[coords]\nbase = x, y, t\nunknowns = u\n\n[equation]\n"
                "solve u_xt = u_yy\n\n[pair]\nalpha = lam\nbeta = lam\n"
                "gamma = lam\nm = 0\nn = 0\n")
        with pytest.raises(DslError) as err:
            parse_document(text)
        assert "four base coordinates" in str(err.value)

    def test_expression_error_carries_document_position(self):
        text = ("[coords]\nbase = x, y, t\nunknowns = u\n\n[equation]\n"
                "solve u_xt = u_yy + w\n")
        with pytest.raises(DslError) as err:
            parse_document(text)
        assert err.value.line == 6
        assert "unknown name 'w'" in str(err.value)
