"""laxweyl: an exact symbolic workbench for dispersionless integrability.

The package verifies, by exact jet-space calculus over the rationals, the
correspondence between dispersionless Lax pairs of second-order PDE systems
and the curvature properties of their canonical conformal structure:
Einstein-Weyl in three independent variables, self-dual in four.

Layers, bottom to top:

- :mod:`laxweyl.expr`      exact multivariate rational functions;
- :mod:`laxweyl.jets`      coordinates, jet variables, total derivatives;
- :mod:`laxweyl.linalg`    exact linear algebra over the expression field;
- :mod:`laxweyl.ideal`     solved systems and reduction modulo their
  prolonged differential ideal, with membership certificates;
- :mod:`laxweyl.conformal` characteristic quadrics and conformal metrics;
- :mod:`laxweyl.weyl`      Weyl connections, Einstein-Weyl residuals,
  self-duality residuals, covector search;
- :mod:`laxweyl.lax`       lambda-dependent frames, Lax verdicts, normal
  lifts, metric recovery, the Monge invariant and the conic oracle;
- :mod:`laxweyl.dsl`       a small text format for systems and frames;
- :mod:`laxweyl.corpus`    bundled worked examples with expected outcomes;
- :mod:`laxweyl.cli`       the ``laxweyl`` command-line interface.
"""

from .errors import (
    LaxweylError,
    KernelError,
    DivisionByZero,
    NotPolynomialIn,
    RankingViolation,
    DuplicatePrincipal,
    UnderdeterminedSystem,
    IdealDenominator,
    OrderBudgetExceeded,
    NotAQuadric,
    DegenerateQuadric,
    SingularSample,
    PoleAtSample,
    DegenerateCongruence,
    DegenerateFrame,
    DegenerateLinearSystem,
    LambdaDependent,
    NoSolution,
    NonUnique,
    ReparametrizationError,
    DslError,
)
from .expr import Expr, Var, ZERO, ONE, poly_gcd, poly_divexact, expr_sqrt
from .jets import Coordinates, grid_point
from .ideal import SolvedEquation, SolvedSystem, rank_key
from .conformal import (
    Quadric,
    Metric,
    matrix_symbol,
    characteristic_polynomial,
    theta_decompose,
    characteristic_quadric,
    invert_to_metric,
    conformal_metric,
    conformal_equal,
    signature_at,
)
from .weyl import (
    Classification,
    ResidualTensor,
    christoffel_levi_civita,
    christoffel_weyl,
    riemann_tensor,
    ricci_tensor,
    ew_residual,
    weyl_curvature_tensor,
    dual_on_second_pair,
    SelfDualityReport,
    sd_residual,
    WeylFormSolution,
    solve_weyl_form,
)
from .lax import (
    LaxVerdict,
    LaxPair,
    LaxReport,
    verify_lax,
    characteristic_check,
    normal_lift_4d,
    monge_invariant,
    conic_oracle,
    recover_metric,
    weyl_lift_3d,
    congruence_from_vectors,
)
from .dsl import parse_document, parse_expression, Document

__version__ = "0.1.0"

__all__ = [
    "LaxweylError",
    "KernelError",
    "DivisionByZero",
    "NotPolynomialIn",
    "RankingViolation",
    "DuplicatePrincipal",
    "UnderdeterminedSystem",
    "IdealDenominator",
    "OrderBudgetExceeded",
    "NotAQuadric",
    "DegenerateQuadric",
    "SingularSample",
    "PoleAtSample",
    "DegenerateCongruence",
    "DegenerateFrame",
    "DegenerateLinearSystem",
    "LambdaDependent",
    "NoSolution",
    "NonUnique",
    "ReparametrizationError",
    "DslError",
    "Expr",
    "Var",
    "ZERO",
    "ONE",
    "poly_gcd",
    "poly_divexact",
    "Coordinates",
    "grid_point",
    "SolvedEquation",
    "SolvedSystem",
    "rank_key",
    "Quadric",
    "Metric",
    "matrix_symbol",
    "characteristic_polynomial",
    "theta_decompose",
    "characteristic_quadric",
    "invert_to_metric",
    "conformal_metric",
    "conformal_equal",
    "signature_at",
    "Classification",
    "ResidualTensor",
    "christoffel_levi_civita",
    "christoffel_weyl",
    "riemann_tensor",
    "ricci_tensor",
    "ew_residual",
    "expr_sqrt",
    "weyl_curvature_tensor",
    "dual_on_second_pair",
    "SelfDualityReport",
    "sd_residual",
    "WeylFormSolution",
    "solve_weyl_form",
    "LaxVerdict",
    "LaxPair",
    "LaxReport",
    "verify_lax",
    "characteristic_check",
    "normal_lift_4d",
    "monge_invariant",
    "conic_oracle",
    "recover_metric",
    "weyl_lift_3d",
    "congruence_from_vectors",
    "parse_document",
    "parse_expression",
    "Document",
    "__version__",
]
