"""The six worked examples the workloads start from, as plain data.

The benchmark builds its documents from these records with its own
generator (:mod:`symgen`), never by loading or calling ``laxweyl``, so a
change to the program cannot change its own inputs.  The records repeat
the systems, pairs, metrics and covectors of the bundled corpus; the
``expect`` maps are the corpus entries' hand-written ``[expect]`` sections,
which are the only references the benchmark does not derive by invariance.

Expressions are written in the ``.dspec`` expression syntax (``^`` for
powers), jets as ``u_xt`` with suffix letters in base-coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class BaseSystem:
    """One worked example: a solved system, an optional pair, the recorded
    conformal metric, an optional recorded Einstein-Weyl covector and the
    recorded expectations."""

    name: str
    title: str
    base: Tuple[str, ...]
    unknowns: Tuple[str, ...]
    equations: Tuple[Tuple[str, str], ...]      # (solved jet, right-hand side)
    pair: Optional[Dict[str, str]]
    metric: Tuple[Tuple[str, ...], ...]
    omega: Optional[Tuple[str, ...]]
    expect: Dict[str, str] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.base)


SYSTEMS: Dict[str, BaseSystem] = {}


def _add(system: BaseSystem) -> None:
    SYSTEMS[system.name] = system


_add(BaseSystem(
    name="dkp",
    title="dispersionless KP equation",
    base=("x", "y", "t"),
    unknowns=("u",),
    equations=(("u_xt", "u_yy - u*u_tt - u_t^2"),),
    pair={"alpha": "lam^2 - u", "beta": "lam",
          "m": "-lam*u_t - u_y", "n": "-u_t"},
    metric=(("-4*u", "0", "2"), ("0", "-1", "0"), ("2", "0", "0")),
    omega=("-2*u_t", "0", "0"),
    expect={"verdict": "lax-pair", "characteristic": "true",
            "normal": "true", "conic": "true",
            "curvature": "zero-mod-ideal"},
))

_add(BaseSystem(
    name="manakov_santini",
    title="Manakov-Santini system",
    base=("x", "y", "t"),
    unknowns=("u", "v"),
    equations=(
        ("u_xt", "-v_t*u_yt - (u - v_y)*u_tt + u_yy - u_t^2"),
        ("v_xt", "-v_t*v_yt - (u - v_y)*v_tt + v_yy"),
    ),
    pair={"alpha": "lam^2 + v_t*lam - u + v_y", "beta": "lam + v_t",
          "m": "-u_t*lam - u_y", "n": "-u_t"},
    metric=(("-v_t^2 - 4*u + 4*v_y", "v_t", "2"), ("v_t", "-1", "0"),
            ("2", "0", "0")),
    omega=("-1/2*v_t*v_tt - 2*u_t + v_yt", "1/2*v_tt", "0"),
    expect={"verdict": "lax-pair", "characteristic": "true",
            "normal": "false", "conic": "true",
            "curvature": "zero-mod-ideal"},
))

_add(BaseSystem(
    name="master_ew",
    title="generic Einstein-Weyl equation",
    base=("x", "y", "t"),
    unknowns=("a", "b"),
    equations=(
        ("a_xt", "-a*a_yt - b*a_tt + a_yy - a_y*a_t - a_t*b_t"),
        ("b_xt", "-a*b_yt - b*b_tt + b_yy - 2*a_y*b_t - b_t^2 + a_t*b_y"),
    ),
    pair={"alpha": "lam^2 - a*lam - b", "beta": "lam",
          "m": "-lam^2*a_t + lam*a*a_t - lam*a_y - lam*b_t + a*b_t - b_y",
          "n": "-lam*a_t - b_t"},
    metric=(("-a^2 - 4*b", "a", "2"), ("a", "-1", "0"), ("2", "0", "0")),
    omega=("-1/2*a*a_t - a_y - 2*b_t", "1/2*a_t", "0"),
    expect={"verdict": "lax-pair", "characteristic": "true",
            "normal": "true", "conic": "true",
            "curvature": "zero-mod-ideal"},
))

_add(BaseSystem(
    name="flat_counterexample",
    title="control case with a flat conformal structure",
    base=("x", "y", "t"),
    unknowns=("u",),
    equations=(("u_xx", "-u_yy - u_tt + u_x^2 + u_y*u_t"),),
    pair=None,
    metric=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")),
    omega=("0", "0", "0"),
    expect={"curvature": "identically-zero"},
))

_add(BaseSystem(
    name="second_heavenly",
    title="second heavenly equation",
    base=("z", "x", "y", "t"),
    unknowns=("u",),
    equations=(("u_zx", "-u_yt - u_xx*u_yy + u_xy^2"),),
    pair={"alpha": "lam + 2*u_xy + u_xx*u_yy/lam",
          "beta": "u_yy/lam",
          "gamma": "-u_xx/lam",
          "delta": "-1/lam",
          "m": "(lam^2*u_xyy + lam*u_xx*u_yyy + lam*u_yy*u_xxy"
               " + 2*u_xx*u_yy*u_xyy - 2*u_xy*u_yy*u_xxy + u_yy^2*u_xxx"
               " + lam*u_yyt + 2*u_yy*u_xyt + u_yy*u_zxx)/(lam)",
          "n": "(-lam*u_xxy - 2*u_xx*u_xyy + 2*u_xy*u_xxy - u_yy*u_xxx"
               " - 2*u_xyt - u_zxx)/(lam)"},
    metric=(("-4*u_yy", "2", "0", "4*u_xy"), ("2", "0", "0", "0"),
            ("0", "0", "0", "2"), ("4*u_xy", "0", "2", "-4*u_xx")),
    omega=None,
    expect={"verdict": "lax-pair", "characteristic": "true",
            "normal": "true", "orientation": "-"},
))

_add(BaseSystem(
    name="dkp_broken",
    title="dispersionless KP with a flipped sign",
    base=("x", "y", "t"),
    unknowns=("u",),
    equations=(("u_xt", "u_yy - u*u_tt + u_t^2"),),
    pair={"alpha": "lam^2 - u", "beta": "lam",
          "m": "-lam*u_t - u_y", "n": "-u_t"},
    metric=(("-4*u", "0", "2"), ("0", "-1", "0"), ("2", "0", "0")),
    omega=None,
    expect={"verdict": "not-integrable", "characteristic": "true",
            "conic": "true", "curvature": "none"},
))

ORDER: List[str] = ["dkp", "manakov_santini", "master_ew",
                    "flat_counterexample", "second_heavenly", "dkp_broken"]
