"""The three benchmark workloads, as seeded rounds of documents.

A run checks whole rounds.  Every round of a workload has the same make-up
(the same source examples under the same classes of transformation, in the
same order); only the seeded parameters differ, so each round is fresh text
and the share of each class, and of any failing operation, is the same in
every run.  ``python3 perfbench/workloads.py`` prints the make-up of each
workload with the measured share of documents that have multi-term
denominators and the share that reuse a system seen earlier in the run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import checks as C
import symgen
from systems import SYSTEMS
from transforms import (Document, Transform, diagonal, expected,
                        identity_matrix, matmul, shear)

ORBIT_CHECKS = {
    "dkp": (C.LAX, C.NORMAL, C.CHARACTERISTIC, C.CONIC, C.METRIC, C.SOLVE),
    "manakov_santini": (C.LAX, C.NORMAL, C.CHARACTERISTIC, C.CONIC, C.METRIC,
                        C.EW),
    "master_ew": (C.LAX, C.NORMAL, C.CHARACTERISTIC, C.CONIC, C.METRIC, C.EW),
    "flat_counterexample": (C.METRIC, C.SOLVE),
    "dkp_broken": (C.LAX, C.CHARACTERISTIC, C.CONIC, C.METRIC, C.SOLVE),
    "second_heavenly": (C.LAX, C.NORMAL, C.CHARACTERISTIC, C.METRIC, C.SD),
}
ORBIT_GEOMETRY = (C.METRIC, C.SOLVE, C.EW, C.SD)

PENCIL_3D = (C.LAX, C.CHARACTERISTIC, C.CONIC, C.MONGE)
PENCIL_4D = (C.LAX, C.CHARACTERISTIC)
PENCIL_GEOMETRY = (C.CHARACTERISTIC, C.CONIC, C.MONGE)


def _ratio(rng: random.Random, top: int = 5) -> Fraction:
    """A positive rational p/q with 1 <= p, q <= top, not 1."""
    while True:
        x = Fraction(rng.randint(1, top), rng.randint(1, top))
        if x != 1:
            return x


def _nonzero(rng: random.Random, top: int = 5) -> Fraction:
    return _ratio(rng, top) * rng.choice((1, -1))


POWERS_OF_TWO = (Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(4))


def _jets(name: str, max_order: int = 2) -> List[str]:
    """Jets of order <= max_order that no equation of ``name`` reduces."""
    system = SYSTEMS[name]
    principal = [target for target, _ in system.equations]
    out = []
    base = system.base
    for unknown in system.unknowns:
        out.append(unknown)
        for i in range(len(base)):
            out.append("%s_%s" % (unknown, base[i]))
            if max_order >= 2:
                for j in range(i, len(base)):
                    jet = "%s_%s%s" % (unknown, base[i], base[j])
                    if not any(_divides(p, jet, base) for p in principal):
                        out.append(jet)
    return out


def _divides(principal: str, jet: str, base: Sequence[str]) -> bool:
    """Is ``jet`` the principal jet or one of its derivatives?"""
    head_p, _, tail_p = principal.partition("_")
    head_j, _, tail_j = jet.partition("_")
    return head_p == head_j and all(tail_j.count(b) >= tail_p.count(b)
                                    for b in base)


class Workload:
    """Seeded document rounds for one workload; ``round(r)`` is the r-th
    round of the run, with every document text distinct within the run."""

    name = ""
    why = ""
    geometry: Tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.seen = set()

    def rng(self, r: int, slot: int) -> random.Random:
        return random.Random("%s:%d:%d:%d" % (self.name, self.seed, r, slot))

    def classes(self) -> List[Tuple[str, str]]:
        """(source, kind) of each document of a round, in order."""
        raise NotImplementedError

    def make(self, source: str, kind: str, rng: random.Random) -> Document:
        raise NotImplementedError

    def round(self, r: int) -> List[Document]:
        docs = []
        for slot, (source, kind) in enumerate(self.classes()):
            rng = self.rng(r, slot)
            for _ in range(100):
                doc = self.make(source, kind, rng)
                if doc.text not in self.seen:
                    break
            else:
                raise RuntimeError("no fresh %s %s document after 100 draws"
                                   % (source, kind))
            self.seen.add(doc.text)
            docs.append(doc)
        return docs


def _document(source: str, kind: str, tr: Transform,
              checks: Tuple[str, ...], geometry: bool = True) -> Document:
    system = SYSTEMS[source]
    image = symgen.transform(system, tr)
    text = symgen.render(system, image, "%s %s" % (system.title, kind),
                         geometry=geometry)
    return Document(source, kind, text, expected(system, tr), checks,
                    symgen.image_multi_term(image))


class ScaledCorpus(Workload):
    name = "scaled-corpus"
    why = ("every corpus entry under seeded diagonal rescalings of the base "
           "coordinates and lam; monomial denominators only")
    geometry = ORBIT_GEOMETRY

    def classes(self):
        # dKP, the flat control and the 4D entry twice: the medians and the
        # 90th percentile then fall inside a band of one cost, not on the
        # edge between two
        return [("dkp", "scaled"), ("dkp", "scaled"),
                ("manakov_santini", "scaled"), ("master_ew", "scaled"),
                ("flat_counterexample", "scaled"),
                ("flat_counterexample", "scaled"),
                ("second_heavenly", "scaled"), ("second_heavenly", "scaled"),
                ("dkp_broken", "scaled")]

    def make(self, source, kind, rng):
        system = SYSTEMS[source]
        scale = [_nonzero(rng) for _ in range(system.dim)]
        tr = Transform(diagonal(scale), (_ratio(rng), Fraction(0),
                                         Fraction(0), Fraction(1)))
        return _document(source, kind, tr, ORBIT_CHECKS[source])


# Shears x_old_i = x_new_i + s x_new_j, by (i, j).  Moving the third
# coordinate into the first two gives dKP's re-solved equation and
# re-normalized frame multi-term denominators.  Of those, y -> y + s t
# (about 2 s per document) is kept; x -> x + s t (6 to 11 s) would be a
# few samples that outweigh a whole round, and the same shears of the
# two-unknown systems take over 20 s per check.
LIGHT_SHEARS = {"shear-xy": (0, 1), "shear-yx": (1, 0),
                "shear-tx": (2, 0), "shear-ty": (2, 1)}
HEAVY_SHEARS = {"shear-yt": (1, 2)}


class ShearOrbit(Workload):
    name = "shear-orbit"
    why = ("3D entries under seeded shears composed with positive scalings; "
           "shearing t into y gives multi-term denominators")
    geometry = ORBIT_GEOMETRY

    def rng(self, r: int, slot: int) -> random.Random:
        # The multi-term documents take most of a run, and their cost still
        # depends on their parameters; draw those from a sequence that is the
        # same in every run, so runs with different seeds compare.
        if self.classes()[slot][1] in HEAVY_SHEARS:
            return random.Random("%s:heavy:%d:%d" % (self.name, r, slot))
        return super().rng(r, slot)

    def classes(self):
        # Seven multi-term documents (about 2 s each, most of it in the
        # gcd) and three polynomial ones (tens to hundreds of ms): the
        # medians and the 90th percentile of every phase fall among the
        # multi-term documents, for one round or more.
        return [("dkp", "shear-yt"), ("dkp_broken", "shear-yt"),
                ("manakov_santini", "shear-tx"), ("dkp", "shear-yt"),
                ("dkp_broken", "shear-yt"), ("master_ew", "shear-ty"),
                ("dkp", "shear-yt"), ("dkp_broken", "shear-yt"),
                ("flat_counterexample", "shear-xy"), ("dkp", "shear-yt")]

    def make(self, source, kind, rng):
        system = SYSTEMS[source]
        i, j = {**LIGHT_SHEARS, **HEAVY_SHEARS}[kind]
        # s = 1/2 or -1/2 and power-of-two scalings: the cost of a sheared
        # document swings by a third over s in {1/2, 1, 2} and scalings
        # p/q <= 3, by under a tenth here, and the multi-term documents
        # are most of a run's time
        s = Fraction(rng.choice((1, -1)), 2)
        scale = tuple(rng.choice(POWERS_OF_TWO) for _ in range(3))
        m = matmul(shear(3, i, j, s), diagonal(scale))
        checks = ORBIT_CHECKS[source]
        if system.pair is not None:
            checks = checks + (C.RECOVER,)
        return _document(source, kind, Transform(m), checks)


class PencilScreen(Workload):
    name = "pencil-screen"
    why = ("many candidate pencils against three fixed systems: Moebius "
           "images, spectral shifts and non-integrable vertical perturbations")
    geometry = PENCIL_GEOMETRY

    def classes(self):
        return [("dkp", "mobius"), ("dkp", "mobius"), ("dkp", "mobius"),
                ("dkp", "affine"), ("dkp", "shift"), ("dkp", "perturbed"),
                ("master_ew", "mobius"), ("master_ew", "mobius"),
                ("master_ew", "affine"), ("master_ew", "perturbed"),
                ("second_heavenly", "scaled"),
                ("second_heavenly", "perturbed")]

    def make(self, source, kind, rng):
        system = SYSTEMS[source]
        dim = system.dim
        ident = identity_matrix(dim)
        one, zero = Fraction(1), Fraction(0)
        if kind == "mobius":
            while True:
                a, b, c, d = (_nonzero(rng, 4) for _ in range(4))
                if a * d != b * c:
                    break
            tr = Transform(ident, (a, b, c, d))
        elif kind == "affine":
            tr = Transform(ident, (_nonzero(rng, 9), _nonzero(rng, 9),
                                   zero, one))
        elif kind == "scaled":
            tr = Transform(ident, (_ratio(rng, 99), zero, zero, one))
        elif kind == "shift":
            jets = _jets(source, max_order=1)
            h = " + ".join("%s*%s" % (_nonzero(rng, 4), jet)
                           for jet in rng.sample(jets, 2))
            tr = Transform(ident, shift=h.replace("+ -", "- "))
        elif kind == "perturbed":
            jet = rng.choice(_jets(source))
            tr = Transform(ident, jolt="%s*%s" % (_nonzero(rng, 99), jet))
        else:
            raise ValueError(kind)
        checks = PENCIL_3D if dim == 3 else PENCIL_4D
        return _document(source, kind, tr, checks, geometry=False)


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (ScaledCorpus, ShearOrbit, PencilScreen)}


def describe() -> None:
    """Print each workload's make-up and its document shares over the
    first two rounds of seed 1."""
    rounds = 2
    for name, cls in WORKLOADS.items():
        wl = cls(1)
        docs = [d for r in range(rounds) for d in wl.round(r)]
        systems = set()
        reuse = 0
        for d in docs:
            key = d.text.split("[pair]")[0].split("\n", 1)[1]
            reuse += key in systems
            systems.add(key)
        print("%s: %d documents per round; %s" % (name, len(docs) // rounds,
                                                  cls.why))
        for source, kind in wl.classes():
            print("    %-20s %s" % (source, kind))
        print("    multi-term denominators: %.0f%% of documents"
              % (100.0 * sum(d.multi_term for d in docs) / len(docs)))
        print("    reuse a system seen earlier in the run: %.0f%% "
              "(over %d rounds)" % (100.0 * reuse / len(docs), rounds))


if __name__ == "__main__":
    describe()
