"""Seeded verification suites over randomly generated instances.

Each suite draws instances from a seeded generator and runs one of the
axiom checks on every instance, so a failure is reproducible from the
seed alone. Instances are constructed to satisfy the hypotheses of
their axiom (excision sets are grown from relation images, maps are
made continuous by pushing relations forward), which keeps every
verdict meaningful rather than vacuous.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .closure import Cover
from .homology import INTEGERS, RATIONALS, prime_field
from .relations import (
    Relation,
    SemiUniformBase,
    relation,
    relation_image,
    space_of_size,
)
from .semiuniform import (
    AxiomVerdict,
    check_interval_acyclic,
    verify_dimension,
    verify_dowker,
    verify_excision,
    verify_functoriality,
    verify_homotopy_cylinder,
)

SUITE_NAMES = ("dimension", "interval", "excision", "homotopy", "dowker", "functoriality")
MAX_POINTS = 7  # largest random space a suite draws


@dataclass(frozen=True)
class SuiteConfig:
    """Seed, random trials per suite (at least 1) and enumeration cap (at least 1)."""

    seed: int = 0
    trials: int = 20
    max_dim: int = 2

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.max_dim < 1:
            raise ValueError("max_dim must be at least 1 to compare any dimension")


def _random_symmetric_relation(rng: random.Random, n: int, density: float = 0.4) -> Relation:
    space = space_of_size(n)
    pairs = set()
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            pairs.update([(i, j), (j, i)])
    return relation(space, pairs)


def _random_cover(rng: random.Random, n: int, sets: int) -> Cover:
    space = space_of_size(n)
    family = []
    for _ in range(sets):
        size = rng.randint(1, n)
        family.append(frozenset(rng.sample(range(n), size)))
    covered = set().union(*family)
    missing = [p for p in range(n) if p not in covered]
    if missing:
        family[rng.randrange(len(family))] |= frozenset(missing)
    return Cover(space, tuple(family))


def _suite_dimension(config: SuiteConfig) -> list[AxiomVerdict]:
    out = []
    for coeffs in (INTEGERS, RATIONALS, prime_field(2), prime_field(3)):
        out.append(verify_dimension(coeffs, max_dim=config.max_dim))
    return out


def _suite_interval(config: SuiteConfig) -> list[AxiomVerdict]:
    out = []
    for n in range(2, MAX_POINTS + 1):
        spacing = Fraction(1, n - 1)
        for r in (spacing + Fraction(1, 100), 2 * spacing, Fraction(1)):
            if r > spacing:
                out.append(check_interval_acyclic(n, r, max_dim=config.max_dim))
    return out


def _suite_excision(config: SuiteConfig) -> list[AxiomVerdict]:
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.trials):
        n = rng.randint(2, MAX_POINTS)
        rel = _random_symmetric_relation(rng, n)
        base = SemiUniformBase.from_members([rel])
        b = {rng.randrange(n)}
        a = set(relation_image(rel, b)) | b
        extras = [p for p in range(n) if p not in a]
        for p in extras:
            if rng.random() < 0.3:
                a.add(p)
        out.append(verify_excision(base, a, b, INTEGERS, max_dim=config.max_dim))
    return out


def _suite_homotopy(config: SuiteConfig) -> list[AxiomVerdict]:
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.trials):
        n = rng.randint(2, 5)
        rel = _random_symmetric_relation(rng, n, density=0.5)
        out.append(verify_homotopy_cylinder(rel, 4, Fraction(2, 5), RATIONALS,
                                            max_dim=config.max_dim))
    return out


def _suite_dowker(config: SuiteConfig) -> list[AxiomVerdict]:
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.trials):
        n = rng.randint(2, MAX_POINTS)
        cover = _random_cover(rng, n, rng.randint(1, 5))
        out.append(verify_dowker(cover, INTEGERS, max_dim=config.max_dim))
    return out


def _suite_functoriality(config: SuiteConfig) -> list[AxiomVerdict]:
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.trials):
        nx = rng.randint(2, MAX_POINTS)
        ny = rng.randint(2, MAX_POINTS)
        nz = rng.randint(2, MAX_POINTS)
        ux = _random_symmetric_relation(rng, nx)
        f = [rng.randrange(ny) for _ in range(nx)]
        pushed = {(f[i], f[j]) for i, j in ux.pairs}
        uy = relation(space_of_size(ny), pushed | {(j, i) for i, j in pushed}
                      | set(_random_symmetric_relation(rng, ny, 0.2).pairs))
        g = [rng.randrange(nz) for _ in range(ny)]
        pushed2 = {(g[i], g[j]) for i, j in uy.pairs}
        uz = relation(space_of_size(nz), pushed2 | {(j, i) for i, j in pushed2})
        out.append(verify_functoriality(
            f, g,
            SemiUniformBase.from_members([ux]),
            SemiUniformBase.from_members([uy]),
            SemiUniformBase.from_members([uz]),
            RATIONALS, max_dim=config.max_dim,
        ))
    return out


_RUNNERS = {
    "dimension": _suite_dimension,
    "interval": _suite_interval,
    "excision": _suite_excision,
    "homotopy": _suite_homotopy,
    "dowker": _suite_dowker,
    "functoriality": _suite_functoriality,
}


def run_suite(name: str, config: SuiteConfig | None = None) -> list[AxiomVerdict]:
    """Run one named suite, or all of them in declaration order."""
    config = config or SuiteConfig()
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(_RUNNERS[suite](config))
        return out
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    return _RUNNERS[name](config)
