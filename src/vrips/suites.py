"""Seeded verification suites over randomly generated instances.

_RUNNERS is the one table of suites, in the order "all" runs them. A
row maps a suite name to a runner that turns a SuiteConfig into
verdicts. dimension and interval enumerate fixed instances. The random
suites are draw functions: each takes a generator and the cap, draws one
instance and returns its verdict, and _trials runs it config.trials
times on one generator seeded with config.seed, so a failure is
reproducible from the seed alone. Instances are constructed to satisfy
the hypotheses of their axiom (excision sets are grown from relation
images, maps are made continuous by pushing relations forward), which
keeps every verdict meaningful rather than vacuous.
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
    return [verify_dimension(coeffs, max_dim=config.max_dim)
            for coeffs in (INTEGERS, RATIONALS, prime_field(2), prime_field(3))]


def _suite_interval(config: SuiteConfig) -> list[AxiomVerdict]:
    out = []
    for n in range(2, MAX_POINTS + 1):
        spacing = Fraction(1, n - 1)
        for r in (spacing + Fraction(1, 100), 2 * spacing, Fraction(1)):
            if r > spacing:
                out.append(check_interval_acyclic(n, r, max_dim=config.max_dim))
    return out


def _trials(draw):
    """Runner that calls draw(rng, max_dim) config.trials times on Random(config.seed)."""
    def run(config: SuiteConfig) -> list[AxiomVerdict]:
        rng = random.Random(config.seed)
        return [draw(rng, config.max_dim) for _ in range(config.trials)]
    return run


def _draw_excision(rng: random.Random, max_dim: int) -> AxiomVerdict:
    n = rng.randint(2, MAX_POINTS)
    rel = _random_symmetric_relation(rng, n)
    base = SemiUniformBase.from_members([rel])
    b = {rng.randrange(n)}
    a = set(relation_image(rel, b)) | b
    extras = [p for p in range(n) if p not in a]
    for p in extras:
        if rng.random() < 0.3:
            a.add(p)
    return verify_excision(base, a, b, INTEGERS, max_dim=max_dim)


def _draw_homotopy(rng: random.Random, max_dim: int) -> AxiomVerdict:
    rel = _random_symmetric_relation(rng, rng.randint(2, 5), density=0.5)
    return verify_homotopy_cylinder(rel, 4, Fraction(2, 5), RATIONALS, max_dim=max_dim)


def _draw_dowker(rng: random.Random, max_dim: int) -> AxiomVerdict:
    n = rng.randint(2, MAX_POINTS)
    cover = _random_cover(rng, n, rng.randint(1, 5))
    return verify_dowker(cover, INTEGERS, max_dim=max_dim)


def _draw_functoriality(rng: random.Random, max_dim: int) -> AxiomVerdict:
    nx, ny, nz = (rng.randint(2, MAX_POINTS) for _ in range(3))
    ux = _random_symmetric_relation(rng, nx)
    f = [rng.randrange(ny) for _ in range(nx)]
    pushed = {(f[i], f[j]) for i, j in ux.pairs}
    uy = relation(space_of_size(ny), pushed | {(j, i) for i, j in pushed}
                  | set(_random_symmetric_relation(rng, ny, 0.2).pairs))
    g = [rng.randrange(nz) for _ in range(ny)]
    pushed2 = {(g[i], g[j]) for i, j in uy.pairs}
    uz = relation(space_of_size(nz), pushed2 | {(j, i) for i, j in pushed2})
    bx, by, bz = (SemiUniformBase.from_members([u]) for u in (ux, uy, uz))
    return verify_functoriality(f, g, bx, by, bz, RATIONALS, max_dim=max_dim)


_RUNNERS = {
    "dimension": _suite_dimension,
    "interval": _suite_interval,
    "excision": _trials(_draw_excision),
    "homotopy": _trials(_draw_homotopy),
    "dowker": _trials(_draw_dowker),
    "functoriality": _trials(_draw_functoriality),
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, config: SuiteConfig | None = None) -> list[AxiomVerdict]:
    """Run one named suite, or all of them in table order."""
    config = config or SuiteConfig()
    if name == "all":
        return [v for run in _RUNNERS.values() for v in run(config)]
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or all")
    return _RUNNERS[name](config)
