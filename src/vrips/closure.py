"""Additive closure operators on finite point sets, and covers.

A closure operator here is determined by its values on singletons:
c(A) is the union of the point neighborhoods N(x) = c({x}) over x in A.
Interiors are derived by complementation, interior covers are covers
whose interiors still cover, and the two cover relations (Vietoris and
interior-inclusion) turn covers into relations for the flag complex
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relations import FiniteSpace, Relation, SemiPseudometric, metric_relation, relation


@dataclass(frozen=True)
class AdditiveClosure:
    """Pointwise closure data: nbhd[x] is the closure of the singleton {x}."""

    space: FiniteSpace
    nbhd: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "nbhd", tuple(frozenset(s) for s in self.nbhd))
        n = self.space.size
        if len(self.nbhd) != n:
            raise ValueError("need one neighborhood per point")
        for x, s in enumerate(self.nbhd):
            self.space.check_points(s)
            if x not in s:
                raise ValueError(f"closure is not reflexive: {x} missing from its own neighborhood")


@dataclass(frozen=True)
class Cover:
    """A family of subsets whose union is the whole point set.

    Whether the cover is an interior cover for a given closure operator
    is a separate predicate, checked by is_interior_cover.
    """

    space: FiniteSpace
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        if not self.sets:
            raise ValueError("a cover needs at least one set")
        covered = set()
        for s in self.sets:
            self.space.check_points(s)
            covered |= s
        missing = set(self.space.points()) - covered
        if missing:
            raise ValueError(f"sets do not cover the space: points {sorted(missing)} are missing")


def closure_of_set(c: AdditiveClosure, a) -> frozenset[int]:
    pts = c.space.check_points(a)
    out: set[int] = set()
    for x in pts:
        out |= c.nbhd[x]
    return frozenset(out)


def interior_set(c: AdditiveClosure, a) -> frozenset[int]:
    """Complement of the closure of the complement."""
    pts = c.space.check_points(a)
    rest = set(c.space.points()) - pts
    return frozenset(set(c.space.points()) - closure_of_set(c, rest))


@dataclass(frozen=True)
class InteriorCoverCheck:
    ok: bool
    uncovered: frozenset[int] = frozenset()

    def __bool__(self) -> bool:
        return self.ok


def is_interior_cover(c: AdditiveClosure, u: Cover) -> InteriorCoverCheck:
    """Do the interiors of the cover sets still cover the space?"""
    if c.space != u.space:
        raise ValueError("closure and cover live on different spaces")
    covered: set[int] = set()
    for s in u.sets:
        covered |= interior_set(c, s)
    uncovered = frozenset(set(c.space.points()) - covered)
    return InteriorCoverCheck(not uncovered, uncovered)


def vietoris_relation(u: Cover) -> Relation:
    """Pairs of points sharing a cover set."""
    pairs = set()
    for s in u.sets:
        pairs.update((i, j) for i in s for j in s)
    return relation(u.space, pairs)


def ii_relation(c: AdditiveClosure, u: Cover) -> Relation:
    """Interior-inclusion pairs: one point interior to a set containing the other.

    Requires an interior cover; for idempotent closures this relation
    coincides with the Vietoris relation of the same cover.
    """
    check = is_interior_cover(c, u)
    if not check.ok:
        raise ValueError(
            f"not an interior cover: points {sorted(check.uncovered)} are in no interior"
        )
    pairs = set()
    for s in u.sets:
        inner = interior_set(c, s)
        for i in inner:
            for j in s:
                pairs.add((i, j))
                pairs.add((j, i))
    return relation(u.space, pairs)


def cover_refines(coarse: Cover, fine: Cover) -> bool:
    """True when every set of the fine cover sits inside a set of the coarse one."""
    if coarse.space != fine.space:
        raise ValueError("covers live on different spaces")
    return all(any(s <= t for t in coarse.sets) for s in fine.sets)


def metric_closure_space(d: SemiPseudometric, r) -> AdditiveClosure:
    """Closure that thickens each point by the closed r-ball around it,
    which is the point's row of the closed scale-r relation."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    balls = [set() for _ in range(d.space.size)]
    for x, y in metric_relation(d, r, "closed").pairs:
        balls[x].add(y)
    return AdditiveClosure(d.space, tuple(balls))


def graph_closure_space(edges, space: FiniteSpace) -> AdditiveClosure:
    """Closure adjoining graph neighbors; edges are read symmetrically."""
    adj = [set([x]) for x in range(space.size)]
    for i, j in edges:
        if not (0 <= i < space.size and 0 <= j < space.size):
            raise IndexError(f"edge ({i},{j}) out of range for {space.size} points")
        adj[i].add(j)
        adj[j].add(i)
    return AdditiveClosure(space, tuple(frozenset(s) for s in adj))
