"""Finite point sets, reflexive relations, and semi-uniform bases.

Points are indexed 0..n-1 and carry display labels. A Relation is a set
of ordered index pairs that always contains the diagonal; a
SemiUniformBase is a finite family of such relations that is directed
under intersection and closed under the inverse condition. Symmetric
distance tables (no triangle inequality assumed) and edge lists provide
the standard constructors, and the continuity checks reduce the usual
quantifier definitions to finite scans. collapse removes the dominated
edges of a symmetric relation, which keeps the homotopy type of its
flag complex.

Scale comparisons are exact on the supplied numeric values: a strict
relation at scale q keeps pairs with d < q, a closed one keeps d <= q,
and ties are never fuzzed. Callers control the boundary by choosing the
mode and the numeric type (int, Fraction, float) of their distances.

A distance table is checked and sorted once, when it is built, on exact
integer keys over the lcm of its entries' denominators. Every scale
query after that converts its scale once to an integer threshold and
bisects the sorted keys: a scale relation is a prefix of the sorted
pairs, joined from pairs, reverses and diagonal stored once. A table
built from_keys builds its Fractions only when its values are read.
Scale relations, graph relations and scale bases built from checked
input are trusted; every other relation and base checks itself when
built.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

Pair = tuple[int, int]


@dataclass(frozen=True)
class FiniteSpace:
    """An indexed finite point set. Labels are display-only and distinct."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("a finite space needs at least one point")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("point labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(self.size)

    def check_points(self, indices) -> frozenset[int]:
        pts = frozenset(indices)
        for i in pts:
            if not isinstance(i, int) or not 0 <= i < self.size:
                raise IndexError(f"point index {i!r} out of range for {self.size} points")
        return pts


def space_of_size(n: int, prefix: str = "p") -> FiniteSpace:
    if n < 1:
        raise ValueError("space size must be at least 1")
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def subspace(space: FiniteSpace, indices) -> FiniteSpace:
    """The space on a nonempty subset of points, in ascending index order."""
    pts = sorted(space.check_points(indices))
    if not pts:
        raise ValueError("subspace needs at least one point")
    return FiniteSpace(tuple(space.labels[i] for i in pts))


class _PairIndex(NamedTuple):
    """The pairs i < j of a table in ascending distance order (ties in
    lexicographic order), their reverses, the diagonal, and the sorted keys:
    pair k is at distance keys[k] / den, and a key is +inf for +inf."""

    pairs: tuple[Pair, ...]
    reverses: tuple[Pair, ...]
    diagonal: tuple[Pair, ...]
    keys: tuple
    den: int


def _check_square(n: int, table) -> None:
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError("distance table must be square and match the space")


def _pair_index(keys, den: int) -> _PairIndex:
    """Check a square grid of integer keys over one denominator and sort its pairs."""
    n = len(keys)
    for i in range(n):
        if keys[i][i] != 0:
            raise ValueError(f"distance table has nonzero diagonal at {i}")
        for j in range(i + 1, n):
            if keys[i][j] != keys[j][i]:
                raise ValueError(f"distance table is not symmetric at ({i},{j})")
            if keys[i][j] < 0:
                raise ValueError(f"negative distance at ({i},{j})")
    pairs = list(itertools.combinations(range(n), 2))
    flat = [keys[i][j] for i, j in pairs]
    order = sorted(range(len(pairs)), key=flat.__getitem__)  # stable: ties stay lexicographic
    pairs = tuple(pairs[k] for k in order)
    return _PairIndex(pairs, tuple((j, i) for i, j in pairs), tuple((i, i) for i in range(n)),
                      tuple(flat[k] for k in order), den)


def _ratio(x) -> tuple:
    """Exact numerator and denominator of an entry; (x, 0) for a non-finite float."""
    try:
        return x.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite or NaN float
        return x, 0
    except AttributeError:
        raise TypeError(f"distance {x!r} is not an int, Fraction or float") from None


@dataclass(frozen=True)
class SemiPseudometric:
    """A symmetric distance table with zero diagonal.

    No triangle inequality is assumed or checked. Entries may be ints,
    Fractions, or floats (+inf too); they are compared exactly as given.

    Construction checks the table and sorts the pairs i < j by distance,
    on integer keys over one denominator: n/d gets the key n * (L // d),
    L the lcm of every d. values() reads the distinct values off the
    sorted pairs, and every scale query (metric_relation, scale_base,
    closing_offset) is a bisection of the sorted keys.
    """

    space: FiniteSpace
    dist: tuple[tuple, ...]
    _index: _PairIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dist = tuple(tuple(row) for row in self.dist)
        object.__setattr__(self, "dist", dist)
        _check_square(self.space.size, dist)
        # Non-finite floats keep themselves as keys: +inf sorts last, and -inf
        # and NaN fail the checks.
        ratios = [[_ratio(x) for x in row] for row in dist]
        lcm = math.lcm(*{den for row in ratios for _, den in row if den})
        keys = [[num * (lcm // den) if den else num for num, den in row] for row in ratios]
        object.__setattr__(self, "_index", _pair_index(keys, lcm))

    @classmethod
    def from_keys(cls, space: FiniteSpace, keys, den: int) -> "SemiPseudometric":
        """The table keys[i][j] / den, from int keys over a positive int
        denominator, with every check of the constructor. dist holds
        Fractions, built on its first read."""
        keys = tuple(map(tuple, keys))
        _check_square(space.size, keys)
        if type(den) is not int or den < 1 or any(type(k) is not int for row in keys for k in row):
            raise ValueError("keys must be ints over a positive int denominator")
        d = object.__new__(cls)
        object.__setattr__(d, "space", space)
        object.__setattr__(d, "_index", _pair_index(keys, den))
        object.__setattr__(d, "_keys", keys)
        return d

    def __getattr__(self, name):
        # from_keys leaves dist unset until it is first read.
        if name != "dist" or "_keys" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dist = tuple(tuple(Fraction(k, self._index.den) for k in row) for row in self._keys)
        object.__setattr__(self, "dist", dist)
        return dist

    def d(self, i: int, j: int):
        return self.dist[i][j]

    def values(self) -> tuple:
        """Sorted distinct off-diagonal distance values; each run of tied keys
        gives the value of its first pair."""
        idx, dist = self._index, self.dist
        return tuple(dist[i][j] for (i, j), key, prev in zip(idx.pairs, idx.keys, (None, *idx.keys))
                     if key != prev)


def _cut(d: SemiPseudometric, t, closed: bool) -> int:
    """How many sorted pairs of d lie at distance <= t (closed) or < t (strict).

    On keys over den, d <= t holds exactly when key <= floor(t * den), and
    d < t exactly when key < ceil(t * den); t = +inf is compared as it is.
    """
    idx = d._index
    if t != math.inf:
        try:
            num, den = t.as_integer_ratio()
        except ValueError:
            raise ValueError(f"scales and offsets must be numbers, got {t!r}") from None
        num *= idx.den
        t = num // den if closed else -(-num // den)
    return (bisect_right if closed else bisect_left)(idx.keys, t)


@dataclass(frozen=True)
class Relation:
    """Ordered index pairs over a space, always containing the diagonal."""

    space: FiniteSpace
    pairs: frozenset[Pair]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        n = self.space.size
        for i, j in self.pairs:
            if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < n and 0 <= j < n):
                raise IndexError(f"pair ({i!r},{j!r}) out of range for {n} points")
        missing = [i for i in range(n) if (i, i) not in self.pairs]
        if missing:
            raise ValueError(f"relation is missing diagonal pairs at {missing}")

    @classmethod
    def _trusted(cls, space: FiniteSpace, pairs: frozenset) -> "Relation":
        """A relation from integer pairs in range that hold the diagonal by construction."""
        r = object.__new__(cls)
        object.__setattr__(r, "space", space)
        object.__setattr__(r, "pairs", pairs)
        return r

    def contains(self, i: int, j: int) -> bool:
        return (i, j) in self.pairs

    def off_diagonal(self) -> frozenset[Pair]:
        return frozenset(p for p in self.pairs if p[0] != p[1])


def relation(space: FiniteSpace, pairs=()) -> Relation:
    """Build a relation from arbitrary pairs, adjoining the diagonal."""
    diag = {(i, i) for i in range(space.size)}
    return Relation(space, frozenset(pairs) | diag)


def relation_inverse(u: Relation) -> Relation:
    return Relation(u.space, frozenset((j, i) for i, j in u.pairs))


def relation_image(u: Relation, a) -> frozenset[int]:
    """All points reachable from the set a through the relation."""
    pts = u.space.check_points(a)
    return frozenset(j for i, j in u.pairs if i in pts)


def relation_intersect(u: Relation, v: Relation) -> Relation:
    if u.space != v.space:
        raise ValueError("relations live on different spaces")
    return Relation(u.space, u.pairs & v.pairs)


def symmetric_part(u: Relation) -> Relation:
    return Relation(u.space, frozenset(p for p in u.pairs if (p[1], p[0]) in u.pairs))


def is_symmetric(u: Relation) -> bool:
    return all((j, i) in u.pairs for i, j in u.pairs)


def collapse(u: Relation) -> Relation:
    """A symmetric sub-relation of u on the same space, with no dominated edge,
    whose flag complex is homotopy equivalent to the flag complex of u.

    An edge {a, b} is dominated by a vertex w outside it when
    N[a] & N[b] lies inside N[w], for closed neighbourhoods. Removing it
    collapses the flag complex onto the flag complex of what is left
    (Boissonnat and Pritam, "Edge collapse and persistence of flag
    complexes", SoCG 2020), so homology over every ring is unchanged,
    except at an enumeration cap, which sees only a skeleton. Edges are
    removed until none is dominated; a non-symmetric relation is refused.
    """
    # Closed neighbourhoods as bitmasks, as vr_complex builds them. pend[a]
    # holds the b whose edge {a, b} is still to check from a, lowest a and
    # then lowest b first. Removing {a, b} shrinks the common neighbourhood
    # only of the edges from a or b to a vertex adjacent to both, so only
    # those are checked again.
    n = u.space.size
    nbr, inn = [0] * n, [0] * n
    for i, j in u.pairs:
        nbr[i] |= 1 << j
        inn[j] |= 1 << i
    if nbr != inn:
        raise ValueError("edge collapse needs a symmetric relation")
    pend = [m ^ 1 << a for a, m in enumerate(nbr)]
    dirty = (1 << n) - 1
    removed = []
    while dirty:
        bit_a = dirty & -dirty
        dirty ^= bit_a
        a = bit_a.bit_length() - 1
        near, pending = nbr[a], pend[a]
        while pending:
            bit_b = pending & -pending
            pending ^= bit_b
            b = bit_b.bit_length() - 1
            pend[b] &= ~bit_a
            common = near & nbr[b]
            rest = cand = common ^ (bit_a | bit_b)
            while cand:
                bit_w = cand & -cand
                around = nbr[bit_w.bit_length() - 1]
                if common & around == common:
                    break
                # A dominating vertex is adjacent to w, as w is in common.
                cand &= around ^ bit_w
            else:
                continue
            near ^= bit_b
            nbr[b] ^= bit_a
            pending |= rest
            pend[b] |= rest
            dirty |= bit_b
            removed += ((a, b), (b, a))
        nbr[a], pend[a] = near, 0
    return Relation._trusted(u.space, u.pairs.difference(removed)) if removed else u


def metric_relation(d: SemiPseudometric, q, mode: str = "closed") -> Relation:
    """Scale-q relation of a distance table.

    mode "strict" keeps pairs with d < q, mode "closed" keeps d <= q.
    The diagonal is present either way.
    """
    if q < 0:
        raise ValueError("scale must be nonnegative")
    if mode not in ("strict", "closed"):
        raise ValueError(f"unknown mode {mode!r}: expected 'strict' or 'closed'")
    return _scale_relation(d, _cut(d, q, mode == "closed"))


def _scale_relation(d: SemiPseudometric, cut: int) -> Relation:
    # The first cut sorted pairs i < j, their reverses and the diagonal.
    idx = d._index
    return Relation._trusted(d.space, frozenset(idx.pairs[:cut] + idx.reverses[:cut] + idx.diagonal))


def graph_relation(edges, space: FiniteSpace, directed: bool = False) -> Relation:
    """Edge relation of a graph on the space, diagonal adjoined."""
    pairs = set()
    n = space.size
    for i, j in edges:
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < n and 0 <= j < n):
            raise IndexError(f"edge ({i!r},{j!r}) out of range for {n} points")
        pairs.add((i, j))
        if not directed:
            pairs.add((j, i))
    pairs.update((i, i) for i in space.points())
    return Relation._trusted(space, frozenset(pairs))


def product_relation(u: Relation, v: Relation) -> Relation:
    """Componentwise relation on the product space.

    The product point (x, y) gets index x * |Y| + y, so iterating the
    product space walks the second factor fastest.
    """
    ny = v.space.size
    labels = tuple(
        f"({lx},{ly})" for lx in u.space.labels for ly in v.space.labels
    )
    space = FiniteSpace(labels)
    pairs = frozenset(
        (x1 * ny + y1, x2 * ny + y2)
        for (x1, x2) in u.pairs
        for (y1, y2) in v.pairs
    )
    return Relation(space, pairs)


def relativize(u: Relation, a) -> Relation:
    """Restriction of the relation to a nonempty subset, reindexed.

    Point k of the result is the k-th smallest member of a; labels are
    carried over from the ambient space.
    """
    pts = sorted(u.space.check_points(a))
    if not pts:
        raise ValueError("cannot relativize to the empty set")
    index = {p: k for k, p in enumerate(pts)}
    sub = subspace(u.space, pts)
    pairs = frozenset((index[i], index[j]) for i, j in u.pairs if i in index and j in index)
    return Relation(sub, pairs)


@dataclass(frozen=True)
class SemiUniformBase:
    """A finite base for a semi-uniform structure.

    Every member contains the diagonal (enforced by Relation), every
    pairwise intersection of members contains some member, and every
    member's inverse contains some member. Use from_members to build
    one: it deduplicates and closes the family under intersection.
    """

    space: FiniteSpace
    members: tuple[Relation, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("a base needs at least one member")
        for m in self.members:
            if m.space != self.space:
                raise ValueError("all members must live on the base's space")
        sets = [m.pairs for m in self.members]
        for a, b in itertools.combinations(sets, 2):
            cap = a & b
            if not any(s <= cap for s in sets):
                raise ValueError("base is not directed: an intersection contains no member")
        for s in sets:
            inv = frozenset((j, i) for i, j in s)
            if not any(t <= inv for t in sets):
                raise ValueError("base violates the inverse condition: a member's inverse contains no member")

    @classmethod
    def from_members(cls, members) -> "SemiUniformBase":
        members = list(members)
        if not members:
            raise ValueError("a base needs at least one member")
        space = members[0].space
        seen: dict[frozenset, Relation] = {}
        for m in members:
            seen.setdefault(m.pairs, m)
        family = list(seen.values())
        # Close under pairwise intersection until the family is directed.
        changed = True
        while changed:
            changed = False
            for u, v in itertools.combinations(list(family), 2):
                cap = u.pairs & v.pairs
                if not any(m.pairs <= cap for m in family):
                    family.append(Relation(space, cap))
                    changed = True
        return cls(space, tuple(family))

    def minimum(self) -> Relation | None:
        """The inclusion-smallest member, if one exists."""
        for m in self.members:
            if all(m.pairs <= other.pairs for other in self.members):
                return m
        return None


def scale_base(d: SemiPseudometric, q, deltas) -> SemiUniformBase:
    """Base of strict relations at scales q + delta for each offset.

    The members are totally ordered by inclusion, so the family is
    already directed; the smallest offset gives the minimum member.
    """
    offs = sorted(set(deltas))
    if not offs:
        raise ValueError("at least one positive offset is required")
    if offs[0] <= 0:
        raise ValueError("offsets must be positive")
    if q < 0:
        raise ValueError("scale must be nonnegative")
    # Nested symmetric members are directed and closed under inverses, and
    # two offsets give one member exactly when they cut the sorted pairs at
    # the same place; the first offset of each cut is kept.
    cuts = dict.fromkeys(_cut(d, q + off, False) for off in offs)
    base = object.__new__(SemiUniformBase)
    object.__setattr__(base, "space", d.space)
    object.__setattr__(base, "members", tuple(_scale_relation(d, cut) for cut in cuts))
    return base


def closing_offset(d: SemiPseudometric, q) -> Fraction:
    """One offset making the strict relation at q + delta equal to the
    closed relation at q: half the exact gap up to the next larger
    distance, or 1 when no finite distance exceeds q."""
    keys, den = d._index.keys, d._index.den
    k = _cut(d, q, True)
    if k == len(keys) or keys[k] == math.inf:
        return Fraction(1)
    num, qden = q.as_integer_ratio()
    return Fraction(keys[k] * qden - num * den, 2 * den * qden)


@dataclass(frozen=True)
class ContinuityVerdict:
    """Outcome of a uniform continuity scan.

    On failure, failing_target is a member of the codomain base that no
    domain member maps into, and violations lists one witness pair per
    domain member.
    """

    ok: bool
    failing_target: Relation | None = None
    violations: tuple[tuple[Relation, Pair], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _check_point_map(f, dom: FiniteSpace, cod: FiniteSpace) -> tuple[int, ...]:
    fm = tuple(f)
    if len(fm) != dom.size:
        raise ValueError(f"point map has {len(fm)} entries, expected {dom.size}")
    for v in fm:
        if not 0 <= v < cod.size:
            raise IndexError(f"point map value {v} out of range for {cod.size} points")
    return fm


def check_uniform_continuity(f, bx: SemiUniformBase, by: SemiUniformBase) -> ContinuityVerdict:
    """Scan whether f carries some member of bx into every member of by."""
    fm = _check_point_map(f, bx.space, by.space)
    for v in by.members:
        violations = []
        admissible = False
        for u in bx.members:
            bad = next(((i, j) for i, j in u.pairs if (fm[i], fm[j]) not in v.pairs), None)
            if bad is None:
                admissible = True
                break
            violations.append((u, bad))
        if not admissible:
            return ContinuityVerdict(False, v, tuple(violations))
    return ContinuityVerdict(True)


def check_pq_continuity(f, dx: SemiPseudometric, dy: SemiPseudometric, p, q) -> bool:
    """Finite-space scale continuity: every pair within p lands within q.

    On finite spaces the epsilon-delta definition collapses to this
    check on the closed relations at p and q, because below the smallest
    positive gap of the distance values the strict relations at
    p + delta and q + epsilon stabilize to them.
    """
    if p < 0 or q < 0:
        raise ValueError("scales must be nonnegative")
    fm = _check_point_map(f, dx.space, dy.space)
    near = metric_relation(dy, q, "closed").pairs
    return all((fm[i], fm[j]) in near for i, j in metric_relation(dx, p, "closed").pairs)
