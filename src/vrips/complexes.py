"""Simplicial complexes from relations, covers, and explicit input.

Simplices are tuples of strictly increasing point indices; each
dimension layer is kept lexicographically sorted so downstream matrix
bases are deterministic. Complexes remember their enumeration cap
(max_dim) and whether enumeration was exhaustive below it (complete),
which is what lets homology flag an unreliable top dimension.

Every complex comes from one of two builders. Flag growth (vr_complex,
which clique_complex calls after refusing non-symmetric input) extends
(k-1)-cliques by a later neighbour shared with every clique vertex, on
per-point neighbour bitmasks, never scanning all vertex subsets;
non-symmetric input also goes through a greedy source-elimination test
that recognizes vertex sets admitting a total order with all forward
pairs related. Face closure (explicit complexes, witness complexes of
covers and nerves) takes every face of a family of vertex sets. The
nerve is the face closure of the points' stars {i : x in U_i}, the
Dowker dual of the witness complex, which closes the cover's sets. The
subcomplex of a pair is a full subcomplex of the total.

A SimplicialComplex built directly checks its layers in full. The
builders here make them sorted and face-closed, so they check only the
cap; their inputs are checked where they enter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .closure import Cover
from .relations import FiniteSpace, Relation, is_symmetric

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Layered simplex container, face-closed by construction.

    simplices[k] lists the k-simplices in lexicographic order; trailing
    empty layers are trimmed, so len(simplices) - 1 is the top occupied
    dimension. max_dim is the enumeration cap the complex was built
    with, and complete records whether anything above the cap could
    exist.
    """

    space: FiniteSpace
    simplices: tuple[tuple[Simplex, ...], ...]
    max_dim: int
    complete: bool = True

    def __post_init__(self):
        self._store(sorted(tuple(s) for s in layer) for layer in self.simplices)
        if len(self.simplices) - 1 > self.max_dim:
            raise ValueError("stored simplices exceed the enumeration cap")
        n = self.space.size
        for k, layer in enumerate(self.simplices):
            for s in layer:
                if len(s) != k + 1 or any(not 0 <= v < n for v in s):
                    raise ValueError(f"bad simplex {s} in dimension {k}")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if k > 0:
                    for face in itertools.combinations(s, k):
                        if face not in self._sets[k - 1]:
                            raise ValueError(f"face {face} of {s} is missing: not face-closed")

    def _store(self, layers):
        layers = [tuple(layer) for layer in layers]
        while layers and not layers[-1]:
            layers.pop()
        object.__setattr__(self, "simplices", tuple(layers))
        if self.max_dim < 0:
            raise ValueError("max_dim must be nonnegative")

    @cached_property
    def _sets(self) -> tuple[frozenset, ...]:
        """The layers as sets, built on the first membership test."""
        return tuple(frozenset(layer) for layer in self.simplices)

    @classmethod
    def _trusted(cls, space: FiniteSpace, layers, max_dim: int, complete: bool) -> "SimplicialComplex":
        """A complex from layers that are sorted and face-closed by construction."""
        k = object.__new__(cls)
        for name, value in (("space", space), ("max_dim", max_dim), ("complete", complete)):
            object.__setattr__(k, name, value)
        k._store(layers)
        return k

    @property
    def top_dim(self) -> int:
        """Top occupied dimension; -1 for the empty complex."""
        return len(self.simplices) - 1

    @property
    def reliable_top(self) -> int:
        """Highest dimension whose homology the enumeration cap cannot distort."""
        return self.max_dim if self.complete else self.max_dim - 1

    def layer(self, k: int) -> tuple[Simplex, ...]:
        if 0 <= k <= self.top_dim:
            return self.simplices[k]
        return ()

    def has(self, s: Simplex) -> bool:
        k = len(s) - 1
        return 0 <= k <= self.top_dim and tuple(s) in self._sets[k]

    def n_cells(self, k: int) -> int:
        return len(self.layer(k))

    def vertices(self) -> frozenset[int]:
        return frozenset(v for (v,) in self.layer(0))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(layer) for k, layer in enumerate(self.simplices))

    def maximal_simplices(self) -> tuple[Simplex, ...]:
        """Simplices that are faces of nothing stored above them."""
        out = []
        for k, layer in enumerate(self.simplices):
            faces = {s[:i] + s[i + 1:] for s in self.layer(k + 1) for i in range(k + 2)}
            out.extend(s for s in layer if s not in faces)
        return tuple(out)


@dataclass(frozen=True)
class ComplexPair:
    """A complex together with a subcomplex on the same space and cap."""

    total: SimplicialComplex
    sub: SimplicialComplex

    def __post_init__(self):
        if self.total.space != self.sub.space:
            raise ValueError("pair members live on different spaces")
        if self.total.max_dim != self.sub.max_dim:
            raise ValueError("pair members have different enumeration caps")
        for k in range(self.sub.top_dim + 1):
            for s in self.sub.layer(k):
                if not self.total.has(s):
                    raise ValueError(f"subcomplex simplex {s} is not in the total complex")

    @property
    def reliable_top(self) -> int:
        return self.total.reliable_top


def _closure(space: FiniteSpace, tops, cap: int) -> SimplicialComplex:
    # Face closure of the given vertex sets, enumerated up to the cap. A
    # simplex above the cap exists exactly when some set is larger.
    tops = {tuple(sorted(s)) for s in tops}
    layers: list[set[Simplex]] = [set() for _ in range(cap + 1)]
    for s in tops:
        for k in range(min(len(s), cap + 1)):
            layers[k].update(itertools.combinations(s, k + 1))
    native = max((len(s) - 1 for s in tops), default=0)
    return SimplicialComplex._trusted(space, (sorted(layer) for layer in layers), cap,
                                      complete=cap >= native)


def clique_complex(u: Relation, max_dim: int) -> SimplicialComplex:
    """Flag complex of a symmetric relation.

    Simplices are the vertex sets that are pairwise related; every point
    is a vertex because relations contain the diagonal. Non-symmetric
    input is rejected: use vr_complex instead, or apply symmetric_part
    first, whichever matches the intent.
    """
    if not is_symmetric(u):
        raise ValueError(
            "relation is not symmetric: use vr_complex for order-aware "
            "simplices or symmetric_part(u) to symmetrize first"
        )
    return vr_complex(u, max_dim)


def vr_complex(u: Relation, max_dim: int) -> SimplicialComplex:
    """Flag complex of a relation, order-aware exactly when it has to be.

    A vertex set is a simplex when some linear order makes every forward
    pair related; diagonal pairs are ignored by the order test. On
    symmetric relations this is the clique complex.
    """
    # Flag growth on neighbour bitmasks: a k-simplex extends a (k-1)-simplex
    # by a later vertex related, in some direction, to every vertex of it,
    # taken lowest bit first, so each layer comes out sorted. Non-symmetric
    # relations also need a source order on the extended set.
    n = u.space.size
    out, inn = [0] * n, [0] * n
    for i, j in u.pairs:
        out[i] |= 1 << j
        inn[j] |= 1 << i
    ordered = out != inn
    above = [(out[i] | inn[i]) >> (i + 1) << (i + 1) for i in range(n)]
    layers = [[(i,) for i in range(n)]]
    frontier = [((i,), above[i]) for i in range(n)]
    for _ in range(max_dim):
        grown = []
        for simplex, cand in frontier:
            while cand:
                low = cand & -cand
                cand ^= low
                j = low.bit_length() - 1
                ext = simplex + (j,)
                if not ordered or _has_source_order(ext, out):
                    grown.append((ext, cand & above[j]))
        if not grown:
            break
        layers.append([s for s, _ in grown])
        frontier = grown
    # Nothing above the cap can exist if growth stopped early or the cap
    # already fits a simplex on every point.
    return SimplicialComplex._trusted(u.space, layers, max_dim,
                                      complete=len(layers) - 1 < max_dim or max_dim >= n - 1)


def _has_source_order(vs: Simplex, out) -> bool:
    # Greedy source elimination on out-neighbour masks: repeatedly remove a
    # vertex with forward pairs to everything remaining. Faces of recognized
    # sets are always recognized, so the greedy choice is never wrong.
    active = list(vs)
    rest = sum(1 << v for v in active)
    while len(active) > 1:
        src = next((v for v in active if (out[v] | 1 << v) & rest == rest), None)
        if src is None:
            return False
        active.remove(src)
        rest ^= 1 << src
    return True


def pair_complex(u: Relation, a, max_dim: int) -> ComplexPair:
    """Pair of flag complexes: the whole space against a nonempty subset.

    The subcomplex is the full subcomplex of the flag complex on the
    subset, which is the flag complex of the relation restricted to it.
    """
    pts = u.space.check_points(a)
    if not pts:
        raise ValueError("the subset of a pair must be nonempty")
    total = vr_complex(u, max_dim)
    return ComplexPair(total, full_subcomplex(total, pts))


def full_subcomplex(k: SimplicialComplex, vertices) -> SimplicialComplex:
    """All stored simplices supported on the given vertex set."""
    vs = k.space.check_points(vertices)
    layers = (tuple(s for s in layer if vs.issuperset(s)) for layer in k.simplices)
    return SimplicialComplex._trusted(k.space, layers, k.max_dim, k.complete)


def nerve_of_cover(u: Cover, max_dim: int) -> SimplicialComplex:
    """Nerve of a cover: one vertex per set, simplices where intersections meet.

    Lives on a fresh space labeled U0, U1, ... in the cover's order.
    Empty member sets are rejected since they would be phantom vertices.
    A set of members meets exactly when some point lies in all of them,
    so the nerve is the face closure of the points' stars {i : x in U_i}.
    """
    for idx, s in enumerate(u.sets):
        if not s:
            raise ValueError(f"cover set {idx} is empty")
    space = FiniteSpace(tuple(f"U{i}" for i in range(len(u.sets))))
    stars = (tuple(i for i, s in enumerate(u.sets) if x in s) for x in u.space.points())
    return _closure(space, stars, max_dim)


def cover_complex(u: Cover, max_dim: int) -> SimplicialComplex:
    """Witness complex of a cover: simplices are subsets of single cover sets.

    This is the classical Vietoris construction for a cover, the partner
    of the nerve in Dowker duality. It can be strictly smaller than the
    flag complex of vietoris_relation(u), which only sees pairs.
    """
    return _closure(u.space, u.sets, max_dim)


def explicit_complex(space: FiniteSpace, maximal_simplices, max_dim: int | None = None) -> SimplicialComplex:
    """Face closure of explicitly given simplices.

    The input is taken to be the entire intended complex, so the result
    is complete unless a smaller max_dim truncates it.
    """
    tops = [tuple(sorted(set(s))) for s in maximal_simplices]
    for s in tops:
        if not s:
            raise ValueError("simplices must be nonempty")
        space.check_points(s)
    cap = max((len(s) - 1 for s in tops), default=0) if max_dim is None else max_dim
    return _closure(space, tops, cap)


@dataclass(frozen=True)
class SimplicialVertexMap:
    """A vertex assignment that carries simplices to simplices.

    assignment has one entry per point of the domain space; entries are
    only meaningful (and only validated) at actual vertices of the
    domain complex. Degenerate images are fine as long as the collapsed
    vertex set is a codomain simplex.
    """

    domain: SimplicialComplex
    codomain: SimplicialComplex
    assignment: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.domain.space.size:
            raise ValueError(
                f"assignment has {len(self.assignment)} entries, expected {self.domain.space.size}"
            )
        for (v,) in self.domain.layer(0):
            w = self.assignment[v]
            if not 0 <= w < self.codomain.space.size:
                raise IndexError(f"vertex {v} maps to {w}, out of range")
        for layer in self.domain.simplices:
            for s in layer:
                image = tuple(sorted({self.assignment[v] for v in s}))
                if not self.codomain.has(image):
                    raise ValueError(
                        f"vertex map is not simplicial: {s} maps onto {image}, "
                        "which is not a codomain simplex"
                    )


@dataclass(frozen=True)
class Inclusion:
    """A complex inside a larger complex, or a pair inside a larger pair.

    Both ends live on the same space. For pairs the subcomplex must sit
    inside the other subcomplex as well, so the inclusion is a map of
    pairs.
    """

    domain: SimplicialComplex | ComplexPair
    codomain: SimplicialComplex | ComplexPair

    def __post_init__(self):
        kinds = {type(self.domain), type(self.codomain)}
        if kinds == {ComplexPair}:
            ends = ((self.domain.total, self.codomain.total), (self.domain.sub, self.codomain.sub))
        elif kinds == {SimplicialComplex}:
            ends = ((self.domain, self.codomain),)
        else:
            raise TypeError("an inclusion joins two complexes or two pairs")
        for small, big in ends:
            if small.space != big.space:
                raise ValueError("inclusion ends live on different spaces")
            for layer in small.simplices:
                for s in layer:
                    if not big.has(s):
                        raise ValueError(f"simplex {s} is not in the codomain")


def simplicial_map(f, dom: SimplicialComplex, cod: SimplicialComplex) -> SimplicialVertexMap:
    return SimplicialVertexMap(dom, cod, tuple(f))


def are_contiguous(f: SimplicialVertexMap, g: SimplicialVertexMap) -> bool:
    """Do the two maps send every simplex into a common codomain simplex?"""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError("contiguity needs maps with identical domain and codomain")
    for layer in f.domain.simplices:
        for s in layer:
            joint = tuple(sorted({f.assignment[v] for v in s} | {g.assignment[v] for v in s}))
            if not f.codomain.has(joint):
                return False
    return True


def chain_image(assignment, s: Simplex) -> tuple[int, Simplex | None]:
    """Oriented image of a simplex under a vertex map: (sign, simplex).

    Degenerate images return (0, None); otherwise the sign is the parity
    of the permutation sorting the image vertices.
    """
    img = [assignment[v] for v in s]
    if len(set(img)) != len(img):
        return 0, None
    inversions = sum(
        1 for a, b in itertools.combinations(img, 2) if a > b
    )
    return (-1) ** inversions, tuple(sorted(img))
