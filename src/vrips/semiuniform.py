"""Limit homology over a base and mechanical checks of its axioms.

A finite base directed under intersection always has towers of flag
complexes indexed by its members; when an inclusion-smallest member
exists, the limit of the tower is just the homology at that member, and
everything here evaluates there. Whether a coarser member already
agrees with the limit is read, over a field, off the bars of the tower
of members above the minimum (one reduction, no map per member), and
over the integers by comparing betti numbers and torsion. The verify_*
functions each check one axiom-shaped statement on a concrete instance
and return a verdict that carries a witness when the check fails, so a
red result is always accompanied by something a human can look at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closure import Cover
from .complexes import (
    cover_complex,
    full_subcomplex,
    nerve_of_cover,
    pair_complex,
    simplicial_map,
    vr_complex,
)
from .homology import (
    INTEGERS,
    Coefficients,
    HomologyResult,
    cohomology,
    homology,
    induced_map,
    tower_bars,
)
from .relations import (
    FiniteSpace,
    Relation,
    SemiUniformBase,
    check_uniform_continuity,
    product_relation,
    relation,
    relation_image,
    relativize,
    symmetric_part,
)


class NoMinimumError(ValueError):
    """Raised when a base has no inclusion-smallest member.

    Bases built through the public constructors are closed under
    intersection and therefore always have one; this guards hand-built
    instances.
    """


@dataclass(frozen=True)
class AxiomVerdict:
    """One axiom checked on one instance. Failing verdicts carry a witness."""

    axiom: str
    instance: str
    passed: bool
    witness: str = ""

    def __post_init__(self):
        if not self.passed and not self.witness:
            raise ValueError("a failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class MemberAgreement:
    """Whether one tower stage already agrees with the limit.

    Disagreement is not an error: coarse members may well have different
    homology. betti lists the member's ranks over the compared range,
    the degrees that both the member and the minimum compute exactly.
    Over a field the member agrees when the inclusion of the minimum
    induces isomorphisms there, read off the tower's bars: the bars born
    at the minimum, those alive at the member and those born at the
    minimum that outlive it are equally many. Over the integers it
    agrees when its betti numbers and torsion equal the minimum's.
    """

    member_index: int
    agrees: bool
    betti: tuple[int, ...]


@dataclass(frozen=True)
class LimitReport:
    """Limit homology of a base plus diagnostics about its member tower."""

    member_count: int
    inclusions: tuple[tuple[int, int], ...]
    minimum_index: int
    minimum: Relation
    result: HomologyResult
    cohomology_result: HomologyResult | None
    stabilization: tuple[MemberAgreement, ...]


def _minimum_or_raise(base: SemiUniformBase) -> tuple[int, Relation]:
    m = base.minimum()
    if m is None:
        raise NoMinimumError("the base has no inclusion-smallest member")
    return base.members.index(m), m


def _through(res: HomologyResult, top: int) -> tuple[tuple, tuple]:
    """Betti numbers and torsion of res in degrees 0 through top."""
    return res.betti[: top + 1], res.torsion[: top + 1]


def _verdict(axiom: str, instance: str, problems: list[str]) -> AxiomVerdict:
    """Passing verdict without problems, else a failing one witnessed by all of them."""
    return AxiomVerdict(axiom, instance, not problems, "; ".join(problems))


def _object_at(rel: Relation, subset, max_dim: int):
    if subset is None:
        return vr_complex(rel, max_dim)
    return pair_complex(rel, subset, max_dim)


def _torsion_agrees(dom_obj, dom_result, u_rel: Relation, subset,
                    max_dim: int) -> tuple[bool, tuple[int, ...]]:
    """Compare the limit stage over the integers, already built as dom_obj
    with unreduced homology dom_result, against one member stage: betti
    numbers and torsion on the range both compute exactly."""
    cod_obj = _object_at(u_rel, subset, max_dim)
    top = min(dom_obj.reliable_top, cod_obj.reliable_top)
    if top < 0:
        return True, ()
    low = _through(homology(cod_obj, INTEGERS), top)
    return _through(dom_result, top) == low, low[0]


def _bar_agreement(bars, t: int, top: int) -> tuple[bool, tuple[int, ...]]:
    """Whether stage t of a tower agrees with stage 0 in degrees 0..top,
    and its ranks there, read off the tower's bars (see MemberAgreement).
    A class born and bounded between the two stages changes neither."""
    def alive(k, born_by):
        return sum(1 for b, d in bars[k] if b <= born_by and (d is None or d > t))

    betti = tuple(alive(k, t) for k in range(top + 1))
    agrees = all(sum(1 for b, _ in bars[k] if b == 0) == betti[k] == alive(k, 0)
                 for k in range(top + 1))
    return agrees, betti


def _field_stabilization(obj, others, subset, coeffs: Coefficients,
                         max_dim: int) -> tuple[MemberAgreement, ...]:
    """Each member in others against the limit stage obj over a field,
    from the bars of one tower or of one tower per member (see
    limit_homology)."""
    order = sorted(others, key=lambda iu: len(iu[1].pairs))
    if all(a.pairs <= b.pairs for (_, a), (_, b) in zip(order, order[1:])):
        towers = [order]
    else:
        towers = [[iu] for iu in order]
    found = {}
    for tower in towers:
        stages = [obj] + [_object_at(u, subset, max_dim) for _, u in tower]
        bars = tower_bars(stages, coeffs)
        for t, (i, _) in enumerate(tower, 1):
            found[i] = _bar_agreement(bars, t, min(obj.reliable_top, stages[t].reliable_top))
    return tuple(MemberAgreement(i, *found[i]) for i, _ in others)


def limit_homology(base: SemiUniformBase, subset=None, coeffs: Coefficients = INTEGERS,
                   max_dim: int = 2, reduced: bool = False) -> LimitReport:
    """Homology of the tower limit, evaluated at the base's smallest member.

    The flag complex tower over a directed base with a smallest member
    has its limit at that member, so the result is the homology of its
    flag complex (or of the pair against the optional vertex subset).
    Cohomology is included for field coefficients, where the direct
    limit sits at the same member. The stabilization entries report
    which coarser members already agree with the limit (see
    MemberAgreement). Over a field the members, in order of pair count,
    form one tower above the minimum when each holds the one before, as
    a scale base's do, and that tower is reduced once for its bars;
    otherwise each member and the minimum form a tower of their own. A
    base with one member computes no bars.
    """
    idx, m = _minimum_or_raise(base)
    obj = _object_at(m, subset, max_dim)
    others = [(i, u) for i, u in enumerate(base.members) if i != idx]
    if coeffs.is_field:
        agreements = _field_stabilization(obj, others, subset, coeffs, max_dim) if others else ()
        result = homology(obj, coeffs, reduced=reduced)
        coh = cohomology(obj, coeffs)
    else:
        # The members are compared with the minimum's unreduced groups.
        plain = homology(obj, coeffs)
        agreements = tuple(MemberAgreement(i, *_torsion_agrees(obj, plain, u, subset, max_dim))
                           for i, u in others)
        result = homology(obj, coeffs, reduced=True) if reduced else plain
        coh = None
    inclusions = tuple(
        (i, j)
        for i, u in enumerate(base.members)
        for j, v in enumerate(base.members)
        if i != j and u.pairs <= v.pairs
    )
    return LimitReport(
        member_count=len(base.members),
        inclusions=inclusions,
        minimum_index=idx,
        minimum=m,
        result=result,
        cohomology_result=coh,
        stabilization=agreements,
    )


# --------------------------------------------------------------------------
# dimension


def verify_dimension(coeffs: Coefficients = INTEGERS, max_dim: int = 2) -> AxiomVerdict:
    """One-point space: a single rank in degree zero and nothing else."""
    space = FiniteSpace(("pt",))
    base = SemiUniformBase.from_members([Relation(space, frozenset({(0, 0)}))])
    report = limit_homology(base, coeffs=coeffs, max_dim=max_dim)
    want = (1,) + (0,) * max_dim
    problems = []
    if report.result.betti != want:
        problems.append(f"betti {report.result.betti} != {want}")
    if any(report.result.torsion):
        problems.append(f"unexpected torsion {report.result.torsion}")
    if coeffs.is_field and report.cohomology_result.betti != want:
        problems.append(f"cohomology betti {report.cohomology_result.betti} != {want}")
    reduced = limit_homology(base, coeffs=coeffs, max_dim=max_dim, reduced=True)
    if any(reduced.result.betti):
        problems.append(f"reduced betti {reduced.result.betti} is not zero")
    return _verdict("dimension", f"one point over {coeffs.describe()}", problems)


# --------------------------------------------------------------------------
# excision


def _excision_sets(base: SemiUniformBase, a, bset) -> tuple[frozenset, frozenset]:
    """The subset A and the excised set B as point sets, B inside A."""
    a = base.space.check_points(a)
    b = base.space.check_points(bset)
    if not b <= a:
        raise ValueError("the excised set must sit inside the subset")
    return a, b


def _excision_witness_index(base: SemiUniformBase, a: frozenset, b: frozenset) -> int | None:
    """Index of a member W with U[B] inside A for every member U within W."""
    for w_idx, w in enumerate(base.members):
        if all(relation_image(u, b) <= a for u in base.members if u.pairs <= w.pairs):
            return w_idx
    return None


def check_excision_hypothesis(base: SemiUniformBase, a, bset) -> AxiomVerdict:
    """Is there a member under which B never reaches outside A?"""
    a, b = _excision_sets(base, a, bset)
    problems = []
    if _excision_witness_index(base, a, b) is None:
        _, m = _minimum_or_raise(base)
        leak = sorted(relation_image(m, b) - a)
        problems.append(f"even the smallest member reaches {leak} from B outside A")
    return _verdict("excision-hypothesis", f"A={sorted(a)}, B={sorted(b)}", problems)


def verify_excision(base: SemiUniformBase, a, bset, coeffs: Coefficients = INTEGERS,
                    max_dim: int = 2) -> AxiomVerdict:
    """Compare relative homology before and after cutting B out.

    For every member U under the hypothesis witness W, the symmetric
    part S of U gives a pair (X, A) whose homology must match the pair
    (X - B, A - B) built from S restricted to X - B. The comparison
    covers betti numbers and torsion on the reliably computed range.
    Raises when the hypothesis fails; check it first to get a verdict.
    """
    a, b = _excision_sets(base, a, bset)
    if not a:
        raise ValueError("the subset of the pair must be nonempty")
    rest = sorted(set(base.space.points()) - b)
    if not rest:
        raise ValueError("cutting B out must leave at least one point")
    w_idx = _excision_witness_index(base, a, b)
    if w_idx is None:
        raise ValueError("excision hypothesis fails: no member keeps U[B] inside A")
    w = base.members[w_idx]
    instance = f"A={sorted(a)}, B={sorted(b)}, witness member {w_idx}"

    index_in_rest = {p: k for k, p in enumerate(rest)}
    a_small = sorted(index_in_rest[p] for p in a - b)
    problems = []
    for u_idx, u in enumerate(base.members):
        if not u.pairs <= w.pairs:
            continue
        s = symmetric_part(u)
        big = pair_complex(s, a, max_dim)
        s_small = relativize(s, rest)
        if a_small:
            small = pair_complex(s_small, a_small, max_dim)
        else:
            small = vr_complex(s_small, max_dim)
        top = min(big.reliable_top, small.reliable_top)
        (bb, tb), (bs, ts) = (_through(homology(c, coeffs), top) for c in (big, small))
        if (bb, tb) != (bs, ts):
            problems.append(f"member {u_idx}: pair gives betti {bb} torsion {tb}, "
                            f"cut space gives {bs} torsion {ts}")
    return _verdict("excision", instance, problems)


# --------------------------------------------------------------------------
# homotopy via a discretized cylinder


def interval_space(n: int) -> FiniteSpace:
    if n < 2:
        raise ValueError("a discretized interval needs at least two points")
    return FiniteSpace(tuple(f"t{i}" for i in range(n)))


def interval_relation(n: int, r) -> Relation:
    """Strict scale-r relation of n evenly spaced points on the unit interval.

    Points i and j lie |i - j|/(n-1) apart, so they are related exactly
    when |i - j| < r (n-1), that is when |i - j| <= ceil(r (n-1)) - 1:
    neighbours exactly when r exceeds the spacing 1/(n-1). Below that the
    complex falls apart into components.
    """
    space = interval_space(n)
    if r < 0:
        raise ValueError("scale must be nonnegative")
    band = math.ceil(r * (n - 1)) - 1
    pairs = {(i, j) for i in range(n) for j in range(max(0, i - band), min(n, i + band + 1))}
    return relation(space, pairs)


def check_interval_acyclic(n: int, r, max_dim: int = 2) -> AxiomVerdict:
    """Reduced integer homology of the discretized interval must vanish."""
    rel = interval_relation(n, r)
    spacing = Fraction(1, n - 1)
    k = vr_complex(rel, max_dim)
    betti, torsion = _through(homology(k, INTEGERS, reduced=True), k.reliable_top)
    problems = []
    if any(betti) or any(torsion):
        hyp = "holds" if r > spacing else "FAILS"
        problems.append(f"reduced betti {betti}, torsion {torsion}; "
                        f"spacing hypothesis r > {spacing} {hyp}")
    return _verdict("interval-acyclic", f"n={n}, r={r}", problems)


def _cylinder_vertices(x: int, n: int) -> list[int]:
    return [x * n + t for t in range(n)]


def verify_homotopy_cylinder(u: Relation, n: int, r, coeffs: Coefficients,
                             max_dim: int = 2) -> AxiomVerdict:
    """Both ends of the cylinder over u must induce the same homology maps.

    The cylinder is the product of u with the strict scale-r relation on
    n interval points; the two end inclusions are compared as induced
    maps through dimension max_dim - 1. As a side condition, the
    cylinder over each maximal simplex must have vanishing reduced
    integer homology, which is what makes the end maps interchangeable.
    """
    ivl = interval_relation(n, r)
    cyl = product_relation(u, ivl)
    kx = vr_complex(u, max_dim)
    kc = vr_complex(cyl, max_dim)
    size = u.space.size
    g0 = simplicial_map([x * n for x in range(size)], kx, kc)
    g1 = simplicial_map([x * n + (n - 1) for x in range(size)], kx, kc)
    m0 = induced_map(g0, coeffs, top_dim=max_dim - 1)
    m1 = induced_map(g1, coeffs, top_dim=max_dim - 1)

    problems = []
    if m0 != m1:
        bad = [k for k in range(max_dim) if m0.matrices[k] != m1.matrices[k]]
        problems.append(f"end maps differ in dimensions {bad}")
    for s in kx.maximal_simplices():
        block = sorted(v for x in s for v in _cylinder_vertices(x, n))
        piece = full_subcomplex(kc, block)
        betti, torsion = _through(homology(piece, INTEGERS, reduced=True), piece.reliable_top)
        if any(betti) or any(torsion):
            problems.append(f"cylinder over simplex {s} has reduced betti {betti}")
            break
    return _verdict("homotopy-cylinder", f"|X|={size}, n={n}, r={r}, over {coeffs.describe()}", problems)


# --------------------------------------------------------------------------
# cover duality and functoriality


def verify_dowker(cover: Cover, coeffs: Coefficients = INTEGERS, max_dim: int = 2) -> AxiomVerdict:
    """Witness complex and nerve of one cover must agree in homology.

    Both complexes are enumerated to max_dim and compared strictly below
    it, since the top dimension is where truncation bites and the two
    complexes truncate differently.
    """
    kw = cover_complex(cover, max_dim)
    kn = nerve_of_cover(cover, max_dim)
    (bw, tw), (bn, tn) = (_through(homology(k, coeffs), max_dim - 1) for k in (kw, kn))
    problems = []
    if (bw, tw) != (bn, tn):
        problems.append(f"witness complex betti {bw} torsion {tw}, nerve betti {bn} torsion {tn}")
    return _verdict("dowker-duality", f"{len(cover.sets)} sets over {coeffs.describe()}", problems)


def verify_functoriality(f, g, bx: SemiUniformBase, by: SemiUniformBase,
                         bz: SemiUniformBase, coeffs: Coefficients,
                         max_dim: int = 2) -> AxiomVerdict:
    """Composition and identity behave on induced maps.

    f and g are point maps (X to Y, Y to Z) that must be uniformly
    continuous against the given bases; continuity failures raise. The
    check compares the induced map of g after f with the composite of
    the individual induced maps, and checks that the identity on X
    induces identity matrices, all through dimension max_dim - 1.
    """
    if not check_uniform_continuity(f, bx, by):
        raise ValueError("f is not uniformly continuous against the given bases")
    if not check_uniform_continuity(g, by, bz):
        raise ValueError("g is not uniformly continuous against the given bases")

    kx, ky, kz = (vr_complex(_minimum_or_raise(b)[1], max_dim) for b in (bx, by, bz))

    def induced(points, dom, cod):
        return induced_map(simplicial_map(points, dom, cod), coeffs, top_dim=max_dim - 1)

    f, g = tuple(f), tuple(g)  # the point maps may be any iterables; g[f[x]] indexes them
    fmap = induced(f, kx, ky)
    gmap = induced(g, ky, kz)
    comp = induced((g[f[x]] for x in range(bx.space.size)), kx, kz)
    ident = induced(range(bx.space.size), kx, kx)

    problems = []
    chained = gmap.compose(fmap)
    if comp != chained:
        bad = [k for k in range(max_dim) if comp.matrices[k] != chained.matrices[k]]
        problems.append(f"composite map differs from chained maps in dimensions {bad}")
    if not ident.is_identity():
        problems.append("identity point map does not induce identity matrices")
    sizes = f"|X|={bx.space.size}, |Y|={by.space.size}, |Z|={bz.space.size}"
    return _verdict("functoriality", f"{sizes} over {coeffs.describe()}", problems)
