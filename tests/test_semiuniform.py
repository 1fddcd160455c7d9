"""Limit homology over bases and the axiom checks built on it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrips as v
from vrips.homology import tower_bars
from vrips.relations import metric_relation, relation, space_of_size
import vrips.semiuniform as su
from vrips.semiuniform import NoMinimumError, interval_space
from conftest import circle_metric, metrics
from oracles import (
    brute_scale_pairs,
    full_relation,
    interval_pairs,
    interval_table,
    stabilization_by_induced_maps,
)


HALF = Fraction(1, 2)


def test_limit_of_discrete_square(square_metric):
    base = v.scale_base(square_metric, HALF, [Fraction(1, 4), HALF])
    report = v.limit_homology(base)
    # Both offsets give the identity relation, so the family dedupes.
    assert report.member_count == 1
    assert report.stabilization == ()
    assert report.result.betti == (4, 0, 0)
    assert report.cohomology_result is None


def test_limit_of_square_cycle(square_metric):
    base = v.scale_base(square_metric, 1, [Fraction(1, 5), HALF])
    report = v.limit_homology(base, coeffs=v.RATIONALS)
    assert report.member_count == 2
    assert report.minimum == metric_relation(square_metric, Fraction(6, 5), mode="strict")
    assert report.result.betti == (1, 1, 0)
    assert report.cohomology_result.betti == (1, 1, 0)
    # The coarse member is the full relation: a solid simplex, so the
    # tower has genuinely not stabilized at that stage.
    (entry,) = report.stabilization
    assert not entry.agrees
    assert entry.betti == (1, 0)
    other = entry.member_index
    assert (report.minimum_index, other) in report.inclusions


def test_limit_relative_to_subset(square_metric):
    base = v.scale_base(square_metric, 1, [Fraction(1, 5)])
    report = v.limit_homology(base, subset=[0, 1, 2])
    assert report.result.betti == (0, 1, 0)


def test_limit_reduced_flag(square_metric):
    base = v.scale_base(square_metric, HALF, [Fraction(1, 4)])
    report = v.limit_homology(base, reduced=True)
    assert report.result.betti == (3, 0, 0)


def test_limit_of_graph_base_matches_direct_homology(cycle4):
    base = v.SemiUniformBase.from_members([cycle4])
    report = v.limit_homology(base, max_dim=2)
    assert report.result.betti == v.homology(v.clique_complex(cycle4, 2)).betti


@given(metrics(max_points=5), st.data())
@settings(max_examples=30, deadline=None)
def test_scale_base_minimum_is_the_tightest_scale(d, data):
    pool = [Fraction(1, 8), Fraction(1, 3), HALF, Fraction(1, 1)]
    q = data.draw(st.sampled_from(pool), label="q")
    deltas = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3), label="deltas")
    base = v.scale_base(d, q, deltas)
    assert base.minimum() == metric_relation(d, q + min(deltas), mode="strict")


@st.composite
def towers(draw):
    """A scale base over a table with tied distances, or a base of two to
    four random symmetric relations, whose members need not nest."""
    if draw(st.booleans()):
        d = draw(metrics(max_points=6))
        q = draw(st.sampled_from([Fraction(k, 4) for k in range(9)]))
        offsets = st.sampled_from([Fraction(k, 8) for k in range(1, 13)])
        return v.scale_base(d, q, draw(st.lists(offsets, min_size=1, max_size=4)))
    n = draw(st.integers(2, 6))
    pairs = st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n)
    members = [relation(space_of_size(n), set(ps) | {(j, i) for i, j in ps})
               for ps in draw(st.lists(pairs, min_size=2, max_size=4))]
    return v.SemiUniformBase.from_members(members)


@given(towers(), st.sampled_from([v.RATIONALS, v.prime_field(2), v.prime_field(3)]),
       st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_field_stabilization_matches_the_induced_maps(base, coeffs, cap, data):
    """Read off the bars, each member's agreement and ranks are those of
    the map its inclusion of the minimum induces, for complexes and pairs."""
    n = base.space.size
    subset = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                       label="subset")
    report = v.limit_homology(base, subset=subset, coeffs=coeffs, max_dim=cap)
    got = tuple((m.member_index, m.agrees, m.betti) for m in report.stabilization)
    assert got == stabilization_by_induced_maps(base, coeffs, subset, cap)


def test_a_class_born_and_bounded_above_the_minimum_keeps_the_isomorphism():
    """The square 0-1-2-3 closes into a loop at member 1 and is filled at
    member 2, so only member 1 disagrees with the minimum, a path."""
    table = ((0, 1, Fraction(6, 5), 1), (1, 0, 1, Fraction(3, 2)),
             (Fraction(6, 5), 1, 0, Fraction(11, 10)), (1, Fraction(3, 2), Fraction(11, 10), 0))
    d = v.SemiPseudometric(space_of_size(4), tuple(tuple(Fraction(x) for x in row) for row in table))
    base = v.scale_base(d, 1, [Fraction(1, 20), Fraction(3, 20), Fraction(1, 4)])
    report = v.limit_homology(base, coeffs=v.RATIONALS)
    assert [m.agrees for m in report.stabilization] == [False, True]
    assert [m.betti for m in report.stabilization] == [(1, 1, 0), (1, 0)]
    assert tower_bars([v.vr_complex(u, 2) for u in base.members], v.RATIONALS) == (
        ((0, None),), ((1, 2),), ())
    got = tuple((m.member_index, m.agrees, m.betti) for m in report.stabilization)
    assert got == stabilization_by_induced_maps(base, v.RATIONALS)


def test_missing_minimum_raises():
    space = space_of_size(2)
    left = relation(space, [(0, 1), (1, 0)])
    right = relation(space)
    bad = object.__new__(v.SemiUniformBase)
    object.__setattr__(bad, "space", space)
    object.__setattr__(bad, "members", (left, right))
    # Direct construction closes under intersection, so the broken family
    # can only be produced by bypassing it; the guard still has to hold.
    assert bad.minimum() is None or bad.minimum() == right
    incomparable = object.__new__(v.SemiUniformBase)
    object.__setattr__(incomparable, "space", space)
    object.__setattr__(
        incomparable,
        "members",
        (relation(space, [(0, 1)]), relation(space, [(1, 0)])),
    )
    with pytest.raises(NoMinimumError):
        v.limit_homology(incomparable)


@pytest.mark.parametrize(
    "coeffs", [v.INTEGERS, v.RATIONALS, v.prime_field(2), v.prime_field(3), v.prime_field(5)]
)
def test_dimension_axiom(coeffs):
    verdict = v.verify_dimension(coeffs)
    assert verdict
    assert verdict.axiom == "dimension"
    assert coeffs.describe() in verdict.instance


def test_excision_hypothesis_on_a_path(path4):
    base = v.SemiUniformBase.from_members([path4])
    assert v.check_excision_hypothesis(base, [0, 1], [0])
    bad = v.check_excision_hypothesis(base, [0, 1], [1])
    assert not bad
    assert "reaches [2]" in bad.witness
    with pytest.raises(ValueError):
        v.check_excision_hypothesis(base, [0], [1])


def test_excision_on_the_cycle(cycle4):
    base = v.SemiUniformBase.from_members([cycle4])
    verdict = v.verify_excision(base, [0, 1, 2], [1])
    assert verdict
    assert verdict.axiom == "excision"


def test_excision_on_a_two_member_tower(square_metric):
    base = v.scale_base(square_metric, 1, [Fraction(1, 5), HALF])
    verdict = v.verify_excision(base, [0, 1, 2], [1], coeffs=v.prime_field(2))
    assert verdict


def test_excision_input_errors(cycle4):
    base = v.SemiUniformBase.from_members([cycle4])
    with pytest.raises(ValueError):
        v.verify_excision(base, [0, 1], [1])  # B's neighborhood leaks outside A
    with pytest.raises(ValueError):
        v.verify_excision(base, [0], [1])  # B not inside A
    with pytest.raises(ValueError):
        v.verify_excision(base, [], [])
    with pytest.raises(ValueError):
        v.verify_excision(base, [0, 1, 2, 3], [0, 1, 2, 3])


@pytest.mark.parametrize("n", range(2, 9))
def test_interval_is_acyclic_above_the_spacing(n):
    assert v.check_interval_acyclic(n, Fraction(2, n - 1))


def test_interval_detects_disconnection():
    verdict = v.check_interval_acyclic(4, Fraction(1, 4))
    assert not verdict
    assert "FAILS" in verdict.witness
    boundary = v.check_interval_acyclic(3, HALF)  # strict relation: r == spacing fails
    assert not boundary
    assert "FAILS" in boundary.witness


def test_interval_space_needs_two_points():
    with pytest.raises(ValueError):
        interval_space(1)
    with pytest.raises(ValueError):
        su.interval_relation(3, -HALF)


@st.composite
def interval_scales(draw):
    n = draw(st.integers(2, 9))
    k = Fraction(draw(st.integers(0, n)), n - 1)
    scales = [Fraction(0), k, k - Fraction(1, 100), k + Fraction(1, 100), Fraction(1), Fraction(2)]
    return n, draw(st.sampled_from([r for r in scales if r >= 0]))


@given(interval_scales())
@settings(max_examples=120, deadline=None)
def test_interval_relation_matches_the_distance_table(case):
    n, r = case
    rel = su.interval_relation(n, r)
    diagonal = {(i, i) for i in range(n)}
    assert rel.pairs == brute_scale_pairs(interval_table(n), r, "strict") | diagonal
    assert rel.space == interval_space(n)


@given(st.integers(2, 11), st.fractions(min_value=0, max_value=3, max_denominator=40))
@settings(max_examples=200, deadline=None)
def test_interval_relation_band_matches_the_pairwise_comparison(n, r):
    assert su.interval_relation(n, r).pairs == interval_pairs(n, r) | {(i, i) for i in range(n)}


def test_cylinder_ends_agree_on_the_cycle(cycle4):
    verdict = v.verify_homotopy_cylinder(cycle4, 5, Fraction(3, 10), v.RATIONALS)
    assert verdict
    assert "n=5" in verdict.instance


def test_cylinder_fails_when_the_interval_disconnects(cycle4):
    verdict = v.verify_homotopy_cylinder(cycle4, 3, Fraction(1, 4), v.RATIONALS)
    assert not verdict
    assert verdict.witness


def test_cylinder_rejects_integer_coefficients(cycle4):
    with pytest.raises(ValueError):
        v.verify_homotopy_cylinder(cycle4, 3, HALF, v.INTEGERS)
    with pytest.raises(ValueError):
        v.verify_homotopy_cylinder(cycle4, 3, HALF, v.RATIONALS, max_dim=0)


def test_functoriality_rejects_integer_coefficients(cycle4):
    base = v.SemiUniformBase.from_members([cycle4])
    identity = range(4)
    assert v.verify_functoriality(identity, identity, base, base, base, v.RATIONALS)
    with pytest.raises(ValueError):
        v.verify_functoriality(identity, identity, base, base, base, v.INTEGERS)
    with pytest.raises(ValueError):
        v.verify_functoriality(identity, identity, base, base, base, v.RATIONALS, max_dim=0)


def test_dowker_on_three_arcs():
    cover = v.Cover(space_of_size(3), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    verdict = v.verify_dowker(cover)
    assert verdict
    assert verdict.axiom == "dowker-duality"


def test_dowker_on_a_covered_circle():
    cover = v.Cover(
        space_of_size(6),
        (frozenset({0, 1, 2}), frozenset({2, 3, 4}), frozenset({4, 5, 0})),
    )
    for coeffs in (v.INTEGERS, v.prime_field(2)):
        assert v.verify_dowker(cover, coeffs)


def test_functoriality_of_a_rotation(cycle4):
    base = v.SemiUniformBase.from_members([cycle4])
    verdict = v.verify_functoriality(
        [1, 2, 3, 0], [1, 2, 3, 0], base, base, base, v.RATIONALS
    )
    assert verdict
    assert verdict.axiom == "functoriality"


def test_functoriality_composes_through_a_collapse(cycle4):
    bx = v.SemiUniformBase.from_members([cycle4])
    by = v.SemiUniformBase.from_members([full_relation(space_of_size(2))])
    bz = v.SemiUniformBase.from_members([full_relation(space_of_size(1))])
    verdict = v.verify_functoriality(
        [0, 1, 0, 1], [0, 0], bx, by, bz, v.prime_field(2)
    )
    assert verdict


def test_functoriality_rejects_discontinuous_maps(cycle4, path4):
    bx = v.SemiUniformBase.from_members([cycle4])
    by = v.SemiUniformBase.from_members([path4])
    with pytest.raises(ValueError):
        # The identity tears the cycle edge (3, 0), which the path lacks.
        v.verify_functoriality(range(4), range(4), bx, by, by, v.RATIONALS)


def test_failing_verdict_requires_a_witness():
    with pytest.raises(ValueError):
        v.AxiomVerdict("anything", "instance", False, "")
    ok = v.AxiomVerdict("anything", "instance", True)
    assert bool(ok)


def test_integer_limit_computes_the_minimum_once(monkeypatch):
    calls = []
    true_homology = su.homology

    def counting(obj, *args, **kwargs):
        calls.append(obj)
        return true_homology(obj, *args, **kwargs)

    d = circle_metric(8)
    base = v.scale_base(d, Fraction(7, 10), [Fraction(1, 10), Fraction(4, 5)])
    assert base.members[0] != base.members[1]
    monkeypatch.setattr(su, "homology", counting)
    reports = {}
    for reduced, most in ((False, 2), (True, 3)):
        calls.clear()
        reports[reduced] = v.limit_homology(base, reduced=reduced)
        assert len(calls) <= most
    assert reports[False].stabilization == reports[True].stabilization
    # Each member against the minimum's unreduced groups, recomputed here.
    monkeypatch.undo()
    low_k = v.vr_complex(reports[False].minimum, 2)
    low = v.homology(low_k)
    for entry in reports[False].stabilization:
        k = v.vr_complex(base.members[entry.member_index], 2)
        top = min(k.reliable_top, low_k.reliable_top)
        mine = v.homology(k)
        assert entry.betti == mine.betti[: top + 1]
        assert entry.agrees == ((low.betti[: top + 1], low.torsion[: top + 1])
                                == (mine.betti[: top + 1], mine.torsion[: top + 1]))
