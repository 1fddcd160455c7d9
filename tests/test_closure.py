"""Pointwise closure operators, covers, and derived relations."""

from fractions import Fraction

import pytest

import vrips as v
from vrips.relations import space_of_size


def chain_closure():
    """a-b-c-d path as a graph closure space."""
    space = v.FiniteSpace(("a", "b", "c", "d"))
    return v.graph_closure_space([(0, 1), (1, 2), (2, 3)], space)


def test_closure_requires_reflexivity():
    space = space_of_size(2)
    with pytest.raises(ValueError):
        v.AdditiveClosure(space, (frozenset({1}), frozenset({1})))


def test_closure_of_set_is_union_of_point_closures():
    c = chain_closure()
    assert v.closure_of_set(c, [0]) == frozenset({0, 1})
    assert v.closure_of_set(c, [0, 3]) == frozenset({0, 1, 2, 3})
    assert v.closure_of_set(c, []) == frozenset()


def test_interior_is_complement_dual():
    c = chain_closure()
    # interior of {a,b,c}: points whose closure avoids {d} is {a,b}.
    assert v.interior_set(c, [0, 1, 2]) == frozenset({0, 1})
    assert v.interior_set(c, range(4)) == frozenset(range(4))
    space = c.space
    everything = frozenset(range(4))
    for a in ([0], [0, 1], [1, 2, 3]):
        inside = v.interior_set(c, a)
        outside = v.closure_of_set(c, everything - frozenset(a))
        assert inside == everything - outside


def test_interior_cover_check():
    c = chain_closure()
    good = v.Cover(c.space, (frozenset({0, 1, 2}), frozenset({1, 2, 3})))
    verdict = v.is_interior_cover(c, good)
    assert verdict.ok and not verdict.uncovered
    # {a,b} has interior {a}; {c,d} has interior {d}; b and c are uncovered.
    bad = v.Cover(c.space, (frozenset({0, 1}), frozenset({2, 3})))
    verdict = v.is_interior_cover(c, bad)
    assert not verdict.ok
    assert verdict.uncovered == frozenset({1, 2})


def test_cover_requires_union():
    with pytest.raises(ValueError):
        v.Cover(space_of_size(3), (frozenset({0, 1}),))


def test_vietoris_relation_pairs_share_a_set():
    space = space_of_size(4)
    cov = v.Cover(space, (frozenset({0, 1}), frozenset({1, 2}), frozenset({3})))
    rel = v.vietoris_relation(cov)
    assert rel.contains(0, 1) and rel.contains(1, 0)
    assert rel.contains(1, 2)
    assert not rel.contains(0, 2)
    assert not rel.contains(2, 3)


def test_ii_relation_requires_interior_cover():
    c = chain_closure()
    bad = v.Cover(c.space, (frozenset({0, 1}), frozenset({2, 3})))
    with pytest.raises(ValueError):
        v.ii_relation(c, bad)


def test_ii_relation_values():
    c = chain_closure()
    cov = v.Cover(c.space, (frozenset({0, 1, 2}), frozenset({1, 2, 3})))
    rel = v.ii_relation(c, cov)
    # a is interior to {a,b,c}, so a pairs with b and c.
    assert rel.contains(0, 2) and rel.contains(2, 0)
    # a and d share no set.
    assert not rel.contains(0, 3)


def test_ii_matches_vietoris_for_discrete_closure():
    space = space_of_size(4)
    c = v.AdditiveClosure(space, tuple(frozenset([x]) for x in space.points()))  # discrete
    cov = v.Cover(space, (frozenset({0, 1}), frozenset({1, 2, 3})))
    assert v.ii_relation(c, cov).pairs == v.vietoris_relation(cov).pairs


def test_cover_refines():
    space = space_of_size(4)
    coarse = v.Cover(space, (frozenset({0, 1, 2}), frozenset({2, 3})))
    fine = v.Cover(space, (frozenset({0, 1}), frozenset({2}), frozenset({2, 3})))
    assert v.cover_refines(coarse, fine)
    assert not v.cover_refines(fine, coarse)
    with pytest.raises(ValueError):
        v.cover_refines(coarse, v.Cover(space_of_size(2), (frozenset({0, 1}),)))


def test_metric_closure_space(square_metric):
    c = v.metric_closure_space(square_metric, Fraction(1))
    assert c.nbhd[0] == frozenset({0, 1, 3})  # unit sides, not the diagonal
    with pytest.raises(ValueError):
        v.metric_closure_space(square_metric, -1)


def test_graph_closure_space_symmetric_edges():
    space = space_of_size(3)
    c = v.graph_closure_space([(0, 1)], space)
    assert c.nbhd[0] == frozenset({0, 1})
    assert c.nbhd[1] == frozenset({0, 1})
    assert c.nbhd[2] == frozenset({2})
