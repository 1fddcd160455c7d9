"""Induced homology maps, composition, and the long exact sequence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrips as v
from vrips.relations import relation, space_of_size
from conftest import symmetric_relations
from oracles import full_relation


def hollow_triangle():
    return v.explicit_complex(space_of_size(3), [(0, 1), (1, 2), (0, 2)], max_dim=2)


def hexagon():
    space = space_of_size(6)
    edges = [(i, (i + 1) % 6) for i in range(6)]
    return v.clique_complex(v.graph_relation(edges, space), 2)


def test_identity_induces_identity(cycle4):
    k = v.clique_complex(cycle4, 2)
    m = v.induced_map(v.simplicial_map(range(4), k, k), v.RATIONALS)
    assert m.is_identity()
    assert m.domain_ranks == (1, 1, 0)


def test_rotation_fixes_the_circle_class(cycle4):
    k = v.clique_complex(cycle4, 2)
    rot = v.induced_map(v.simplicial_map([1, 2, 3, 0], k, k), v.RATIONALS)
    assert rot.matrices[1] == ((Fraction(1),),)
    assert rot.is_isomorphism_at(1)


def test_reflection_reverses_the_circle_class(cycle4):
    k = v.clique_complex(cycle4, 2)
    refl = v.induced_map(v.simplicial_map([0, 3, 2, 1], k, k), v.RATIONALS)
    assert refl.matrices[1] == ((Fraction(-1),),)
    assert refl.compose(refl).is_identity()


def test_double_cover_has_degree_two():
    hexa = hexagon()
    tri = hollow_triangle()
    wrap = v.induced_map(
        v.simplicial_map([i % 3 for i in range(6)], hexa, tri), v.RATIONALS
    )
    (entry,) = (x for row in wrap.matrices[1] for x in row)
    assert abs(entry) == 2


def test_constant_map_kills_the_circle(cycle4):
    k = v.clique_complex(cycle4, 2)
    const = v.induced_map(v.simplicial_map([0, 0, 0, 0], k, k), v.RATIONALS)
    assert const.matrices[1] == ((Fraction(0),),)
    assert const.rank(0) == 1


def test_contiguous_maps_induce_equal_matrices():
    space = space_of_size(4)
    seg = v.clique_complex(v.graph_relation([(0, 1), (1, 2), (2, 3)], space), 2)
    src = hexagon()
    f = v.simplicial_map([0] * 6, src, seg)
    g = v.simplicial_map([1] * 6, src, seg)
    assert v.are_contiguous(f, g)
    assert v.induced_map(f, v.RATIONALS) == v.induced_map(g, v.RATIONALS)


@given(symmetric_relations(min_points=1, max_points=5), st.data())
@settings(max_examples=40, deadline=None)
def test_composition_of_induced_maps(rel, data):
    nx = rel.space.size
    ny = data.draw(st.integers(1, 4), label="ny")
    nz = data.draw(st.integers(1, 4), label="nz")
    kx = v.clique_complex(rel, 2)
    ky = v.clique_complex(full_relation(space_of_size(ny)), 2)
    kz = v.clique_complex(full_relation(space_of_size(nz)), 2)
    f = [data.draw(st.integers(0, ny - 1), label=f"f({i})") for i in range(nx)]
    g = [data.draw(st.integers(0, nz - 1), label=f"g({j})") for j in range(ny)]
    fmap = v.induced_map(v.simplicial_map(f, kx, ky), v.RATIONALS, top_dim=1)
    gmap = v.induced_map(v.simplicial_map(g, ky, kz), v.RATIONALS, top_dim=1)
    direct = v.induced_map(
        v.simplicial_map([g[f[x]] for x in range(nx)], kx, kz), v.RATIONALS, top_dim=1
    )
    assert gmap.compose(fmap) == direct


def test_quotient_map_of_a_pair(cycle4):
    pair = v.pair_complex(cycle4, [0, 1, 2], 2)
    j = v.induced_map(pair, v.RATIONALS)
    assert j.domain_ranks == (1, 1, 0)   # absolute circle
    assert j.codomain_ranks == (0, 1, 0) # relative groups
    assert j.rank(1) == 1
    assert j.is_isomorphism_at(1)


def test_induced_map_requires_field(cycle4):
    k = v.clique_complex(cycle4, 2)
    with pytest.raises(ValueError):
        v.induced_map(v.simplicial_map(range(4), k, k), v.INTEGERS)
    with pytest.raises(TypeError):
        v.induced_map("nonsense", v.RATIONALS)


def test_induced_map_refuses_degrees_the_cap_cannot_support():
    tri = v.clique_complex(v.graph_relation([(0, 1), (1, 2), (0, 2)], space_of_size(3)), 1)
    assert tri.reliable_top == 0  # at cap 1 the filled triangle is unseen
    for f in (v.Inclusion(tri, tri), v.simplicial_map(range(3), tri, tri)):
        assert v.induced_map(f, v.RATIONALS, top_dim=0).is_identity()
        for top in (1, 4):
            with pytest.raises(ValueError, match="top_dim"):
                v.induced_map(f, v.RATIONALS, top_dim=top)
        with pytest.raises(ValueError):
            v.induced_map(f, v.RATIONALS, top_dim=-1)


def test_compose_mismatches_raise(cycle4):
    k = v.clique_complex(cycle4, 2)
    ident = v.induced_map(v.simplicial_map(range(4), k, k), v.RATIONALS)
    const_pt = v.induced_map(
        v.simplicial_map([0, 0, 0, 0], k, v.clique_complex(relation(space_of_size(1)), 2)),
        v.RATIONALS,
    )
    with pytest.raises(ValueError):
        ident.compose(const_pt)  # codomain of inner is a point, not the circle
    f2 = v.induced_map(v.simplicial_map(range(4), k, k), v.prime_field(2))
    with pytest.raises(ValueError):
        ident.compose(f2)


def test_compose_through_a_zero_group_keeps_its_shape(cycle4):
    k = v.clique_complex(cycle4, 2)
    pt = v.clique_complex(relation(space_of_size(1)), 2)
    collapse = v.induced_map(v.simplicial_map([0, 0, 0, 0], k, pt), v.RATIONALS)
    embed = v.induced_map(v.simplicial_map([0], pt, k), v.RATIONALS)
    through = embed.compose(collapse)
    assert through.domain_ranks == through.codomain_ranks == (1, 1, 0)
    assert through.matrices[1] == ((Fraction(0),),)
    assert through == v.induced_map(v.simplicial_map([0, 0, 0, 0], k, k), v.RATIONALS)


def test_les_filled_triangle():
    space = space_of_size(3)
    tri = v.clique_complex(full_relation(space), 3)
    rim = v.explicit_complex(space, [(0, 1), (1, 2), (0, 2)], max_dim=3)
    report = v.check_les_exactness(v.ComplexPair(tri, rim), v.RATIONALS, top_dim=2)
    assert report.exact
    assert not report.failures
    # The relative class in degree 2 must come entirely from the connecting map.
    row = report.rows[2]
    assert (row.h_rel, row.rank_connecting) == (1, 1)


def test_les_cycle_pair(cycle4):
    pair = v.pair_complex(cycle4, [0, 1, 2], 3)
    assert v.check_les_exactness(pair, v.RATIONALS, top_dim=2).exact


def test_les_rp2_pair_over_small_fields(rp2):
    pair = v.ComplexPair(rp2, v.full_subcomplex(rp2, [0]))
    for coeffs in (v.prime_field(2), v.prime_field(3), v.RATIONALS):
        assert v.check_les_exactness(pair, coeffs, top_dim=1).exact


def test_les_input_validation(cycle4):
    pair = v.pair_complex(cycle4, [0], 2)
    with pytest.raises(ValueError):
        v.check_les_exactness(pair, v.INTEGERS, top_dim=1)
    with pytest.raises(ValueError):
        v.check_les_exactness(pair, v.RATIONALS, top_dim=2)  # cap is only 2
    with pytest.raises(ValueError):
        v.check_les_exactness(pair, v.RATIONALS, top_dim=-1)


@given(symmetric_relations(min_points=2, max_points=6),
       st.sampled_from([v.RATIONALS, v.prime_field(2), v.prime_field(3)]), st.data())
@settings(max_examples=40, deadline=None)
def test_les_exact_on_random_pairs(rel, coeffs, data):
    pts = data.draw(
        st.frozensets(st.integers(0, rel.space.size - 1), min_size=1),
        label="subset",
    )
    pair = v.pair_complex(rel, pts, 3)
    report = v.check_les_exactness(pair, coeffs, top_dim=2)
    assert report.exact, report.failures


def test_les_square_relative_to_its_rim():
    # Each triangle's boundary contains the diagonal (0, 2), which is not in
    # the rim; it cancels in the boundary of the relative 2-cycle.
    space = space_of_size(4)
    square = v.explicit_complex(space, [(0, 1, 2), (0, 2, 3)], max_dim=3)
    rim = v.explicit_complex(space, [(0, 1), (1, 2), (2, 3), (0, 3)], max_dim=3)
    report = v.check_les_exactness(v.ComplexPair(square, rim), v.RATIONALS, top_dim=2)
    assert report.exact, report.failures
    row = report.rows[2]
    assert (row.h_rel, row.rank_connecting) == (1, 1)


def test_inclusion_of_a_complex(cycle4):
    circle = v.clique_complex(cycle4, 2)
    disk = v.clique_complex(full_relation(cycle4.space), 2)
    into_disk = v.induced_map(v.Inclusion(circle, disk), v.RATIONALS, top_dim=1)
    assert into_disk.domain_ranks == (1, 1)
    assert into_disk.codomain_ranks == (1, 0)
    assert into_disk.rank(0) == 1
    # Same bases on both sides: the inclusion agrees with the identity vertex map.
    assert v.induced_map(v.Inclusion(circle, circle), v.prime_field(3)) == v.induced_map(
        v.simplicial_map(range(4), circle, circle), v.prime_field(3))
    assert v.induced_map(v.Inclusion(circle, circle), v.RATIONALS).is_identity()


def test_inclusion_of_pairs(cycle4):
    small = v.pair_complex(cycle4, [0], 2)
    big = v.pair_complex(full_relation(cycle4.space), [0, 1], 2)
    m = v.induced_map(v.Inclusion(small, big), v.RATIONALS)
    assert m.domain_ranks == (0, 1)
    assert m.codomain_ranks == (0, 0)
    same = v.induced_map(v.Inclusion(small, small), v.RATIONALS)
    assert same.is_isomorphism_at(1) and same.is_identity()


def test_inclusion_validation(cycle4):
    circle = v.clique_complex(cycle4, 2)
    disk = v.clique_complex(full_relation(cycle4.space), 2)
    with pytest.raises(ValueError):
        v.Inclusion(disk, circle)  # the disk's diagonals are not in the circle
    with pytest.raises(TypeError):
        v.Inclusion(circle, v.pair_complex(cycle4, [0], 2))
    with pytest.raises(ValueError):
        v.Inclusion(v.pair_complex(cycle4, [0, 1], 2), v.pair_complex(cycle4, [0], 2))
