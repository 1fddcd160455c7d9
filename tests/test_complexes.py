"""Flag complexes, nerves, witness complexes, and simplicial maps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrips as v
from vrips.complexes import chain_image
from vrips.relations import is_symmetric, relation, relativize, space_of_size
from conftest import RP2_FACES, any_relations, covers, explicit_complexes, symmetric_relations
from oracles import (
    brute_clique_layers,
    brute_directed_layers,
    brute_maximal,
    brute_nerve_layers,
    brute_witness_layers,
    full_relation,
)

CAPS = st.integers(0, 4)


def test_complex_validation():
    space = space_of_size(3)
    with pytest.raises(ValueError):  # missing face
        v.SimplicialComplex(space, (((0,), (1,)), ((0, 1),), ((0, 1, 2),)), 2)
    with pytest.raises(ValueError):  # not strictly increasing
        v.SimplicialComplex(space, (((0,), (1,)), ((1, 0),)), 1)
    with pytest.raises(ValueError):  # beyond the cap
        v.SimplicialComplex(space, (((0,), (1,)), ((0, 1),)), 0)
    with pytest.raises(ValueError):  # vertex out of range
        v.SimplicialComplex(space, (((5,),),), 0)


def _passes_full_checks(k):
    checked = v.SimplicialComplex(k.space, k.simplices, k.max_dim, k.complete)
    assert k == checked
    assert k._sets == checked._sets


@given(st.one_of(symmetric_relations(max_points=6), any_relations(max_points=5)), CAPS,
       st.data())
@settings(max_examples=100, deadline=None)
def test_flag_builders_pass_the_full_checks(rel, cap, data):
    k = v.vr_complex(rel, cap)
    _passes_full_checks(k)
    subset = data.draw(st.frozensets(st.integers(0, rel.space.size - 1)), label="subset")
    _passes_full_checks(v.full_subcomplex(k, subset))


@given(covers(), CAPS)
@settings(max_examples=80, deadline=None)
def test_cover_builders_pass_the_full_checks(cov, cap):
    _passes_full_checks(v.cover_complex(cov, cap))
    _passes_full_checks(v.nerve_of_cover(cov, cap))


@given(explicit_complexes(max_points=6))
@settings(max_examples=60, deadline=None)
def test_explicit_complexes_pass_the_full_checks(k):
    _passes_full_checks(k)


def test_builders_refuse_a_negative_cap(cycle4):
    cov = v.Cover(cycle4.space, (frozenset({0, 1}), frozenset({1, 2, 3})))
    builds = (
        lambda: v.vr_complex(cycle4, -1),
        lambda: v.cover_complex(cov, -1),
        lambda: v.nerve_of_cover(cov, -1),
        lambda: v.explicit_complex(cycle4.space, [(0, 1)], max_dim=-1),
    )
    for build in builds:
        with pytest.raises(ValueError, match="^max_dim must be nonnegative$"):
            build()


def test_empty_layers_are_trimmed():
    space = space_of_size(2)
    k = v.SimplicialComplex(space, (((0,), (1,)), ()), 3)
    assert k.top_dim == 0
    assert k.layer(5) == ()


@given(symmetric_relations(max_points=5))
@settings(max_examples=80, deadline=None)
def test_clique_complex_matches_subset_scan(rel):
    k = v.clique_complex(rel, 3)
    expected = brute_clique_layers(rel.space.size, rel.off_diagonal(), 3)
    got = [list(k.layer(d)) for d in range(4)]
    assert got == [sorted(layer) for layer in expected]


def test_clique_complex_rejects_asymmetric():
    rel = relation(space_of_size(2), [(0, 1)])
    with pytest.raises(ValueError):
        v.clique_complex(rel, 1)


@given(any_relations(max_points=6))
@settings(max_examples=80, deadline=None)
def test_directed_complex_matches_permutation_scan(rel):
    k = v.vr_complex(rel, 3)
    expected = brute_directed_layers(rel.space.size, rel.off_diagonal(), 3)
    got = [list(k.layer(d)) for d in range(4)]
    assert got == [sorted(layer) for layer in expected]


@given(symmetric_relations(max_points=5))
@settings(max_examples=40, deadline=None)
def test_directed_equals_clique_on_symmetric(rel):
    assert v.vr_complex(rel, 3).simplices == v.clique_complex(rel, 3).simplices


@pytest.mark.parametrize("n, symmetric", [(66, True), (70, True), (66, False)])
def test_flag_growth_past_one_machine_word(n, symmetric):
    # More points than a 64-bit word holds, so neighbour masks span words.
    rng = random.Random(n)
    pairs = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < 0.12}
    if symmetric:
        pairs |= {(j, i) for i, j in pairs}
    rel = relation(space_of_size(n), pairs)
    brute = brute_clique_layers if symmetric else brute_directed_layers
    expected = brute(n, rel.off_diagonal(), 2)
    assert any(s[-1] >= 64 for s in expected[2])
    assert [list(v.vr_complex(rel, 2).layer(d)) for d in range(3)] == expected


def test_vr_complex_dispatch():
    tri = relation(space_of_size(3), [(0, 1), (1, 2), (0, 2)])
    k = v.vr_complex(tri, 2)
    assert [k.n_cells(d) for d in range(3)] == [3, 3, 1]
    chain = relation(space_of_size(3), [(0, 1), (1, 2)])
    k2 = v.vr_complex(chain, 2)
    assert [k2.n_cells(d) for d in range(3)] == [3, 2, 0]
    assert is_symmetric(tri) is False


def test_completeness_flags():
    k4 = full_relation(space_of_size(4))
    assert not v.clique_complex(k4, 2).complete
    assert v.clique_complex(k4, 3).complete
    assert v.clique_complex(k4, 5).complete
    cycle = v.graph_relation([(0, 1), (1, 2), (2, 3), (3, 0)], space_of_size(4))
    assert v.clique_complex(cycle, 2).complete


@given(symmetric_relations(min_points=2, max_points=5), st.data())
@settings(max_examples=60, deadline=None)
def test_pair_complex_matches_full_subcomplex(rel, data):
    pts = data.draw(
        st.frozensets(st.integers(0, rel.space.size - 1), min_size=1),
        label="subset",
    )
    pair = v.pair_complex(rel, pts, 3)
    direct = v.full_subcomplex(pair.total, pts)
    assert pair.sub.simplices == direct.simplices


@given(any_relations(max_points=5), CAPS, st.data())
@settings(max_examples=80, deadline=None)
def test_pair_sub_is_the_flag_complex_of_the_restriction(rel, cap, data):
    pts = sorted(data.draw(
        st.frozensets(st.integers(0, rel.space.size - 1), min_size=1),
        label="subset",
    ))
    local = relativize(rel, pts)
    expected = brute_directed_layers(len(pts), local.off_diagonal(), cap)
    pair = v.pair_complex(rel, pts, cap)
    assert [list(pair.sub.layer(d)) for d in range(cap + 1)] == [
        sorted(tuple(pts[i] for i in s) for s in layer) for layer in expected
    ]


def test_pair_complex_rejects_empty_subset(cycle4):
    with pytest.raises(ValueError):
        v.pair_complex(cycle4, [], 2)


def test_nerve_three_arcs():
    space = space_of_size(3)
    cov = v.Cover(space, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    nerve = v.nerve_of_cover(cov, 2)
    assert nerve.space.labels == ("U0", "U1", "U2")
    # Pairwise overlaps but no triple point: a hollow triangle.
    assert [nerve.n_cells(d) for d in range(3)] == [3, 3, 0]
    assert nerve.complete


def test_nerve_triple_overlap_fills():
    space = space_of_size(3)
    cov = v.Cover(space, (frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})))
    nerve = v.nerve_of_cover(cov, 2)
    assert nerve.n_cells(2) == 1


@given(covers(), CAPS)
@settings(max_examples=80, deadline=None)
def test_nerve_matches_intersection_scan(cov, cap):
    nerve = v.nerve_of_cover(cov, cap)
    expected = brute_nerve_layers(cov.sets, cap + 1)
    assert [list(nerve.layer(d)) for d in range(cap + 1)] == expected[:-1]
    assert nerve.complete == (not expected[-1])


def test_nerve_reaching_the_cap_with_nothing_above_is_complete():
    # Three arcs meet pairwise but share no point: the hollow triangle
    # fills the cap of 1 and no 2-simplex exists above it.
    cov = v.Cover(space_of_size(3), (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    nerve = v.nerve_of_cover(cov, 1)
    assert nerve.top_dim == 1
    assert nerve.complete


def test_nerve_rejects_empty_sets():
    cov = v.Cover(space_of_size(2), (frozenset({0, 1}), frozenset()))
    with pytest.raises(ValueError):
        v.nerve_of_cover(cov, 1)


def test_cover_complex_three_arcs_stays_hollow():
    space = space_of_size(3)
    cov = v.Cover(space, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})))
    kw = v.cover_complex(cov, 2)
    assert [kw.n_cells(d) for d in range(3)] == [3, 3, 0]
    # The pair relation of the same cover relates everything, so its flag
    # complex fills the triangle; the witness complex must not.
    flagged = v.clique_complex(v.vietoris_relation(cov), 2)
    assert flagged.n_cells(2) == 1


@given(covers(), CAPS)
@settings(max_examples=80, deadline=None)
def test_cover_complex_matches_subset_scan(cov, cap):
    kw = v.cover_complex(cov, cap)
    expected = brute_witness_layers(cov.space.size, cov.sets, cap + 1)
    assert [list(kw.layer(d)) for d in range(cap + 1)] == expected[:-1]
    assert kw.complete == (not expected[-1])


def test_cover_complex_single_set_is_simplex():
    space = space_of_size(3)
    cov = v.Cover(space, (frozenset({0, 1, 2}),))
    kw = v.cover_complex(cov, 2)
    assert [kw.n_cells(d) for d in range(3)] == [3, 3, 1]
    assert kw.complete


def test_explicit_complex_rp2_combinatorics(rp2):
    assert [rp2.n_cells(d) for d in range(3)] == [6, 15, 10]
    assert rp2.euler_characteristic() == 1
    edge_count = {}
    for face in RP2_FACES:
        for e in ((face[0], face[1]), (face[0], face[2]), (face[1], face[2])):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert all(c == 2 for c in edge_count.values())
    assert len(edge_count) == 15


def test_explicit_complex_truncation():
    space = space_of_size(4)
    k = v.explicit_complex(space, [(0, 1, 2, 3)], max_dim=2)
    assert not k.complete
    assert k.top_dim == 2
    full = v.explicit_complex(space, [(0, 1, 2, 3)])
    assert full.complete and full.top_dim == 3


@given(explicit_complexes(max_points=6))
@settings(max_examples=60, deadline=None)
def test_maximal_simplices_regenerate_the_complex(k):
    rebuilt = v.explicit_complex(k.space, k.maximal_simplices(), max_dim=k.max_dim)
    assert rebuilt.simplices == k.simplices


@given(any_relations(max_points=5), CAPS)
@settings(max_examples=80, deadline=None)
def test_maximal_simplices_match_superset_scan(rel, cap):
    k = v.vr_complex(rel, cap)
    assert list(k.maximal_simplices()) == brute_maximal(k.simplices)


def test_vertex_map_validation(cycle4):
    k = v.clique_complex(cycle4, 2)
    with pytest.raises(ValueError):
        v.simplicial_map([0, 1, 2], k, k)  # wrong length
    with pytest.raises(ValueError):
        v.simplicial_map([0, 2, 0, 2], k, k)  # (0,2) is not an edge
    ident = v.simplicial_map(range(4), k, k)
    assert ident.assignment == (0, 1, 2, 3)


def test_contiguity():
    space = space_of_size(4)
    seg = v.clique_complex(v.graph_relation([(0, 1), (1, 2), (2, 3)], space), 1)
    src = v.clique_complex(relation(space_of_size(2), [(0, 1), (1, 0)]), 1)
    f = v.simplicial_map([0, 0], src, seg)
    g = v.simplicial_map([1, 1], src, seg)
    h = v.simplicial_map([3, 3], src, seg)
    assert v.are_contiguous(f, g)      # {0,1} is an edge
    assert not v.are_contiguous(f, h)  # {0,3} is not
    with pytest.raises(ValueError):
        v.are_contiguous(f, v.simplicial_map([0, 0], src, src))


def test_chain_image_signs():
    assert chain_image((0, 1, 2), (0, 1)) == (1, (0, 1))
    assert chain_image((1, 0, 2), (0, 1)) == (-1, (0, 1))
    assert chain_image((0, 0, 2), (0, 1)) == (0, None)
    sign, simplex = chain_image((2, 1, 0), (0, 1, 2))
    assert simplex == (0, 1, 2)
    assert sign == -1  # full reversal of three items is odd
