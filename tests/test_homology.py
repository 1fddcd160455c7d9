"""Smith normal form, boundary matrices, homology, cohomology."""

import importlib
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings
from hypothesis import strategies as st

import vrips as v
from vrips.relations import relation, space_of_size
from conftest import explicit_complexes, symmetric_relations
from oracles import (
    bareiss_det,
    boundary_from_layers,
    brute_betti,
    determinantal_divisors,
    full_relation,
    identity_matrix,
    matmul,
    transpose,
)

# The package re-exports a function named homology, so the module is
# fetched by its full name.
hom = importlib.import_module("vrips.homology")

int_entries = st.integers(-9, 9)


@st.composite
def int_matrices(draw, max_side: int = 6):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    entries = [[draw(int_entries) for _ in range(cols)] for _ in range(rows)]
    return v.IntegerMatrix.from_rows(entries)


def test_integer_matrix_basics():
    m = v.IntegerMatrix.from_rows([[1, 2], [3, 4]])
    assert transpose(m).entries == ((1, 3), (2, 4))
    ident = identity_matrix(2)
    assert matmul(m, ident).entries == m.entries
    with pytest.raises(ValueError):
        v.IntegerMatrix.from_rows([])
    empty = v.IntegerMatrix.from_rows([], cols=3)
    assert (empty.rows, empty.cols) == (0, 3)
    with pytest.raises(ValueError):
        v.IntegerMatrix(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        matmul(m, identity_matrix(3))


def test_integer_matrix_refuses_non_integer_entries():
    for bad in (2.7, Fraction(5, 2), "3"):
        with pytest.raises(ValueError, match="not an integer"):
            v.smith_normal_form([[bad, 0], [0, 1]])
    m = v.IntegerMatrix.from_rows([[3.0, Fraction(4, 2)], [-7, 0]])
    assert m.entries == ((3, 2), (-7, 0))
    assert all(type(x) is int for row in m.entries for x in row)


def test_snf_hand_example():
    s = v.smith_normal_form([[2, 0], [0, 3]])
    assert s.d == (1, 6)


def test_snf_zero_and_empty():
    s = v.smith_normal_form([[0, 0], [0, 0]])
    assert s.d == (0, 0)
    s2 = v.smith_normal_form(v.IntegerMatrix.from_rows([], cols=4))
    assert s2.d == ()
    assert s2.right.rows == 4


def _diag_matrix(d, rows, cols):
    return v.IntegerMatrix(rows, cols, tuple(
        tuple(d[i] if i == j and i < len(d) else 0 for j in range(cols))
        for i in range(rows)
    ))


@given(int_matrices())
@settings(max_examples=100, deadline=None)
def test_snf_invariants(m):
    s = v.smith_normal_form(m)
    # Reconstruction: the tracked transforms actually diagonalize.
    assert matmul(matmul(s.left, m), s.right).entries == _diag_matrix(s.d, m.rows, m.cols).entries
    # Nonnegative divisibility chain, zeros trailing.
    for a, b in zip(s.d, s.d[1:]):
        assert a >= 0
        assert (a == 0 and b == 0) or b % a == 0
    # Unimodularity, checked with an independent determinant.
    assert abs(bareiss_det([list(r) for r in s.left.entries])) == 1
    assert abs(bareiss_det([list(r) for r in s.right.entries])) == 1


@given(int_matrices(max_side=4))
@settings(max_examples=40, deadline=None)
def test_snf_matches_determinantal_divisors(m):
    s = v.smith_normal_form(m)
    assert [x for x in s.d if x] == determinantal_divisors([list(r) for r in m.entries])


@given(int_matrices(max_side=8))
@settings(max_examples=30, deadline=None)
def test_snf_matches_sympy(m):
    s = v.smith_normal_form(m)
    their = sympy_snf(sympy.Matrix([list(r) for r in m.entries]), domain=sympy.ZZ)
    theirs = [abs(their[i, i]) for i in range(min(their.rows, their.cols)) if their[i, i]]
    assert [x for x in s.d if x] == theirs


def boundaries(obj):
    """d_1 .. d_top laid out from the library's sparse columns, each
    equal to the oracle's matrix on the same simplex bases."""
    chains = hom._reducer(obj, None)
    mats = []
    for k in range(1, chains.top + 1):
        cols = chains.columns(k)
        rows = [[col.get(i, 0) for col in cols] for i in range(len(chains.cells(k - 1)))]
        assert rows == boundary_from_layers(chains.cells(k - 1), chains.cells(k))
        mats.append(v.IntegerMatrix.from_rows(rows, cols=len(chains.cells(k))))
    return mats


def test_boundary_edge_orientation():
    seg = v.clique_complex(relation(space_of_size(2), [(0, 1), (1, 0)]), 1)
    (d1,) = boundaries(seg)
    assert d1.entries == ((-1,), (1,))


@given(explicit_complexes(max_points=6))
@settings(max_examples=60, deadline=None)
def test_boundary_squares_to_zero(k):
    mats = boundaries(k)
    for lower, upper in zip(mats, mats[1:]):
        prod = matmul(lower, upper)
        assert all(x == 0 for row in prod.entries for x in row)


def test_relative_boundary_shapes():
    space = space_of_size(3)
    tri = v.clique_complex(full_relation(space), 2)
    rim = v.explicit_complex(space, [(0, 1), (1, 2), (0, 2)], max_dim=2)
    pair = v.ComplexPair(tri, rim)
    shapes = [(m.rows, m.cols) for m in boundaries(pair)]
    assert shapes == [(0, 0), (0, 1)]


def test_homology_point_and_components():
    pt = v.clique_complex(relation(space_of_size(1)), 2)
    res = v.homology(pt)
    assert res.betti == (1, 0, 0)
    assert res.truncated_dim is None
    two = v.clique_complex(relation(space_of_size(2)), 1)
    assert v.homology(two).betti == (2, 0)


def test_homology_circle_and_sphere(cycle4):
    circle = v.clique_complex(cycle4, 2)
    assert v.homology(circle).betti == (1, 1, 0)
    space = space_of_size(4)
    sphere = v.explicit_complex(space, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert v.homology(sphere).betti == (1, 0, 1)
    assert v.homology(sphere, v.prime_field(5)).betti == (1, 0, 1)


def test_homology_truncation_flag():
    k4 = full_relation(space_of_size(4))
    capped = v.homology(v.clique_complex(k4, 2))
    assert capped.truncated_dim == 2
    assert capped.betti == (1, 0, 1)  # boundary of the missing solid
    full = v.homology(v.clique_complex(k4, 3))
    assert full.truncated_dim is None
    assert full.betti == (1, 0, 0, 0)


def test_homology_rp2(rp2):
    hz = v.homology(rp2)
    assert hz.betti == (1, 0, 0)
    assert hz.torsion == ((), (2,), ())
    assert v.homology(rp2, v.RATIONALS).betti == (1, 0, 0)
    assert v.homology(rp2, v.prime_field(2)).betti == (1, 1, 1)
    assert v.homology(rp2, v.prime_field(3)).betti == (1, 0, 0)


@given(explicit_complexes(max_points=6))
@settings(max_examples=50, deadline=None)
def test_homology_matches_brute_force(k):
    layers = [list(k.layer(d)) for d in range(k.top_dim + 1)]
    assert list(v.homology(k, v.RATIONALS).betti[: k.top_dim + 1]) == brute_betti(layers)
    assert list(v.homology(k, v.prime_field(2)).betti[: k.top_dim + 1]) == brute_betti(layers, 2)
    assert list(v.homology(k, v.prime_field(3)).betti[: k.top_dim + 1]) == brute_betti(layers, 3)


@given(symmetric_relations(max_points=6))
@settings(max_examples=40, deadline=None)
def test_integer_and_rational_betti_agree(rel):
    k = v.clique_complex(rel, 3)
    assert v.homology(k).betti == v.homology(k, v.RATIONALS).betti


@given(explicit_complexes(max_points=6))
@settings(max_examples=40, deadline=None)
def test_euler_characteristic_from_betti(k):
    res = v.homology(k, v.RATIONALS)
    alt = sum((-1) ** d * b for d, b in enumerate(res.betti))
    assert alt == k.euler_characteristic()


def test_reduced_homology(cycle4):
    circle = v.clique_complex(cycle4, 2)
    assert v.homology(circle, reduced=True).betti == (0, 1, 0)
    pair = v.pair_complex(cycle4, [0], 2)
    # Reduction only applies to absolute homology.
    assert v.homology(pair, reduced=True).betti == v.homology(pair).betti == (0, 1, 0)


def test_generators_are_cycles(cycle4):
    circle = v.clique_complex(cycle4, 2)
    res = v.homology(circle, v.RATIONALS, with_generators=True)
    assert res.generators is not None
    (gen,) = res.generators[1]
    support = {s for s, _ in gen}
    assert support == {(0, 1), (1, 2), (2, 3), (0, 3)}
    # Apply the boundary by hand: every vertex must cancel.
    totals = {}
    for (a, b), c in gen:
        totals[a] = totals.get(a, 0) - c
        totals[b] = totals.get(b, 0) + c
    assert all(t == 0 for t in totals.values())
    with pytest.raises(ValueError):
        v.homology(circle, v.INTEGERS, with_generators=True)


def test_pair_homology_filled_triangle():
    space = space_of_size(3)
    tri = v.clique_complex(full_relation(space), 2)
    rim = v.explicit_complex(space, [(0, 1), (1, 2), (0, 2)], max_dim=2)
    res = v.homology(v.ComplexPair(tri, rim))
    assert res.betti == (0, 0, 1)
    assert not any(res.torsion)


def test_cohomology_field_only(rp2, cycle4):
    with pytest.raises(ValueError):
        v.cohomology(rp2, v.INTEGERS)
    assert v.cohomology(rp2, v.prime_field(2)).betti == (1, 1, 1)
    circle = v.clique_complex(cycle4, 2)
    assert v.cohomology(circle, v.RATIONALS).betti == (1, 1, 0)


@given(explicit_complexes(max_points=6))
@settings(max_examples=40, deadline=None)
def test_cohomology_betti_match_homology_over_fields(k):
    for coeffs in (v.RATIONALS, v.prime_field(2)):
        assert v.cohomology(k, coeffs).betti == v.homology(k, coeffs).betti


def test_coefficient_validation():
    with pytest.raises(ValueError):
        v.prime_field(4)
    with pytest.raises(ValueError):
        v.prime_field(1)
    with pytest.raises(ValueError):
        v.Coefficients("R")
    with pytest.raises(ValueError):
        v.Coefficients("Q", p=3)
    assert v.prime_field(2).describe() == "F2"
    assert v.INTEGERS.describe() == "Z"
    assert not v.INTEGERS.is_field and v.RATIONALS.is_field


def test_primality_matches_a_sieve():
    n = 10**5
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [hom._is_prime(i) for i in range(n)] == sieve


twenty_digits = st.integers(10**19, 10**20 - 1)
ten_digits = st.integers(10**9, 10**10 - 1).map(sympy.nextprime)


@given(st.one_of(twenty_digits, twenty_digits.map(sympy.nextprime),
                 st.tuples(ten_digits, ten_digits).map(lambda pq: pq[0] * pq[1])))
@settings(max_examples=200, deadline=None)
def test_primality_matches_sympy_on_20_digit_numbers(n):
    assert hom._is_prime(n) == sympy.isprime(n)


@st.composite
def nested_stages(draw):
    """Flag complexes of growing edge sets of one random graph, to a cap of
    1 to 3, each against one vertex subset or none."""
    n = draw(st.integers(1, 6))
    edges = draw(st.permutations([(i, j) for i in range(n) for j in range(i + 1, n)]))
    cuts = sorted(draw(st.lists(st.integers(0, len(edges)), min_size=1, max_size=4)))
    cap = draw(st.integers(1, 3))
    subset = draw(st.none() | st.frozensets(st.integers(0, n - 1), min_size=1))
    stages = []
    for c in cuts:
        rel = relation(space_of_size(n), edges[:c] + [(j, i) for i, j in edges[:c]])
        stages.append(v.vr_complex(rel, cap) if subset is None else v.pair_complex(rel, subset, cap))
    return stages


def _stage_layers(obj):
    if isinstance(obj, v.ComplexPair):
        return [[s for s in obj.total.layer(k) if not obj.sub.has(s)]
                for k in range(obj.total.max_dim + 1)]
    return [list(obj.layer(k)) for k in range(obj.max_dim + 1)]


@given(nested_stages(), st.sampled_from([None, 2, 3]))
@settings(max_examples=80, deadline=None)
def test_tower_bars_count_the_ranks_of_every_stage(stages, p):
    """At stage t, the bars with birth <= t < death are as many as the
    stage's betti numbers, from a plain elimination of its own layers."""
    coeffs = v.RATIONALS if p is None else v.prime_field(p)
    bars = hom.tower_bars(stages, coeffs)
    assert all(b < d for layer in bars for b, d in layer if d is not None)
    for t, obj in enumerate(stages):
        alive = [sum(1 for b, d in layer if b <= t and (d is None or d > t)) for layer in bars]
        assert alive == brute_betti(_stage_layers(obj), p)


def test_tower_bars_refuse_what_is_no_tower(cycle4):
    space = cycle4.space
    path = v.graph_relation([(0, 1), (1, 2), (2, 3)], space)
    low, high = v.vr_complex(path, 2), v.vr_complex(cycle4, 2)
    assert hom.tower_bars([low, high], v.prime_field(2)) == (((0, None),), ((1, None),), ())
    with pytest.raises(ValueError, match="field coefficients"):
        hom.tower_bars([low, high], v.INTEGERS)
    with pytest.raises(ValueError, match="does not contain stage 0"):
        hom.tower_bars([high, low], v.RATIONALS)
    with pytest.raises(ValueError, match="one enumeration cap"):
        hom.tower_bars([low, v.vr_complex(cycle4, 3)], v.RATIONALS)
    # Relative cells that nest are not enough: the subcomplexes must too.
    shrinking = [v.pair_complex(path, [0, 1, 2, 3], 2), v.pair_complex(cycle4, [0], 2)]
    with pytest.raises(ValueError, match="does not contain stage 0"):
        hom.tower_bars(shrinking, v.RATIONALS)
