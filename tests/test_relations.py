"""Relations, distance tables, bases, and continuity scans."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrips as v
from vrips.relations import (
    closing_offset,
    is_symmetric,
    relation,
    space_of_size,
)
from conftest import metrics, symmetric_relations
from oracles import (
    brute_closed_balls,
    brute_pq_continuous,
    brute_scale_pairs,
    brute_values,
    diagonal,
    full_relation,
    shifted_metric,
    smallest_positive_gap,
    truncated_metric,
)


def test_space_rejects_empty_and_duplicate_labels():
    with pytest.raises(ValueError):
        v.FiniteSpace(())
    with pytest.raises(ValueError):
        v.FiniteSpace(("a", "a"))


def test_space_check_points_range():
    space = space_of_size(3)
    assert space.check_points([0, 2]) == frozenset({0, 2})
    with pytest.raises(IndexError):
        space.check_points([3])
    with pytest.raises(IndexError):
        space.check_points([-1])


def test_metric_validation():
    space = space_of_size(2)
    with pytest.raises(ValueError):
        v.SemiPseudometric(space, ((0, 1),))  # not square
    with pytest.raises(ValueError):
        v.SemiPseudometric(space, ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(ValueError):
        v.SemiPseudometric(space, ((1, 1), (1, 0)))  # diagonal
    with pytest.raises(ValueError):
        v.SemiPseudometric(space, ((0, -1), (-1, 0)))  # negative


def test_no_triangle_inequality_required():
    space = space_of_size(3)
    d = v.SemiPseudometric(space, (
        (0, 1, 100),
        (1, 0, 1),
        (100, 1, 0),
    ))
    assert d.d(0, 2) == 100


def test_relation_always_contains_diagonal():
    space = space_of_size(3)
    r = relation(space, [(0, 1)])
    assert r.contains(2, 2)
    with pytest.raises(ValueError):
        v.Relation(space, frozenset({(0, 1)}))  # diagonal missing
    with pytest.raises(IndexError):
        relation(space, [(0, 5)])


@pytest.mark.parametrize("x", [0.5, 1.0])
def test_relations_refuse_non_integer_indices(x):
    space = space_of_size(2)
    with pytest.raises(IndexError):
        v.Relation(space, frozenset({(0, 0), (1, 1), (x, 0)}))
    with pytest.raises(IndexError):
        relation(space, [(0, x)])
    with pytest.raises(IndexError):
        v.graph_relation([(x, 0)], space)


def test_metric_relation_tie_goes_to_closed(square_metric):
    q = Fraction(1)
    closed = v.metric_relation(square_metric, q, mode="closed")
    strict = v.metric_relation(square_metric, q, mode="strict")
    assert closed.contains(0, 1)       # distance exactly 1
    assert not strict.contains(0, 1)
    assert strict.pairs == diagonal(square_metric.space).pairs
    with pytest.raises(ValueError):
        v.metric_relation(square_metric, q, mode="open")
    with pytest.raises(ValueError):
        v.metric_relation(square_metric, -1)


def _probe_scales(d):
    """Zero, every distance value, the midpoints between neighbouring
    values, a scale below the smallest and one above the largest."""
    vals = d.values()
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    ends = [vals[0] / 2, vals[-1] + 1] if vals else [1]
    return [0, *vals, *mids, *ends]


def _check_scale_index(d):
    assert d.values() == brute_values(d.dist)
    assert [type(x) for x in d.values()] == [type(x) for x in brute_values(d.dist)]
    for q in _probe_scales(d):
        for mode in ("strict", "closed"):
            rel = v.metric_relation(d, q, mode=mode)
            checked = v.Relation(d.space, brute_scale_pairs(d.dist, q, mode) | diagonal(d.space).pairs)
            assert rel == checked == v.Relation(rel.space, rel.pairs)
        above = [x for x in brute_values(d.dist) if x > q]
        assert closing_offset(d, q) == (Fraction(min(above) - q) / 2 if above else Fraction(1))


@given(metrics(min_points=1, max_points=7))
@settings(max_examples=80, deadline=None)
def test_scale_index_matches_brute_scans(d):
    _check_scale_index(d)


@pytest.mark.parametrize("rows", [
    # ints with ties and zero off-diagonal distances
    ((0, 2, 0, 5), (2, 0, 2, 3), (0, 2, 0, 5), (5, 3, 5, 0)),
    # floats that differ only in the last bits
    ((0, 0.1, 0.3), (0.1, 0, 0.1 + 0.2), (0.3, 0.1 + 0.2, 0)),
    # equal values of three types: the set keeps the first one met
    ((0, 1, Fraction(1), 1.5), (1, 0, 1.0, Fraction(3, 2)),
     (Fraction(1), 1.0, 0, 2), (1.5, Fraction(3, 2), 2, 0)),
])
def test_scale_index_on_int_float_and_mixed_tables(rows):
    _check_scale_index(v.SemiPseudometric(space_of_size(len(rows)), rows))


@pytest.mark.parametrize("rows, q", [
    # the next distance above q is +inf
    (((0, 1, math.inf), (1, 0, 2), (math.inf, 2, 0)), 2),
    # 0.1 lies just above 1/10, closer than float arithmetic can tell
    (((0, Fraction(1, 10), 0.1), (Fraction(1, 10), 0, 1), (0.1, 1, 0)), Fraction(1, 10)),
])
def test_closing_offset_makes_the_strict_relation_closed(rows, q):
    d = v.SemiPseudometric(space_of_size(len(rows)), rows)
    off = closing_offset(d, q)
    closed = brute_scale_pairs(rows, q, "closed") | diagonal(d.space).pairs
    assert v.metric_relation(d, q + off, "strict").pairs == closed
    assert v.scale_base(d, q, [off]).minimum().pairs == closed


@given(metrics(max_points=5), st.sampled_from([Fraction(k, 4) for k in range(9)]),
       st.sampled_from([Fraction(k, 4) for k in range(1, 9)]))
@settings(max_examples=50, deadline=None)
def test_shifted_metric_matches_scale_shift(d, q, r):
    shifted = shifted_metric(d, q)
    assert (v.metric_relation(shifted, r, mode="strict").pairs
            == v.metric_relation(d, q + r, mode="strict").pairs)


def test_truncated_metric_collapses_small_distances(square_metric):
    t = truncated_metric(square_metric, 1)
    assert t.d(0, 1) == 0
    assert t.d(0, 2) == square_metric.d(0, 2)


def test_smallest_positive_gap():
    assert smallest_positive_gap([1, 3, 7]) == 2
    assert smallest_positive_gap([5, 5]) is None
    assert smallest_positive_gap([Fraction(1, 2), Fraction(2, 3)]) == Fraction(1, 6)


def test_graph_relation_directions():
    space = space_of_size(3)
    und = v.graph_relation([(0, 1)], space)
    assert und.contains(0, 1) and und.contains(1, 0)
    dir_ = v.graph_relation([(0, 1)], space, directed=True)
    assert dir_.contains(0, 1) and not dir_.contains(1, 0)


@given(st.integers(1, 6), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_relation_equals_the_checked_build(n, directed, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
                      label="edges")
    space = space_of_size(n)
    rel = v.graph_relation(edges, space, directed=directed)
    pairs = set(edges) if directed else set(edges) | {(j, i) for i, j in edges}
    assert rel == relation(space, pairs) == v.Relation(space, rel.pairs)


def test_product_relation_indexing():
    a = relation(space_of_size(2), [(0, 1), (1, 0)])
    b = relation(space_of_size(3), [(0, 1), (1, 0)])
    prod = v.product_relation(a, b)
    assert prod.space.size == 6
    # (x, y) lives at index x * 3 + y
    assert prod.contains(0 * 3 + 0, 1 * 3 + 1)
    assert not prod.contains(0 * 3 + 0, 1 * 3 + 2)  # 0 -> 2 absent in b


def test_relativize_reindexes_and_keeps_labels():
    space = v.FiniteSpace(("a", "b", "c", "d"))
    r = v.graph_relation([(0, 2), (2, 3)], space)
    sub = v.relativize(r, [0, 2, 3])
    assert sub.space.labels == ("a", "c", "d")
    assert sub.contains(0, 1) and sub.contains(1, 2)
    assert not sub.contains(0, 2)
    with pytest.raises(ValueError):
        v.relativize(r, [])


def test_inverse_intersect_symmetric_part():
    space = space_of_size(3)
    r = relation(space, [(0, 1), (1, 2), (2, 1)])
    inv = v.relation_inverse(r)
    assert inv.contains(1, 0) and not inv.contains(0, 1)
    sym = v.symmetric_part(r)
    assert sym.contains(1, 2) and sym.contains(2, 1) and not sym.contains(0, 1)
    assert not is_symmetric(r) and is_symmetric(sym)
    meet = v.relation_intersect(r, inv)
    assert meet.pairs == sym.pairs  # here the two coincide
    with pytest.raises(ValueError):
        v.relation_intersect(r, relation(space_of_size(2)))


def test_relation_image():
    space = space_of_size(4)
    r = relation(space, [(0, 1), (1, 2)])
    assert v.relation_image(r, [0]) == frozenset({0, 1})
    assert v.relation_image(r, [0, 1]) == frozenset({0, 1, 2})


def test_base_rejects_undirected_family():
    space = space_of_size(2)
    u1 = relation(space, [(0, 1)])
    u2 = relation(space, [(1, 0)])
    with pytest.raises(ValueError):
        v.SemiUniformBase(space, (u1, u2))


def test_base_rejects_inverse_violation():
    space = space_of_size(2)
    u = relation(space, [(0, 1)])
    with pytest.raises(ValueError):
        v.SemiUniformBase(space, (u,))


def test_from_members_closes_under_intersection():
    space = space_of_size(3)
    u1 = v.graph_relation([(0, 1), (1, 2)], space)
    u2 = v.graph_relation([(0, 1), (0, 2)], space)
    base = v.SemiUniformBase.from_members([u1, u2])
    m = base.minimum()
    assert m is not None
    assert m.pairs == (u1.pairs & u2.pairs)
    assert len(base.members) == 3


@given(st.lists(symmetric_relations(min_points=3, max_points=3), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_from_members_always_has_minimum(rels):
    base = v.SemiUniformBase.from_members(rels)
    m = base.minimum()
    assert m is not None
    meet = rels[0].pairs
    for r in rels:
        meet = meet & r.pairs
    assert m.pairs == meet


def test_scale_base_total_order(square_metric):
    base = v.scale_base(square_metric, Fraction(1), [Fraction(1, 10), Fraction(1, 2), Fraction(2)])
    ms = sorted(base.members, key=lambda r: len(r.pairs))
    for small, big in zip(ms, ms[1:]):
        assert small.pairs <= big.pairs
    assert base.minimum() is not None
    with pytest.raises(ValueError):
        v.scale_base(square_metric, 1, [])
    with pytest.raises(ValueError):
        v.scale_base(square_metric, 1, [0])


_OFFSETS = st.sampled_from([Fraction(k, 8) for k in range(1, 13)])


@given(metrics(max_points=6), st.lists(_OFFSETS, min_size=1, max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_scale_base_equals_the_checked_build(d, deltas, data):
    q = data.draw(st.sampled_from(_probe_scales(d)), label="q")
    strict = [v.Relation(d.space, brute_scale_pairs(d.dist, q + off, "strict") | diagonal(d.space).pairs)
              for off in sorted(deltas)]
    base = v.scale_base(d, q, deltas)
    assert base == v.SemiUniformBase.from_members(strict)
    assert base == v.SemiUniformBase(d.space, base.members)


def test_scale_base_keeps_one_member_per_relation(square_metric):
    # Offsets 1/10 and 1/5 both stop below the diagonal distance sqrt(2).
    deltas = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 10), Fraction(1)]
    base = v.scale_base(square_metric, Fraction(1), deltas)
    assert [len(m.pairs) for m in base.members] == [12, 16]
    assert base == v.SemiUniformBase.from_members(
        [v.metric_relation(square_metric, 1 + off, "strict") for off in sorted(deltas)])


def test_uniform_continuity_identity_and_collapse(square_metric):
    base = v.scale_base(square_metric, Fraction(1), [Fraction(1, 10)])
    assert v.check_uniform_continuity(range(4), base, base)
    # Collapsing everything to one point is continuous into the full relation.
    full = v.SemiUniformBase.from_members([full_relation(square_metric.space)])
    assert v.check_uniform_continuity([0, 0, 0, 0], base, full)


def test_uniform_continuity_failure_has_witness(square_metric):
    tight = v.scale_base(square_metric, Fraction(1, 10), [Fraction(1, 100)])
    loose = v.scale_base(square_metric, Fraction(3, 2), [Fraction(1)])
    # The identity from a coarse structure into a fine one fails.
    verdict = v.check_uniform_continuity(range(4), loose, tight)
    assert not verdict
    assert verdict.failing_target is not None
    assert verdict.violations
    u, (i, j) = verdict.violations[0]
    assert u.contains(i, j)
    assert not verdict.failing_target.contains(i, j)


def test_pq_continuity_path_example(path4):
    # Path metric on a-b-c-d: hop counts.
    space = path4.space
    d = v.SemiPseudometric(space, tuple(
        tuple(abs(i - j) for j in range(4)) for i in range(4)
    ))
    squash = [0, 0, 1, 1]
    d2 = v.SemiPseudometric(space_of_size(2), ((0, 1), (1, 0)))
    assert v.check_pq_continuity(squash, d, d2, 1, 1)
    # Mapping endpoints together while keeping p wide is not (1, 0)-continuous.
    assert not v.check_pq_continuity(squash, d, d2, 1, 0)
    with pytest.raises(ValueError):
        v.check_pq_continuity(squash, d, d2, -1, 0)


def _closing_offset(dist, scale):
    """Offset below which the strict relation at scale+offset equals the
    closed relation at scale: half the smallest gap with the scale adjoined."""
    gap = smallest_positive_gap(tuple(dist.values()) + (scale,))
    return gap / 2 if gap is not None else Fraction(1)


@given(metrics(min_points=2, max_points=4), metrics(min_points=2, max_points=4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_pq_continuity_matches_uniform_continuity(dx, dy, data):
    p = data.draw(st.sampled_from([Fraction(k, 4) for k in range(9)]), label="p")
    q = data.draw(st.sampled_from([Fraction(k, 4) for k in range(9)]), label="q")
    f = tuple(
        data.draw(st.integers(0, dy.space.size - 1), label=f"f({i})")
        for i in range(dx.space.size)
    )
    bx = v.scale_base(dx, p, [_closing_offset(dx, p)])
    by = v.scale_base(dy, q, [_closing_offset(dy, q)])
    assert v.check_pq_continuity(f, dx, dy, p, q) == bool(
        v.check_uniform_continuity(f, bx, by)
    )


@given(metrics(min_points=1, max_points=6))
@settings(max_examples=60, deadline=None)
def test_closed_balls_match_the_table_scan(d):
    for r in _probe_scales(d):
        assert v.metric_closure_space(d, r).nbhd == brute_closed_balls(d.dist, r)


@given(metrics(min_points=1, max_points=5), metrics(min_points=1, max_points=5), st.data())
@settings(max_examples=60, deadline=None)
def test_pq_continuity_matches_the_table_scan(dx, dy, data):
    f = data.draw(st.lists(st.integers(0, dy.space.size - 1),
                           min_size=dx.space.size, max_size=dx.space.size), label="f")
    for p in _probe_scales(dx):
        for q in _probe_scales(dy):
            assert v.check_pq_continuity(f, dx, dy, p, q) == brute_pq_continuous(
                f, dx.dist, dy.dist, p, q)


# One class of equal values per entry, each with its representations: ints,
# n/d Fractions, Fractions read from decimals, and floats, +inf included.
_SAME_VALUE = (
    (0, Fraction(0), 0.0),
    (Fraction(1, 4), Fraction("0.25"), 0.25),
    (Fraction(1, 3),),
    (Fraction(1, 2), 0.5),
    (1, Fraction(1), Fraction("1.0"), 1.0),
    (Fraction(3, 2), Fraction("1.5"), 1.5),
    (Fraction(3, 10), Fraction("0.3")),
    (0.1,),
    (0.1 + 0.2,),
    (0.3,),
    (2, Fraction(2), 2.0),
    (math.inf,),
)


@st.composite
def mixed_tables(draw, max_points: int = 6):
    """Symmetric tables whose two halves may hold equal values of different types."""
    n = draw(st.integers(1, max_points))
    rows = [[draw(st.sampled_from(_SAME_VALUE[0])) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            same = draw(st.sampled_from(_SAME_VALUE))
            rows[i][j], rows[j][i] = draw(st.sampled_from(same)), draw(st.sampled_from(same))
    return rows


def _fraction_order(x):
    return (1, 0) if x == math.inf else (0, Fraction(x))


@given(mixed_tables())
@settings(max_examples=150, deadline=None)
def test_integer_keys_order_mixed_tables_as_fractions_do(rows):
    d = v.SemiPseudometric(space_of_size(len(rows)), rows)
    pairs = sorted(itertools.combinations(range(len(rows)), 2),
                   key=lambda p: _fraction_order(rows[p[0]][p[1]]))
    assert d._index.pairs == tuple(pairs)
    assert [_fraction_order(k if k == math.inf else Fraction(k, d._index.den)) for k in d._index.keys] == [
        _fraction_order(rows[i][j]) for i, j in pairs]
    assert [(d.d(i, j), type(d.d(i, j))) for i, j in pairs] == [(rows[i][j], type(rows[i][j])) for i, j in pairs]
    firsts = {}
    for i, j in pairs:
        firsts.setdefault(_fraction_order(rows[i][j]), rows[i][j])
    assert [(x, type(x)) for x in d.values()] == [(x, type(x)) for x in firsts.values()]
    assert [(x, type(x)) for x in d.values()] == [(x, type(x)) for x in brute_values(d.dist)]
    vals = d.values()
    for q in [0, *vals, *((a + b) / 2 for a, b in zip(vals, vals[1:]))]:
        for mode in ("strict", "closed"):
            rel = v.metric_relation(d, q, mode=mode)
            assert rel.pairs == brute_scale_pairs(rows, q, mode) | diagonal(d.space).pairs


def _first_fault(rows):
    """The message the table's checks give, scanning raw values in their order."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            return f"distance table has nonzero diagonal at {i}"
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return f"distance table is not symmetric at ({i},{j})"
            if rows[i][j] < 0:
                return f"negative distance at ({i},{j})"
    return None


@given(mixed_tables(max_points=5), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_keys_find_the_first_fault(rows, data):
    n = len(rows)
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, n - 1), label="j")
    bad = data.draw(st.sampled_from([x for same in _SAME_VALUE for x in same]
                                    + [-1, Fraction(-1, 3), -0.5]), label="entry")
    rows[i][j] = bad
    if data.draw(st.booleans(), label="mirror"):
        rows[j][i] = bad
    fault = _first_fault(rows)
    if fault is None:
        v.SemiPseudometric(space_of_size(n), rows)
    else:
        with pytest.raises(ValueError, match=re.escape(fault) + "$"):
            v.SemiPseudometric(space_of_size(n), rows)


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("value, off_diagonal_fault", [
    (math.inf, None),
    (-math.inf, "negative distance at (0,1)"),
    (math.nan, "distance table is not symmetric at (0,1)"),
])
def test_non_finite_floats(where, value, off_diagonal_fault):
    rows = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    if where == "diagonal":
        rows[1][1] = value
        fault = "distance table has nonzero diagonal at 1"
    else:
        rows[0][1] = rows[1][0] = value
        fault = off_diagonal_fault
    if fault is not None:
        with pytest.raises(ValueError, match=re.escape(fault) + "$"):
            v.SemiPseudometric(space_of_size(3), rows)
        return
    d = v.SemiPseudometric(space_of_size(3), rows)
    assert d.values() == (2, 3, math.inf)
    assert d._index.pairs == ((0, 2), (1, 2), (0, 1))
    assert v.metric_relation(d, 10**400, "closed").pairs == diagonal(d.space).pairs | {
        (0, 2), (2, 0), (1, 2), (2, 1)}


_NAN = "scales and offsets must be numbers, got nan"


def _three_points():
    return v.SemiPseudometric(space_of_size(3), ((0, 1, 2), (1, 0, 1), (2, 1, 0)))


@pytest.mark.parametrize("mode", ["closed", "strict"])
def test_metric_relation_refuses_a_nan_scale(mode):
    # NaN < 0 is false, so only the integer threshold can catch it.
    with pytest.raises(ValueError, match=_NAN):
        v.metric_relation(_three_points(), math.nan, mode)


def test_closing_offset_refuses_a_nan_scale():
    with pytest.raises(ValueError, match=_NAN):
        closing_offset(_three_points(), math.nan)


@pytest.mark.parametrize("q, deltas", [(1, [math.nan]), (math.nan, [1]), (0, [1, math.nan])])
def test_scale_base_refuses_a_nan_scale_or_offset(q, deltas):
    with pytest.raises(ValueError, match=_NAN):
        v.scale_base(_three_points(), q, deltas)


def test_a_table_that_is_not_square_is_refused_before_its_entries_are_read():
    with pytest.raises(ValueError, match="distance table must be square and match the space"):
        v.SemiPseudometric(space_of_size(2), [[0, "x"]])


@pytest.mark.parametrize("keys, den", [
    ([[0, 1], [1, 0]], -1),
    ([[0, 1], [1, 0]], 0),
    ([[0, 1], [1, 0]], 2.0),
    ([[0, 1], [1, 0]], True),
    ([[0, 1.0], [1.0, 0]], 2),
    ([[0, Fraction(1)], [Fraction(1), 0]], 2),
])
def test_from_keys_refuses_keys_or_a_denominator_that_are_not_ints(keys, den):
    with pytest.raises(ValueError, match="keys must be ints over a positive int denominator"):
        v.SemiPseudometric.from_keys(space_of_size(2), keys, den)


@pytest.mark.parametrize("keys, fault", [
    ([[0, 1]], "distance table must be square and match the space"),
    ([[0, 1.5]], "distance table must be square and match the space"),
    ([[0, 1], [2, 0]], "distance table is not symmetric at (0,1)"),
    ([[0, -1], [-1, 0]], "negative distance at (0,1)"),
    ([[0, 1], [1, 3]], "distance table has nonzero diagonal at 1"),
])
def test_from_keys_checks_as_the_constructor_does(keys, fault):
    for build in (lambda: v.SemiPseudometric.from_keys(space_of_size(2), keys, 4),
                  lambda: v.SemiPseudometric(space_of_size(2), keys)):
        with pytest.raises(ValueError, match=re.escape(fault) + "$"):
            build()


def test_from_keys_keeps_its_own_copy_of_the_keys():
    keys = [[0, 3, 1], [3, 0, 2], [1, 2, 0]]
    d = v.SemiPseudometric.from_keys(space_of_size(3), keys, 4)
    keys[0][1] = keys[1][0] = 0
    want = v.SemiPseudometric(space_of_size(3), [[Fraction(k, 4) for k in row] for row in [
        [0, 3, 1], [3, 0, 2], [1, 2, 0]]])
    assert d.dist == want.dist
    assert d._index.pairs == want._index.pairs == ((0, 2), (1, 2), (0, 1))
    assert [(x, type(x)) for x in d.values()] == [(x, type(x)) for x in want.values()]
