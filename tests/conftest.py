"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import vrips as v
from vrips.relations import relation, space_of_size
from oracles import metric_from_points


def exact(x, digits: int = 8) -> Fraction:
    """Round to a decimal literal and convert exactly."""
    return Fraction(str(round(x, digits)))


def circle_metric(n: int) -> v.SemiPseudometric:
    """n points evenly spaced on the unit circle, chord distances."""
    def chord(i, j):
        a = abs(i - j) % n
        a = min(a, n - a)
        return exact(2 * math.sin(math.pi * a / n))

    space = v.FiniteSpace(tuple(f"c{i}" for i in range(n)))
    rows = tuple(
        tuple(Fraction(0) if i == j else chord(i, j) for j in range(n))
        for i in range(n)
    )
    return v.SemiPseudometric(space, rows)


@pytest.fixture
def square_metric() -> v.SemiPseudometric:
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    return metric_from_points(
        (f"p{i}" for i in range(4)), pts,
        lambda a, b: exact(math.dist(a, b)),
    )


@pytest.fixture
def cycle4() -> v.Relation:
    space = v.FiniteSpace(("v0", "v1", "v2", "v3"))
    return v.graph_relation([(0, 1), (1, 2), (2, 3), (3, 0)], space)


@pytest.fixture
def path4() -> v.Relation:
    space = v.FiniteSpace(("a", "b", "c", "d"))
    return v.graph_relation([(0, 1), (1, 2), (2, 3)], space)


RP2_FACES = ((0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
             (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5))


@pytest.fixture
def rp2() -> v.SimplicialComplex:
    space = v.FiniteSpace(tuple(f"p{i}" for i in range(6)))
    return v.explicit_complex(space, RP2_FACES)


# --------------------------------------------------------------------------
# strategies


@st.composite
def symmetric_relations(draw, min_points: int = 1, max_points: int = 6):
    n = draw(st.integers(min_points, max_points))
    pairs = draw(st.frozensets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n * n,
    ))
    sym = set(pairs) | {(j, i) for i, j in pairs}
    return relation(space_of_size(n), sym)


@st.composite
def any_relations(draw, min_points: int = 1, max_points: int = 5):
    n = draw(st.integers(min_points, max_points))
    pairs = draw(st.frozensets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n * n,
    ))
    return relation(space_of_size(n), pairs)


_DISTANCE_POOL = tuple(Fraction(k, 4) for k in range(1, 9))


@st.composite
def metrics(draw, min_points: int = 2, max_points: int = 6):
    n = draw(st.integers(min_points, max_points))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = draw(st.sampled_from(_DISTANCE_POOL))
            rows[i][j] = rows[j][i] = val
    return v.SemiPseudometric(space_of_size(n), tuple(tuple(r) for r in rows))


@st.composite
def covers(draw, min_points: int = 1, max_points: int = 6, max_sets: int = 4):
    n = draw(st.integers(min_points, max_points))
    m = draw(st.integers(1, max_sets))
    sets = [
        draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n))
        for _ in range(m)
    ]
    missing = frozenset(range(n)) - frozenset().union(*sets)
    if missing:
        sets[0] = sets[0] | missing
    return v.Cover(space_of_size(n), tuple(sets))


@st.composite
def explicit_complexes(draw, min_points: int = 1, max_points: int = 6):
    n = draw(st.integers(min_points, max_points))
    tops = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)),
        min_size=1, max_size=5,
    ))
    return v.explicit_complex(space_of_size(n), [tuple(sorted(s)) for s in tops])
