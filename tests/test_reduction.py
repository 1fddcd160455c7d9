"""The sparse column reduction against independent slow paths.

Every fast path of vrips.homology is compared with something that does
not share its algorithm: ranks with the plain eliminations in
oracles.py on boundary matrices built there from the simplex layers,
integer homology with sympy's Smith normal form and with complexes of
known torsion, prime-field homology with the universal coefficient
theorem, and homology bases with their defining properties.
"""

import gc
import importlib
import inspect
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import vrips as v
from vrips.relations import space_of_size
from conftest import RP2_FACES, any_relations, circle_metric, explicit_complexes
from oracles import barycentric_subdivision, boundary_from_layers, frac_rank, modp_rank

# The package re-exports a function named homology, so the module is
# fetched by its full name.
hom = importlib.import_module("vrips.homology")


@st.composite
def chain_objects(draw):
    """A flag complex of a random (possibly directed) relation, an
    explicit complex, or a pair of either kind against a vertex subset."""
    kind = draw(st.sampled_from(["relation", "explicit"]))
    if kind == "relation":
        k = v.vr_complex(draw(any_relations(max_points=6)), draw(st.integers(1, 3)))
    else:
        k = draw(explicit_complexes(max_points=6))
    if draw(st.booleans()):
        pts = draw(st.frozensets(st.integers(0, k.space.size - 1), min_size=1))
        return v.ComplexPair(k, v.full_subcomplex(k, pts))
    return k


def relative_layers(obj):
    if isinstance(obj, v.ComplexPair):
        return [[s for s in obj.total.layer(k) if not obj.sub.has(s)]
                for k in range(obj.total.top_dim + 1)]
    return [list(layer) for layer in obj.simplices]


def oracle_matrices(obj):
    """d_1 .. d_top as dense rows, built from the layers by the oracle."""
    layers = relative_layers(obj)
    return [boundary_from_layers(layers[k - 1], layers[k]) for k in range(1, len(layers))]


def cap_of(obj):
    return (obj.total if isinstance(obj, v.ComplexPair) else obj).max_dim


def betti_from_ranks(obj, rank):
    layers = relative_layers(obj)
    cap = cap_of(obj)
    ranks = [0] + [rank(m) for m in oracle_matrices(obj)] + [0] * (cap + 2)
    sizes = [len(l) for l in layers] + [0] * (cap + 1)
    return tuple(sizes[k] - ranks[k] - ranks[k + 1] for k in range(cap + 1))


@given(chain_objects())
@settings(max_examples=80, deadline=None)
def test_field_ranks_match_oracle_eliminations(obj):
    assert v.homology(obj, v.RATIONALS).betti == betti_from_ranks(obj, frac_rank)
    for p in (2, 3):
        want = betti_from_ranks(obj, lambda m: modp_rank(m, p))
        assert v.homology(obj, v.prime_field(p)).betti == want
        assert v.cohomology(obj, v.prime_field(p)).betti == want


def sympy_diagonal(rows):
    """The Smith diagonal of a nonempty integer matrix, from sympy."""
    s = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    return [abs(int(s[i, i])) for i in range(min(s.shape))]


def dense_integer_homology(obj):
    """Betti numbers and torsion from sympy's Smith form of every d_k."""
    cap = cap_of(obj)
    layers = relative_layers(obj)
    sizes = [len(l) for l in layers] + [0] * (cap + 2)
    ranks = [0] * (cap + 2)
    torsion = [()] * (cap + 1)
    for k, m in enumerate(oracle_matrices(obj), start=1):
        d = sympy_diagonal(m) if m and m[0] else []
        ranks[k] = sum(1 for x in d if x)
        torsion[k - 1] = tuple(x for x in d if x > 1)
    betti = tuple(sizes[k] - ranks[k] - ranks[k + 1] for k in range(cap + 1))
    return betti, tuple(torsion)


def universal_coefficients(hz, p):
    """beta_k(F_p) = beta_k(Z) + t_k(p) + t_{k-1}(p)."""
    t = [sum(1 for x in factors if x % p == 0) for factors in hz.torsion]
    return tuple(b + t[k] + (t[k - 1] if k else 0) for k, b in enumerate(hz.betti))


@given(chain_objects())
@settings(max_examples=80, deadline=None)
def test_integer_homology_matches_dense_smith_form(obj):
    hz = v.homology(obj)
    assert (hz.betti, hz.torsion) == dense_integer_homology(obj)
    assert v.homology(obj, v.RATIONALS).betti == hz.betti
    for p in (2, 3):
        assert v.homology(obj, v.prime_field(p)).betti == universal_coefficients(hz, p)


def counting_snf(mp):
    """Record (rows, cols) of every _snf_core call while mp is active."""
    calls = []
    core = hom._snf_core

    def counting(a, rows, cols):
        calls.append((rows, cols))
        return core(a, rows, cols)

    mp.setattr(hom, "_snf_core", counting)
    return calls


def check_torsion_residual(k, betti, torsion):
    """Z homology of a surface equals the known groups and agrees with F2
    and F3 by universal coefficients, and the Smith form ran on a
    residual of fewer rows than d_2, the degree that carries the torsion."""
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_snf(mp)
        hz = v.homology(k)
    assert (hz.betti, hz.torsion) == (betti, torsion)
    for p in (2, 3):
        assert v.homology(k, v.prime_field(p)).betti == universal_coefficients(hz, p)
    assert calls, "torsion must leave the unit-pivot path"
    assert all(rows < k.n_cells(1) for rows, _ in calls)


def test_non_unit_pivot_leaves_a_residual_smith_form(rp2, monkeypatch):
    assert dense_integer_homology(rp2) == ((1, 0, 0), ((), (2,), ()))
    check_torsion_residual(rp2, (1, 0, 0), ((), (2,), ()))

    calls = counting_snf(monkeypatch)
    circle = v.clique_complex(v.graph_relation([(i, (i + 1) % 5) for i in range(5)],
                                               v.FiniteSpace(tuple("abcde"))), 2)
    assert v.homology(circle).betti == (1, 1, 0)
    assert not calls, "a flag complex of a cycle needs only unit pivots"


class MatrixChains(hom._Reducer):
    """Stand-in for an integral reducer whose one boundary, d_1, is the
    given integer matrix."""

    top = 1

    def __init__(self, rows):
        super().__init__(v.explicit_complex(space_of_size(1), [(0,)]), None, integral=True)
        self.cols = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]

    def columns(self, k):
        return [dict(col) for col in self.cols]


@given(st.integers(1, 8).flatmap(lambda c: st.lists(
    st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=1, max_size=8)))
@example([[1, 1, 0], [0, 1, 1], [0, 0, 2]])  # the stuck column meets row 1 again if cleared top first
@settings(max_examples=60, deadline=None)
def test_residual_smith_form_of_any_integer_columns(rows):
    d = sympy_diagonal(rows)
    want = (sum(1 for x in d if x), tuple(x for x in d if x > 1))
    assert MatrixChains(rows).rank(1) == want


@given(st.permutations(range(6)))
@settings(max_examples=30, deadline=None)
def test_relabelled_rp2_leaves_a_residual(perm):
    k = v.explicit_complex(space_of_size(6), [[perm[x] for x in f] for f in RP2_FACES])
    check_torsion_residual(k, (1, 0, 0), ((), (2,), ()))


def test_second_subdivision_of_rp2_leaves_a_small_residual(rp2):
    sd2 = barycentric_subdivision(barycentric_subdivision(rp2))
    assert [len(layer) for layer in sd2.simplices] == [181, 540, 360]
    check_torsion_residual(sd2, (1, 0, 0), ((), (2,), ()))


def klein_bottle() -> v.SimplicialComplex:
    """The 3 x 3 grid on a square, its top edge glued to the bottom and
    its right edge to the left with a flip: 9 vertices, 18 triangles."""
    def vertex(a, b):
        return 3 * (a % 3) + (-b if a == 3 else b) % 3

    tris = []
    for a in range(3):
        for b in range(3):
            p, q, r, s = vertex(a, b), vertex(a + 1, b), vertex(a, b + 1), vertex(a + 1, b + 1)
            tris += [(p, q, s), (p, r, s)]
    return v.explicit_complex(space_of_size(9), tris)


def test_flag_klein_bottle_leaves_a_residual():
    sd = barycentric_subdivision(klein_bottle())
    flag = v.clique_complex(v.graph_relation(sd.simplices[1], sd.space), 3)
    assert flag.simplices == sd.simplices
    check_torsion_residual(flag, (1, 1, 0, 0), ((), (2,), (), ()))


def mat_vec(rows, vec, p):
    out = [sum(row[i] * vec.get(i, 0) for i in range(len(row))) for row in rows]
    return [x % p if p else x for x in out]


@given(chain_objects(), st.sampled_from([None, 3]))
@settings(max_examples=60, deadline=None)
def test_homology_bases_are_bases(obj, p):
    reducer = hom._reducer(obj, p)
    mats = oracle_matrices(obj)
    rank = frac_rank if p is None else (lambda m: modp_rank(m, p))
    coeffs = v.RATIONALS if p is None else v.prime_field(p)
    betti = v.homology(obj, coeffs).betti
    for k in range(reducer.top, -1, -1):
        reps = reducer.basis(k)
        n = len(reducer.cells(k))
        assert len(reps) == betti[k]
        down = mats[k - 1] if k >= 1 else [[0] * n]
        up = mats[k] if k < len(mats) else [[] for _ in range(n)]
        for i, rep in enumerate(reps):
            assert not any(mat_vec(down, rep, p)), "representative is not a cycle"
            unit = tuple(int(t == i) for t in range(len(reps)))
            assert reducer.coords(k, rep) == unit
        # Independent modulo boundaries: appending the representatives to
        # the boundary columns raises the rank by exactly h.
        rep_rows = [[rep.get(r, 0) for rep in reps] for r in range(n)]
        joined = [list(u) + r for u, r in zip(up, rep_rows)]
        assert rank(joined) == rank(up) + len(reps)
        for j in range(len(up[0]) if up else 0):
            boundary = {r: up[r][j] % p if p else up[r][j] for r in range(n) if up[r][j]}
            assert not any(reducer.coords(k, boundary))
        for j in range(n):
            if k >= 1 and any(row[j] for row in down):
                with pytest.raises(ValueError, match="not a cycle"):
                    reducer.coords(k, {j: 1})


def counting_reduce(mp):
    """Record the columns of every _reduce call while mp is active."""
    calls = []
    reduce = hom._reduce

    def counting(columns, *args, **kwargs):
        calls.append(list(columns))
        return reduce(columns, *args, **kwargs)

    mp.setattr(hom, "_reduce", counting)
    return calls


def test_generators_reduce_each_degree_once(monkeypatch):
    calls = counting_reduce(monkeypatch)
    k = v.clique_complex(v.graph_relation([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
                                          v.FiniteSpace(tuple("abcde"))), 3)
    chains = hom._reducer(k, None)
    degrees = [chains.columns(d) for d in range(k.max_dim + 2)]
    for coeffs in (v.RATIONALS, v.prime_field(2)):
        calls.clear()
        res = v.homology(k, coeffs, with_generators=True)
        assert res.betti == (1, 0, 0, 0)
        # Degrees 0 .. cap + 1, each reduced at most once.
        assert len(calls) <= k.max_dim + 2
        nonempty = [c for c in calls if c]
        assert all(c in degrees for c in nonempty)
        assert all(a != b for i, a in enumerate(nonempty) for b in nonempty[i + 1:])


@given(explicit_complexes(), st.data())
@settings(max_examples=60, deadline=None)
def test_connecting_faces_follow_the_boundary_sign_rule(k, data):
    """The connecting map's signed faces, restricted to the lower cells,
    are the columns of d_k: the two sign rules live apart for speed."""
    subset = data.draw(st.none() | st.frozensets(st.integers(0, k.space.size - 1), min_size=1))
    obj = k if subset is None else v.ComplexPair(k, v.full_subcomplex(k, subset))
    chains = hom._reducer(obj, None)
    for d in range(1, chains.top + 1):
        index = {s: i for i, s in enumerate(chains.cells(d - 1))}
        faces = [{index[f]: x for f, x in hom._signed_faces(s) if f in index}
                 for s in chains.cells(d)]
        assert faces == chains.columns(d)


def test_shared_reductions_are_kept_apart_by_ring(rp2):
    assert v.homology(rp2, v.RATIONALS).betti == (1, 0, 0)
    hz = v.homology(rp2)
    assert (hz.betti, hz.torsion) == ((1, 0, 0), ((), (2,), ()))
    assert v.homology(rp2, v.prime_field(2)).betti == (1, 1, 1)
    assert v.homology(rp2, v.prime_field(3)).betti == (1, 0, 0)
    assert v.homology(rp2, v.RATIONALS).betti == (1, 0, 0)


def test_a_second_homology_call_reduces_nothing(monkeypatch):
    # Labels no other test uses, so no equal complex has reductions stored.
    k = v.explicit_complex(v.FiniteSpace(tuple(f"again-{i}" for i in range(6))), RP2_FACES)
    calls = counting_reduce(monkeypatch)
    for coeffs in (v.INTEGERS, v.RATIONALS, v.prime_field(2)):
        calls.clear()
        first = v.homology(k, coeffs)
        assert calls
        calls.clear()
        assert v.homology(k, coeffs) == first
        assert not calls


def test_a_second_integer_homology_call_runs_no_smith_form(monkeypatch):
    # Labels no other test uses, so no equal complex has ranks stored.
    k = v.explicit_complex(v.FiniteSpace(tuple(f"twice-{i}" for i in range(6))), RP2_FACES)
    calls = counting_snf(monkeypatch)
    first = v.homology(k)
    assert first.torsion == ((), (2,), ())
    assert len(calls) == 1
    calls.clear()
    assert v.homology(k, reduced=True).torsion == first.torsion
    assert v.homology(k) == first
    assert not calls


def test_a_field_tower_reduces_each_degree_of_its_minimum_once(monkeypatch):
    """A field tower reads its stabilization off one filtered reduction of
    its largest member. No member builds an induced map or keeps reduction
    records. The minimum's degrees are reduced once for its homology, the
    filtered chain's once for the bars, and cohomology does the rest."""
    d = circle_metric(8)
    d = v.SemiPseudometric(v.FiniteSpace(tuple(f"tower-{i}" for i in range(8))), d.dist)
    base = v.scale_base(d, Fraction(4, 5), [Fraction(1, 10), Fraction(7, 10), Fraction(11, 10)])
    assert len(base.members) == 3
    stages = [v.vr_complex(u, 2) for u in sorted(base.members, key=lambda u: len(u.pairs))]
    low, last = stages[0], stages[-1]
    birth: dict = {}
    for t, k in enumerate(stages):
        for layer in k.simplices:
            for s in layer:
                birth.setdefault(s, t)
    filtered = hom._Reducer(last, None, False, tuple(tuple(sorted(layer, key=lambda s: (birth[s], s)))
                                                     for layer in last.simplices))
    minimum = [hom._reducer(low, None).columns(k) for k in range(1, low.top_dim + 1)]
    chain = [filtered.columns(k) for k in range(last.top_dim + 1)]
    assert all(c not in chain for c in minimum)

    calls = []
    reduce = hom._reduce
    signature = inspect.signature(reduce)

    def counting(columns, *args, **kwargs):
        columns = list(columns)
        keep_v = signature.bind(columns, *args, **kwargs).arguments.get("keep_v", False)
        calls.append((columns, keep_v))
        return reduce(columns, *args, **kwargs)

    def no_map(*args):
        raise AssertionError("a member's induced map was built")

    monkeypatch.setattr(hom, "_reduce", counting)
    monkeypatch.setattr(hom, "_chain_map", no_map)
    report = v.limit_homology(base, coeffs=v.RATIONALS)
    assert report.result.betti == (1, 1, 0)
    assert [m.agrees for m in report.stabilization] == [True, False]
    assert not any(keep_v for _, keep_v in calls)
    reduced = [columns for columns, _ in calls]
    assert [sum(c == want for c in reduced) for want in minimum] == [1] * len(minimum)
    assert [sum(c == want for c in reduced) for want in chain] == [1] * len(chain)
    # Cohomology reduces each coboundary of the minimum apart, on purpose.
    assert len(calls) == len(minimum) + len(chain) + low.top_dim


@given(chain_objects(), st.permutations(list(range(6)) * 2))
@settings(max_examples=60, deadline=None)
def test_calls_in_any_order_read_the_same_reductions(obj, order):
    """Homology, cohomology and identity maps share one reducer per ring;
    asked in any order, each still equals the oracles."""
    q = betti_from_ranks(obj, frac_rank)
    f3 = betti_from_ranks(obj, lambda m: modp_rank(m, 3))
    z = dense_integer_homology(obj)
    top = obj.reliable_top

    def generators(coeffs, want):
        gens = v.homology(obj, coeffs, with_generators=True).generators
        return tuple(len(g) for g in gens) == want

    def identity(coeffs, want):
        m = v.induced_map(v.Inclusion(obj, obj), coeffs)
        return m.is_identity() and m.domain_ranks == want[: top + 1]

    checks = [
        lambda: (v.homology(obj).betti, v.homology(obj).torsion) == z,
        lambda: v.homology(obj, v.RATIONALS).betti == q and generators(v.RATIONALS, q),
        lambda: generators(v.prime_field(3), f3) and v.homology(obj, v.prime_field(3)).betti == f3,
        lambda: v.cohomology(obj, v.RATIONALS).betti == q,
        lambda: v.cohomology(obj, v.prime_field(3)).betti == f3,
        lambda: identity(v.RATIONALS, q) and identity(v.prime_field(3), f3),
    ]
    for i in order:
        assert checks[i](), i


def test_the_store_lets_go_of_dead_complexes():
    space = v.FiniteSpace(("store-a", "store-b", "store-c", "store-d"))

    def held():
        return sum(1 for obj in hom._REDUCERS if getattr(obj, "total", obj).space == space)

    k = v.explicit_complex(space, [(0, 1, 2), (2, 3)])
    pair = v.ComplexPair(k, v.full_subcomplex(k, [0, 1]))
    twin = v.explicit_complex(space, [(0, 1, 2), (2, 3)])
    v.homology(k)
    assert v.check_les_exactness(pair, v.RATIONALS, top_dim=1).exact
    assert held() == 3  # the complex, its subcomplex and the pair
    assert twin in hom._REDUCERS, "equal complexes share their reducers"
    del k, pair
    gc.collect()
    assert held() == 0
    assert twin not in hom._REDUCERS
