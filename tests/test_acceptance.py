"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines on
success; without -s they still show for any failing criterion. Every
criterion is deterministic (fixed seeds) and the whole file stays well
under a minute.
"""

import io
import itertools
import random
from fractions import Fraction

import vrips as v
from vrips.cli import OK, run_command
from vrips.relations import space_of_size
from conftest import RP2_FACES, circle_metric

from oracles import bareiss_det, full_relation, matmul


def _report(num: int, label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"ACCEPTANCE {num:02d} {mark}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _random_symmetric(rng: random.Random, n: int, density: float) -> "v.Relation":
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return v.graph_relation(pairs, space_of_size(n))


def _random_metric(rng: random.Random, n: int) -> "v.SemiPseudometric":
    pool = [Fraction(k, 4) for k in range(1, 9)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(pool)
    return v.SemiPseudometric(space_of_size(n), tuple(tuple(r) for r in rows))


def _closing_base(d, q):
    above = [x for x in d.values() if x > q]
    delta = (min(above) - q) / 2 if above else Fraction(1)
    return v.scale_base(d, q, [delta])


def test_criterion_01_one_point_space():
    ok = all(
        v.verify_dimension(coeffs, max_dim=2).passed
        for coeffs in (v.INTEGERS, v.RATIONALS, v.prime_field(2))
    )
    _report(1, "a one-point space has a single class in degree zero", ok)


def test_criterion_02_graph_limits_match_direct_homology():
    rng = random.Random(101)
    ok = True
    for _ in range(20):
        rel = _random_symmetric(rng, rng.randint(1, 10), rng.uniform(0.2, 0.7))
        base = v.SemiUniformBase.from_members([rel])
        limit = v.limit_homology(base, max_dim=3).result
        direct = v.homology(v.clique_complex(rel, 3))
        if limit.betti != direct.betti or limit.torsion != direct.torsion:
            ok = False
            break
    k4 = v.limit_homology(
        v.SemiUniformBase.from_members([full_relation(space_of_size(4))]), max_dim=3
    )
    ok = ok and k4.result.betti[:3] == (1, 0, 0)
    _report(2, "graph limits agree with clique-complex homology", ok)


def test_criterion_03_scale_towers_match_closed_relations(tmp_path):
    path = tmp_path / "unit_square.csv"
    path.write_text(
        ",v0,v1,v2,v3\n"
        "v0,0,1,1.41421356,1\n"
        "v1,1,0,1,1.41421356\n"
        "v2,1.41421356,1,0,1\n"
        "v3,1,1.41421356,1,0\n"
    )
    out = io.StringIO()
    code = run_command(["sweep", str(path), "--scales", "1/2:3/2:1/2"], out=out, err=out)
    ok = code == OK and out.getvalue().splitlines()[1:] == [
        "1/2\t4\t0", "1\t1\t1", "3/2\t1\t0",
    ]
    rng = random.Random(202)
    for _ in range(20):
        d = _random_metric(rng, rng.randint(2, 8))
        for q in (Fraction(1, 2), Fraction(1, 1), Fraction(7, 4)):
            limit = v.limit_homology(_closing_base(d, q)).result
            closed = v.homology(v.vr_complex(v.metric_relation(d, q, mode="closed"), 2))
            if limit.betti != closed.betti or limit.torsion != closed.torsion:
                ok = False
    _report(3, "scale towers reproduce closed-relation homology", ok)


def test_criterion_04_excision():
    rng = random.Random(303)
    base4 = v.SemiUniformBase.from_members(
        [v.graph_relation([(0, 1), (1, 2), (2, 3), (3, 0)], space_of_size(4))]
    )
    ok = v.verify_excision(base4, [0, 1, 2], [1]).passed
    for _ in range(200):
        n = rng.randint(2, 8)
        rel = _random_symmetric(rng, n, rng.uniform(0.2, 0.6))
        b = {rng.randrange(n)}
        # Closing A over B's neighborhood makes the hypothesis hold by
        # construction; extra points only enlarge A.
        a = set(v.relation_image(rel, b)) | b
        a.update(rng.sample(range(n), rng.randint(0, n // 2)))
        verdict = v.verify_excision(v.SemiUniformBase.from_members([rel]), a, b)
        if not verdict.passed:
            ok = False
            break
    _report(4, "cutting the excised set out preserves relative homology", ok)


def test_criterion_05_long_exact_sequences():
    rng = random.Random(404)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 8)
        rel = _random_symmetric(rng, n, rng.uniform(0.2, 0.7))
        sub = rng.sample(range(n), rng.randint(1, n - 1))
        pair = v.pair_complex(rel, sub, 3)
        report = v.check_les_exactness(pair, v.RATIONALS, top_dim=2)
        if not report.exact:
            ok = False
            break
    _report(5, "pair sequences are exact in all tested degrees", ok)


def test_criterion_06_homotopy_cylinders():
    ok = all(
        v.check_interval_acyclic(n, Fraction(2, n - 1)).passed for n in range(2, 9)
    )
    for n in range(1, 5):
        pts = space_of_size(n)
        for edges in itertools.chain.from_iterable(
            itertools.combinations(list(itertools.combinations(range(n), 2)), k)
            for k in range(n * (n - 1) // 2 + 1)
        ):
            u = v.graph_relation(edges, pts)
            verdict = v.verify_homotopy_cylinder(u, 4, Fraction(2, 5), v.RATIONALS)
            ok = ok and verdict.passed
    cycle = v.graph_relation([(0, 1), (1, 2), (2, 3), (3, 0)], space_of_size(4))
    ok = ok and v.verify_homotopy_cylinder(cycle, 5, Fraction(3, 10), v.RATIONALS).passed
    _report(6, "cylinder end inclusions induce equal maps", ok)


def test_criterion_07_cover_duality():
    rng = random.Random(505)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 7)
        sets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n)
            sets.append(frozenset(rng.sample(range(n), size)))
        covered = set().union(*sets)
        missing = set(range(n)) - covered
        if missing:
            sets[0] = frozenset(sets[0] | missing)
        verdict = v.verify_dowker(v.Cover(space_of_size(n), tuple(sets)))
        if not verdict.passed:
            ok = False
            break
    _report(7, "witness complexes and nerves agree in homology", ok)


def test_criterion_08_circle_recovery():
    d = circle_metric(12)
    report = v.limit_homology(_closing_base(d, Fraction(3, 5)))
    ok = report.result.betti[:2] == (1, 1)
    _report(8, "a sampled circle at a good scale has circle homology", ok)


def test_criterion_09_torsion():
    k = v.explicit_complex(space_of_size(6), RP2_FACES, max_dim=2)
    over_z = v.homology(k)
    over_f2 = v.homology(k, v.prime_field(2))
    ok = (
        over_z.betti == (1, 0, 0)
        and over_z.torsion == ((), (2,), ())
        and over_f2.betti == (1, 1, 1)
    )
    _report(9, "integer torsion appears and mod-2 ranks shift accordingly", ok)


def test_criterion_10_normal_form_invariants():
    rng = random.Random(606)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        entries = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        m = v.IntegerMatrix(rows, cols, entries)
        res = v.smith_normal_form(m)
        diag = res.d
        product = matmul(matmul(res.left, m), res.right)
        for i in range(rows):
            for j in range(cols):
                want = diag[i] if i == j and i < len(diag) else 0
                if product.entries[i][j] != want:
                    ok = False
        for a, b in zip(diag, diag[1:]):
            if a < 0 or b % a != 0:
                ok = False
        if abs(bareiss_det(res.left.entries)) != 1 or abs(bareiss_det(res.right.entries)) != 1:
            ok = False
        if rows == cols:
            det = bareiss_det(entries)
            prod = 1
            for x in diag:
                prod *= x
            if len(diag) < rows:
                prod = 0
            if abs(det) != abs(prod):
                ok = False
        if not ok:
            break
    _report(10, "normal forms reconstruct and divide in chains", ok)
