"""Edge collapse of a symmetric relation and the commands that use it.

relations.collapse removes dominated edges: {a, b} is dominated when
some vertex w outside it has N[a] & N[b] inside N[w], with closed
neighbourhoods. The flag complex of what is left is homotopy equivalent
to the first, so homology below the enumeration cap is unchanged over
every ring, torsion included. The oracle here is the homology of the
uncollapsed flag complex, and dominated edges are found by brute force
on neighbourhood sets.
"""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vrips as v
import vrips.cli
from conftest import RP2_FACES, any_relations, metrics, symmetric_relations
from oracles import barycentric_subdivision
from vrips.cli import BAD_INPUT, OK, run_command
from vrips.relations import collapse, is_symmetric, metric_relation, relation, space_of_size

RINGS = {"Z": v.INTEGERS, "Q": v.RATIONALS, "F2": v.prime_field(2), "F3": v.prime_field(3)}


def below_cap(obj, coeffs, reduced: bool = False):
    """Betti numbers and torsion of a complex or pair below its cap."""
    cap = (obj.total if isinstance(obj, v.ComplexPair) else obj).max_dim
    res = v.homology(obj, coeffs, reduced=reduced)
    return res.betti[:cap], res.torsion[:cap]


def dominated_edges(u: v.Relation) -> list:
    """Every edge {a, b}, a < b, that some vertex outside it dominates."""
    n = u.space.size
    near = [{j for j in range(n) if (i, j) in u.pairs} for i in range(n)]
    return [(a, b) for a, b in u.pairs if a < b
            and any(w not in (a, b) and near[a] & near[b] <= near[w] for w in range(n))]


def check_collapse(u: v.Relation) -> v.Relation:
    """collapse(u) is a symmetric sub-relation of u with its diagonal and
    no dominated edge, and collapsing it again changes nothing."""
    c = collapse(u)
    assert c.space == u.space
    assert c.pairs <= u.pairs
    assert is_symmetric(c)
    assert all((i, i) in c.pairs for i in u.space.points())
    assert dominated_edges(c) == []
    assert collapse(c) == c
    return c


# Some edge of this graph is dominated only by a vertex that comes after
# a common neighbour that does not dominate it.
LATE_DOMINATOR = v.graph_relation(
    [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 6), (2, 4), (2, 5), (2, 6),
     (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)], space_of_size(7))


@given(symmetric_relations(max_points=8), st.integers(1, 3), st.sampled_from(sorted(RINGS)))
@example(LATE_DOMINATOR, 2, "Z")
@settings(max_examples=150, deadline=None)
def test_collapse_keeps_homology_below_the_cap(u, cap, ring):
    c = check_collapse(u)
    coeffs = RINGS[ring]
    assert below_cap(v.vr_complex(c, cap), coeffs) == below_cap(v.vr_complex(u, cap), coeffs)


@given(any_relations(max_points=6))
@settings(max_examples=60, deadline=None)
def test_collapse_refuses_a_relation_that_is_not_symmetric(u):
    if is_symmetric(u):
        check_collapse(u)
    else:
        with pytest.raises(ValueError, match="symmetric"):
            collapse(u)


def test_two_triangles_on_an_edge_collapse_to_a_path():
    # Edges are checked lowest first. {0, 1} is not dominated at first;
    # {0, 2} is, by 1. Then {0, 1} is checked again and is dominated by 3,
    # which leaves the path 0-3-1-2.
    u = v.graph_relation([(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)], space_of_size(4))
    c = check_collapse(u)
    assert c == v.graph_relation([(0, 3), (3, 1), (1, 2)], space_of_size(4))
    assert collapse(relation(space_of_size(3))) == relation(space_of_size(3))
    with pytest.raises(ValueError, match="symmetric"):
        collapse(relation(space_of_size(2), [(0, 1)]))


def second_subdivision_of_rp2() -> v.SimplicialComplex:
    rp2 = v.explicit_complex(space_of_size(6), RP2_FACES)
    return barycentric_subdivision(barycentric_subdivision(rp2))


def skeleton_relation(k: v.SimplicialComplex, extra=()) -> v.Relation:
    """The relation of the 1-skeleton of k, plus extra edges."""
    n = k.space.size + max((max(e) + 1 - k.space.size for e in extra), default=0)
    return v.graph_relation(list(k.layer(1)) + list(extra), space_of_size(n))


RP2_GROUPS = ((1, 0, 0), ((), (2,), ()))


def test_second_subdivision_of_rp2_has_no_dominated_edge():
    sd2 = second_subdivision_of_rp2()
    u = skeleton_relation(sd2)
    flag = v.vr_complex(u, 3)
    assert flag.simplices == sd2.simplices
    c = check_collapse(u)
    assert c == u
    assert [len(layer) for layer in v.vr_complex(c, 3).simplices] == [181, 540, 360]


def test_a_flap_on_rp2_collapses_and_keeps_its_torsion():
    # A new vertex joined to both ends of one edge adds a triangle whose
    # free edges are dominated, one by each end of the old edge.
    sd2 = second_subdivision_of_rp2()
    x, y = sd2.layer(1)[0]
    flap = sd2.space.size
    u = skeleton_relation(sd2, [(flap, x), (flap, y)])
    whole = v.vr_complex(u, 3)
    small = v.vr_complex(check_collapse(u), 3)
    assert [len(layer) for layer in whole.simplices] == [182, 542, 361]
    assert [len(layer) for layer in small.simplices] == [182, 541, 360]
    assert below_cap(small, v.INTEGERS) == below_cap(whole, v.INTEGERS) == RP2_GROUPS
    for p in (2, 3):
        field = v.prime_field(p)
        assert below_cap(small, field) == below_cap(whole, field)


# --------------------------------------------------------------------------
# the commands


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def collapses(monkeypatch):
    """Record the relations that the command line collapses."""
    seen = []

    def recording(u):
        seen.append(u)
        return collapse(u)

    monkeypatch.setattr(vrips.cli, "collapse", recording)
    return seen


def graph_file(tmp_path, u: v.Relation, directed: bool) -> str:
    edges = sorted((i, j) for i, j in u.pairs if i != j and (i < j or directed))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"kind": "graph", "labels": list(u.space.labels),
                                "edges": [list(e) for e in edges], "directed": directed}))
    return str(path)


def reported(out: str):
    res = json.loads(out)["results"]
    return tuple(res["betti"]), tuple(tuple(t) for t in res["torsion"])


def test_directed_and_relative_graphs_are_not_collapsed(tmp_path, collapses):
    # A directed 4-cycle with one chord: its flag complex is order-aware.
    directed = relation(space_of_size(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    code, out, _ = run(["graph", graph_file(tmp_path, directed, True), "--max-dim", "3"])
    assert code == OK and collapses == []
    assert reported(out) == below_cap(v.vr_complex(directed, 3), v.INTEGERS)

    square = v.graph_relation([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], space_of_size(4))
    path = graph_file(tmp_path, square, False)
    code, out, _ = run(["graph", path, "--subset", "1", "3"])
    assert code == OK and collapses == []
    assert reported(out) == below_cap(v.pair_complex(square, [1, 3], 2), v.INTEGERS)

    code, out, _ = run(["graph", path])
    assert code == OK and collapses == [square]
    assert reported(out) == below_cap(v.vr_complex(square, 2), v.INTEGERS) == ((1, 0), ((), ()))


@st.composite
def closure_documents(draw):
    """Labels, neighbourhoods and a cover on up to 7 points; the cover
    need not be an interior cover."""
    n = draw(st.integers(1, 7))
    points = st.integers(0, n - 1)
    hoods = [sorted(draw(st.frozensets(points, max_size=2)) | {x}) for x in range(n)]
    cover = [sorted(s) for s in draw(st.lists(st.frozensets(points, min_size=1), min_size=1,
                                              max_size=5))]
    cover.append(sorted(set(range(n)) - {x for s in cover for x in s}) or cover[0])
    return {"kind": "closure", "labels": [f"x{i}" for i in range(n)],
            "neighborhoods": hoods, "cover": cover}


@given(closure_documents(), st.sampled_from(["interior", "vietoris"]),
       st.sampled_from(sorted(RINGS)), st.integers(1, 3), st.booleans())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_closure_command_prints_the_uncollapsed_homology(tmp_path, doc, kind, ring, cap, reduced):
    path = tmp_path / "closure.json"
    path.write_text(json.dumps(doc))
    argv = ["closure", str(path), "--relation", kind, "--coeffs", ring, "--max-dim", str(cap)]
    code, out, err = run(argv + ["--reduced"] * reduced)
    space = v.FiniteSpace(tuple(doc["labels"]))
    cover = v.Cover(space, tuple(frozenset(s) for s in doc["cover"]))
    try:
        if kind == "interior":
            u = v.ii_relation(v.AdditiveClosure(space, tuple(map(frozenset, doc["neighborhoods"]))),
                              cover)
        else:
            u = v.vietoris_relation(cover)
    except ValueError:
        assert code == BAD_INPUT and "interior cover" in err
        return
    assert (code, err) == (OK, "")
    assert reported(out) == below_cap(v.vr_complex(u, cap), RINGS[ring], reduced)


def test_both_closure_relations_are_collapsed(tmp_path, collapses):
    # Discrete neighbourhoods and three arcs over three points: both
    # relations are the full triangle.
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"kind": "closure", "labels": ["a", "b", "c"],
                                "neighborhoods": [[0], [1], [2]],
                                "cover": [[0, 1], [1, 2], [0, 2]]}))
    for kind in ("interior", "vietoris"):
        code, out, _ = run(["closure", str(path), "--relation", kind])
        assert code == OK
        assert reported(out) == ((1, 0), ((), ()))
    assert [len(u.pairs) for u in collapses] == [9, 9]


def csv_text(d: v.SemiPseudometric) -> str:
    labels = list(d.space.labels)
    rows = [",".join([""] + labels)]
    rows += [",".join([label] + [str(x) for x in row]) for label, row in zip(labels, d.dist)]
    return "\n".join(rows) + "\n"


@given(metrics(max_points=7), st.sampled_from(sorted(RINGS)), st.integers(1, 3), st.booleans())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sweep_rows_print_the_uncollapsed_homology(tmp_path, d, ring, cap, reduced):
    path = tmp_path / "table.csv"
    path.write_text(csv_text(d))
    argv = ["sweep", str(path), "--scales", "0:9/4:1/4", "--coeffs", ring, "--max-dim", str(cap)]
    code, out, err = run(argv + ["--reduced"] * reduced)
    assert (code, err) == (OK, "")
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == 10
    for row in rows:
        k = v.vr_complex(metric_relation(d, Fraction(row[0])), cap)
        assert [int(b) for b in row[1:]] == list(below_cap(k, RINGS[ring], reduced)[0])


def test_every_sweep_row_is_collapsed(tmp_path, collapses):
    path = tmp_path / "square.csv"
    path.write_text(",a,b,c,d\na,0,1,2,1\nb,1,0,1,2\nc,2,1,0,1\nd,1,2,1,0\n")
    code, out, _ = run(["sweep", str(path), "--scales", "1/2:5/2:1"])
    assert code == OK
    assert out.splitlines()[1:] == ["1/2\t4\t0", "3/2\t1\t1", "5/2\t1\t0"]
    assert [len(u.pairs) for u in collapses] == [4, 12, 16]
