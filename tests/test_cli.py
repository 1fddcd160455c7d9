"""End-to-end runs of the command line front end."""

import importlib.util
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vrips as v
import vrips.cli
from conftest import any_relations
from vrips.cli import BAD_INPUT, FAILED, OK, run_command
from vrips.documents import parse_result, results_equal
from vrips.relations import is_symmetric
from vrips.semiuniform import AxiomVerdict

SQUARE_CSV = """\
,v0,v1,v2,v3
v0,0,1,1.41421356,1
v1,1,0,1,1.41421356
v2,1.41421356,1,0,1
v3,1,1.41421356,1,0
"""

CLOSURE_JSON = json.dumps({
    "kind": "closure",
    "labels": ["a", "b", "c"],
    "neighborhoods": [[0], [1], [2]],
    "cover": [[0, 1], [1, 2], [0, 2]],
})


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(SQUARE_CSV)
    return str(path)


@pytest.fixture
def cycle_edges(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text("a b\nb c\nc d\nd a\n")
    return str(path)


@pytest.fixture
def arcs_json(tmp_path):
    path = tmp_path / "arcs.json"
    path.write_text(CLOSURE_JSON)
    return str(path)


@pytest.fixture
def huge_csv(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(",a,b\na,0,1e10000000\nb,1e10000000,0\n")
    return str(path)


@pytest.fixture
def huge_json(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "distance", "labels": ["a", "b"],'
                    ' "distances": [[0, 1e10000000], [1e10000000, 0]]}')
    return str(path)


def test_homology_of_a_distance_table(square_csv):
    code, out, err = run(["homology", square_csv, "--scale", "1"])
    assert (code, err) == (OK, "")
    doc = parse_result(out)
    assert doc["command"] == "homology"
    assert doc["results"]["betti"] == [1, 1]
    assert doc["results"]["torsion"] == [[], []]
    assert doc["results"]["members"] == 1
    assert doc["results"]["stabilized"] is True
    assert len(doc["parameters"]["deltas"]) == 1


def test_homology_with_field_coefficients(square_csv):
    code, out, _ = run(["homology", square_csv, "--scale", "1", "--coeffs", "Q"])
    assert code == OK
    assert parse_result(out)["results"]["cohomology_betti"] == [1, 1]


def test_homology_relative_to_a_subset(square_csv):
    code, out, _ = run(["homology", square_csv, "--scale", "1", "--subset", "0", "1", "2"])
    assert code == OK
    assert parse_result(out)["results"]["betti"] == [0, 1]


def test_explicit_deltas_build_a_tower(square_csv):
    code, out, _ = run(["homology", square_csv, "--scale", "1", "--delta", "1/4,1/2"])
    assert code == OK
    doc = parse_result(out)
    assert doc["results"]["members"] == 2
    # The coarse member is a solid simplex, so the tower is not stable.
    assert doc["results"]["stabilized"] is False
    assert doc["results"]["betti"] == [1, 1]


def test_homology_of_a_complex_document(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "kind": "complex", "labels": ["a", "b", "c"], "simplices": [[0, 1, 2]],
    }))
    code, out, _ = run(["homology", str(path), "--reduced"])
    assert code == OK
    assert parse_result(out)["results"]["betti"] == [0, 0]


def test_graph_command(cycle_edges):
    code, out, _ = run(["graph", cycle_edges, "--coeffs", "F2"])
    assert code == OK
    doc = parse_result(out)
    assert doc["results"]["betti"] == [1, 1]
    assert doc["parameters"]["directed"] is False


def test_directed_graph_command(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("a -> b\nb -> c\n")
    code, out, _ = run(["graph", str(path)])
    assert code == OK
    doc = parse_result(out)
    assert doc["parameters"]["directed"] is True
    assert doc["results"]["betti"] == [1, 0]


COEFFS = {"Z": v.INTEGERS, "Q": v.RATIONALS, "F2": v.prime_field(2)}


@given(any_relations(), st.sampled_from(sorted(COEFFS)), st.integers(1, 3),
       st.booleans(), st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_graph_command_is_the_homology_of_the_flag_complex(tmp_path, rel, coeffs, cap,
                                                            reduced, data):
    n = rel.space.size
    subset = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    symmetric = is_symmetric(rel)
    edges = sorted((i, j) for i, j in rel.pairs if i != j and (i < j or not symmetric))
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"kind": "graph", "labels": list(rel.space.labels),
                                "edges": [list(e) for e in edges], "directed": not symmetric}))
    argv = ["graph", str(path), "--coeffs", coeffs, "--max-dim", str(cap)]
    argv += ["--reduced"] * reduced + (["--subset", *map(str, subset)] if subset else [])
    code, out, err = run(argv)
    assert (code, err) == (OK, "")
    got = parse_result(out)["results"]

    field = COEFFS[coeffs]
    obj = v.vr_complex(rel, cap) if subset is None else v.pair_complex(rel, subset, cap)
    want = v.homology(obj, field, reduced=reduced)
    assert got["betti"] == list(want.betti[:cap])
    assert got["torsion"] == [list(t) for t in want.torsion[:cap]]
    if symmetric:
        base = v.SemiUniformBase.from_members([rel])
        limit = v.limit_homology(base, subset=subset, coeffs=field, max_dim=cap,
                                 reduced=reduced).result
        assert (limit.betti, limit.torsion) == (want.betti, want.torsion)


def test_closure_command_both_relations(tmp_path):
    path = tmp_path / "arcs.json"
    path.write_text(CLOSURE_JSON)
    code_i, out_i, _ = run(["closure", str(path)])
    code_v, out_v, _ = run(["closure", str(path), "--relation", "vietoris"])
    assert code_i == code_v == OK
    a, b = parse_result(out_i), parse_result(out_v)
    # Discrete neighborhoods make interior and plain overlap coincide.
    assert a["results"] == b["results"]
    assert a["results"]["betti"] == [1, 0]


def test_sweep_emits_exact_tsv(square_csv):
    code, out, err = run(["sweep", square_csv, "--scales", "1/2:3/2:1/2"])
    assert (code, err) == (OK, "")
    lines = out.splitlines()
    assert lines[0] == "scale\tbetti0\tbetti1"
    assert lines[1:] == ["1/2\t4\t0", "1\t1\t1", "3/2\t1\t0"]


def test_reduced_sweep_drops_betti0_by_one(square_csv):
    code, out, err = run(["sweep", square_csv, "--scales", "1/2:3/2:1/2", "--reduced"])
    assert (code, err) == (OK, "")
    assert out.splitlines()[1:] == ["1/2\t3\t0", "1\t0\t1", "3/2\t0\t0"]


def test_runs_are_deterministic(square_csv):
    _, first, _ = run(["homology", square_csv, "--scale", "1"])
    _, second, _ = run(["homology", square_csv, "--scale", "1"])
    assert results_equal(parse_result(first), parse_result(second))


def test_verify_prints_one_line_per_check():
    code, out, _ = run(["verify", "--suite", "dimension", "--seed", "1", "--trials", "2"])
    assert code == OK
    lines = out.splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert "checks passed (suite=dimension, seed=1)" in lines[-1]


def test_verify_reports_failures(monkeypatch):
    verdicts = [AxiomVerdict("made-up", "instance", False, "broken on purpose")]
    monkeypatch.setattr("vrips.cli.run_suite", lambda name, config: verdicts)
    code, out, _ = run(["verify", "--suite", "dimension"])
    assert code == FAILED
    assert "FAIL made-up" in out
    assert "broken on purpose" in out
    assert "0/1 checks passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "/nonexistent/nowhere.csv", "--scale", "1"],
        ["sweep", "SQUARE", "--scales", "2:1:1/2"],
        ["sweep", "SQUARE", "--scales", "1:2"],
        ["sweep", "SQUARE", "--scales", "1:2:0"],
        ["homology", "SQUARE", "--scale", "1", "--coeffs", "F4"],
        ["homology", "SQUARE", "--scale", "1", "--coeffs", "R"],
        ["homology", "SQUARE", "--scale", "nope"],
        ["homology", "SQUARE"],  # a distance table needs --scale
        ["nonsense"],
        [],
        ["sweep", "SQUARE", "--scales=-1:1:1"],  # LO below zero
        ["sweep", "SQUARE", "--scales=-3:1:1"],
        ["homology", "SQUARE", "--scale", "1", "--max-dim", "0"],  # cap below 1
        ["graph", "CYCLE", "--max-dim", "0"],
        ["closure", "ARCS", "--max-dim", "0"],
        ["sweep", "SQUARE", "--scales", "1/2:1:1/2", "--max-dim", "0"],
        # Exponents whose digits alone would take seconds to produce.
        ["homology", "HUGE_CSV", "--scale", "1"],
        ["homology", "HUGE_JSON", "--scale", "1"],
        ["homology", "SQUARE", "--scale", "1e10000000"],
        ["sweep", "SQUARE", "--scales", "0:1e10000000:1"],
    ],
)
def test_bad_input_exits_two(argv, square_csv, cycle_edges, arcs_json, huge_csv, huge_json):
    files = {"SQUARE": square_csv, "CYCLE": cycle_edges, "ARCS": arcs_json,
             "HUGE_CSV": huge_csv, "HUGE_JSON": huge_json}
    start = time.perf_counter()
    code, out, err = run([files.get(a, a) for a in argv])
    assert time.perf_counter() - start < 1
    assert code == BAD_INPUT
    assert out == ""
    assert err.startswith("error:") or err.startswith("usage:")
    assert "Traceback" not in err


def _script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("circle_recovery", ["--points", "8", "--scales=-3:0:1"]),
        ("circle_recovery", ["--points", "8", "--scales=1:0:1"]),
        ("circle_recovery", ["--points", "8", "--scales=0:1e10000000:1"]),
        ("axiom_report", ["--max-dim", "0", "--seeds", "1", "--trials", "1"]),
        ("axiom_report", ["--seeds", "0"]),
    ],
)
def test_scripts_exit_two_on_bad_arguments(name, argv, capsys):
    assert _script(name).main(argv) == BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cached_parser_answers_like_a_fresh_one(monkeypatch, square_csv, cycle_edges):
    sequence = [
        ["graph", cycle_edges, "--max-dim", "zero"],
        ["graph", cycle_edges, "--coeffs", "F2"],
        ["sweep", square_csv, "--scales", "1/2:3/2:1/2", "--reduced"],
    ]

    def strip_time(result):
        code, out, _ = result
        return code, "\n".join(l for l in out.splitlines() if "generated_at" not in l)

    cached = [strip_time(run(argv)) for argv in sequence]
    assert vrips.cli._build_parser() is vrips.cli._build_parser()
    monkeypatch.setattr(vrips.cli, "_build_parser", vrips.cli._build_parser.__wrapped__)
    fresh = [strip_time(run(argv)) for argv in sequence]
    assert cached == fresh
    assert [code for code, _ in cached] == [BAD_INPUT, OK, OK]


def test_wrong_document_kind_exits_two(square_csv, cycle_edges):
    code, _, err = run(["graph", square_csv])
    assert code == BAD_INPUT
    assert "error:" in err
    code, _, err = run(["homology", cycle_edges])
    assert code == BAD_INPUT
    assert "graph or closure" in err


def test_help_exits_zero():
    code, _, _ = run(["--help"])
    assert code == OK


def test_argument_messages_go_to_the_given_streams(capsys):
    code, out, err = run(["graph"])
    assert code == BAD_INPUT
    assert out == ""
    assert err.startswith("usage: vrips graph") and "required" in err
    code, out, err = run(["--help"])
    assert code == OK
    assert out.startswith("usage: vrips") and err == ""
    assert capsys.readouterr() == ("", "")


def test_module_entry_point(square_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "vrips.cli", "homology", square_csv, "--scale", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == OK
    assert parse_result(proc.stdout)["results"]["betti"] == [1, 1]


def test_complex_document_honours_subset_and_rejects_scales(tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps({
        "kind": "complex", "labels": ["a", "b", "c"], "simplices": [[0, 1], [1, 2], [0, 2]],
    }))
    code, out, _ = run(["homology", str(path)])
    assert code == OK
    assert parse_result(out)["results"]["betti"] == [1, 1]
    code, out, _ = run(["homology", str(path), "--subset", "0"])
    assert code == OK
    doc = parse_result(out)
    assert doc["parameters"]["subset"] == [0]
    assert doc["results"]["betti"] == [0, 1]
    for flag in (["--scale", "1"], ["--delta", "1/2"]):
        code, _, err = run(["homology", str(path)] + flag)
        assert code == BAD_INPUT
        assert "error:" in err


def test_deeply_nested_json_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(["homology", str(path)])
    assert code == BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
