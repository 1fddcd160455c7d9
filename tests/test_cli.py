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
from conftest import any_relations, metrics
from oracles import parse_result, results_equal
from vrips.cli import BAD_INPUT, FAILED, OK, run_command
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


def test_repeated_subset_points_are_echoed_once(cycle_edges):
    code, out, _ = run(["graph", cycle_edges, "--subset", "1", "0", "0"])
    assert code == OK
    doc = parse_result(out)
    assert doc["parameters"]["subset"] == [0, 1]
    code, once, _ = run(["graph", cycle_edges, "--subset", "0", "1"])
    assert results_equal(doc, parse_result(once))


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
        ["verify", "--trials", "-3"],
        ["verify", "--suite", "excision", "--trials", "0"],
        ["homology", "SQUARE", "--scale", "-1"],  # refused with the default offset too
        # 100000000003 * 100000000019: trial division would take hours
        ["homology", "SQUARE", "--scale", "1", "--coeffs", "F10000000002200000000057"],
        # a 30-digit prime, past the range where primality is decided exactly
        ["homology", "SQUARE", "--scale", "1", "--coeffs", "F100000000000000000000000000319"],
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


def test_a_large_prime_modulus_is_accepted_quickly(square_csv):
    start = time.perf_counter()
    code, out, err = run(["homology", square_csv, "--scale", "1", "--coeffs", "F2305843009213693951"])
    assert time.perf_counter() - start < 1
    assert (code, err) == (OK, "")
    assert parse_result(out)["results"]["betti"] == [1, 1]


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
        ("axiom_report", ["--seeds", "1", "--suite", "excision", "--trials", "-3"]),
        ("circle_recovery", ["--points", "8", "--scales=0:1:1", "--max-dim", "0"]),
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


@pytest.mark.parametrize("name, text, argv", [
    ("square.txt", "a b\nb c\nc d\nd a\n", ["graph", "--coeffs", "F2"]),
    ("square.csv", SQUARE_CSV, ["homology", "--scale", "1"]),
    ("arcs.json", CLOSURE_JSON, ["closure"]),
])
def test_a_leading_byte_order_mark_changes_nothing(tmp_path, name, text, argv):
    path = tmp_path / name
    answers = []
    for bom in ("", "\ufeff"):
        path.write_text(bom + text, encoding="utf-8")
        code, out, err = run(argv[:1] + [str(path)] + argv[1:])
        assert (code, err) == (OK, "")
        answers.append(parse_result(out))
    assert results_equal(*answers)


@pytest.mark.parametrize("line", ["a ->", "-> b", "->", "a -> ->", "-> -> b", "a b ->", "a -> b -> c"])
def test_a_dangling_arrow_exits_two(tmp_path, line):
    path = tmp_path / "edges.txt"
    path.write_text(f"a b\n{line}\n")
    code, out, err = run(["graph", str(path)])
    assert (code, out) == (BAD_INPUT, "")
    assert err.startswith("error:") and "line 2" in err


@pytest.mark.parametrize("name, text, argv", [
    ("cell.csv", ",a,b\na,0,1_0\nb,1_0,0\n", ["sweep", "FILE", "--scales", "9:11:1"]),
    ("entry.json", '{"kind": "distance", "labels": ["a", "b"], "distances": [[0, "1_0"], ["1_0", 0]]}',
     ["homology", "FILE", "--scale", "10"]),
    ("square.csv", SQUARE_CSV, ["homology", "FILE", "--scale", "1_0"]),
    ("square.csv", SQUARE_CSV, ["homology", "FILE", "--scale", "1", "--delta", "1_0"]),
    ("square.csv", SQUARE_CSV, ["sweep", "FILE", "--scales", "9:1_1:1"]),
])
def test_digit_separators_exit_two_on_every_python(tmp_path, name, text, argv):
    # Fraction reads "1_0" as 10 from Python 3.11 on; every literal refuses it.
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run([str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (BAD_INPUT, "")
    assert err.startswith("error:") and "not an exact number: '1_" in err
    assert "Traceback" not in err


# Command-line fuzzing: small documents, well formed or broken, through every
# document command. Whatever the input, the answer is a result or one refusal.

_CELLS = st.sampled_from(["0", "1", "2", "1/2", "0.5", "3e-1", "-1", "x", "", "1/0", "nan"])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from([0.5, "a", "1/2"]),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@st.composite
def _csv_texts(draw):
    if draw(st.booleans()):
        rows = [[str(x) for x in row] for row in draw(metrics(min_points=1, max_points=5)).dist]
    else:
        n = draw(st.integers(0, 4))
        rows = [[draw(_CELLS) for _ in range(n)] for _ in range(draw(st.integers(0, 4)))]
    header = [f"p{i}" for i in range(len(rows[0]) if rows else 0)]
    labels = list(header)
    if labels and draw(st.integers(0, 9)) == 0:
        labels[-1] = "zz"  # one row label that differs from the header
    lines = ["," + ",".join(header)]
    lines += [",".join([lab] + row) for lab, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def _edge_texts():
    line = st.sampled_from(["a b", "b c", "c a", "a -> b", "c", "# note", "a b c", "->", "a ->",
                            ""])
    return st.lists(line, max_size=6).map("\n".join)


@st.composite
def _json_texts(draw):
    """A document of each kind, mostly well formed; some are corrupted or not JSON."""
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return None, draw(st.sampled_from(["{", "[]", "null", '{"kind": 3}', "", "\u00ff"]))
    n = draw(st.integers(1, 4))
    point = st.integers(0, n - 1) if roll > 2 else st.integers(-1, n)
    points = st.lists(point, min_size=1, max_size=3)
    kind = draw(st.sampled_from(["distance", "graph", "closure", "complex"]))
    doc = {"kind": kind, "labels": [f"p{i}" for i in range(n)]}
    if kind == "distance":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(st.sampled_from([1, 2, 3, 0.5, "1/2"]))
        doc["distances"] = rows
    elif kind == "graph":
        doc["edges"] = draw(st.lists(st.lists(point, min_size=2, max_size=2), max_size=5))
        doc["directed"] = draw(st.booleans())
    elif kind == "closure":
        doc["neighborhoods"] = [sorted({x} | set(draw(points))) for x in range(n)]
        if draw(st.integers(0, 4)):
            doc["cover"] = draw(st.lists(points, min_size=1, max_size=3))
    else:
        doc["simplices"] = draw(st.lists(points, max_size=4))
    if roll in (1, 2):  # corrupt one field
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    return kind, json.dumps(doc)


_DOCUMENTS = st.one_of(
    st.tuples(st.just("doc.csv"), st.just("distance"), _csv_texts()),
    st.tuples(st.just("doc.txt"), st.just("graph"), _edge_texts()),
    _json_texts().map(lambda kind_text: ("doc.json", *kind_text)),
)
_COMMANDS = ["homology", "graph", "closure", "sweep"]
_READERS = {"distance": ["homology", "sweep"], "graph": ["graph"], "closure": ["closure"],
            "complex": ["homology"], None: ["homology"]}


@st.composite
def _runs(draw):
    """Document text and a command line naming it; mostly a command that reads its kind."""
    name, kind, text = draw(_DOCUMENTS)
    fitting = draw(st.integers(0, 3)) > 0
    command = draw(st.sampled_from(_READERS[kind] if fitting else _COMMANDS))
    argv = [command, name, "--max-dim", str(draw(st.integers(1, 2))),
            "--coeffs", draw(st.sampled_from(["Z", "Q", "F2", "F3", "F4"]))]
    argv += ["--reduced"] * draw(st.booleans())
    if command in ("homology", "graph") and draw(st.integers(0, 3)) == 0:
        argv += ["--subset", *map(str, draw(st.lists(st.integers(-1, 5), min_size=1, max_size=3)))]
    if command == "homology" and kind != "complex":
        argv += ["--scale", draw(st.sampled_from(["0", "1/2", "1", "2", "3", "-1", "x"]))]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--delta", draw(st.sampled_from(["1/4", "1/4,1/2", "0", "y"]))]
    elif command == "closure":
        argv += ["--relation", draw(st.sampled_from(["interior", "vietoris"]))]
    elif command == "sweep":  # at most ten rows
        scales = ["0:1:1/4", "1/2:3:1/2", "0:0:1", "1:0:1", "0:1:0", "a:b"]
        argv += ["--scales", draw(st.sampled_from(scales))]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--format", draw(st.sampled_from(["csv", "edges", "json"]))]
    return text, argv


@given(_runs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_commands_answer_or_refuse(tmp_path, text_argv):
    text, argv = text_argv
    path = tmp_path / argv[1]
    path.write_text(text, encoding="utf-8")
    code, out, err = run(argv[:1] + [str(path)] + argv[2:])
    assert code in (OK, BAD_INPUT)
    assert "Traceback" not in err
    if code == OK:
        assert err == ""
    else:
        assert out == "" and err.startswith(("error:", "usage:"))
