"""Parsing and serialization of the file formats the CLI reads and writes."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrips import closure_of_set, homology, metric_relation, scale_base, vr_complex
from vrips.documents import (
    ParseError,
    document_cover,
    document_to_closure,
    document_to_complex,
    document_to_metric,
    document_to_relation,
    exact_number,
    guess_format,
    parse_distance_csv,
    parse_document,
    parse_edge_list,
    parse_space_json,
    result_document,
    serialize_result,
)
from oracles import (
    brute_scale_pairs,
    brute_values,
    parse_result,
    reference_distance_table,
    reference_exact_number,
    results_equal,
    serialize_distance_csv,
    serialize_edge_list,
    serialize_space_json,
)
from vrips.relations import closing_offset

SQUARE_CSV = """\
,p,q,r
p,0,1,0.25
q,1,0,1/3
r,0.25,1/3,0
"""


def test_distance_csv_parses_exactly():
    doc = parse_distance_csv(SQUARE_CSV)
    assert doc.kind == "distance"
    assert doc.labels == ("p", "q", "r")
    assert doc.distances[0][2] == Fraction(1, 4)
    assert doc.distances[1][2] == Fraction(1, 3)
    d = document_to_metric(doc)
    assert d.space.size == 3


def test_distance_csv_round_trips():
    doc = parse_distance_csv(SQUARE_CSV)
    again = parse_distance_csv(serialize_distance_csv(doc))
    assert again == doc


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        (",p,q\np,0,1\nq,1,0,7\n", 3, "cells"),
        (",p,q\np,0,1\nr,1,0\n", 3, "does not match"),
        (",p,q\np,0,x\nq,1,0\n", 2, "not an exact number"),
        (",p,p\np,0,1\np,1,0\n", 1, "duplicate"),
    ],
)
def test_distance_csv_errors_carry_lines(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_distance_csv(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_distance_csv_shape_errors():
    with pytest.raises(ParseError):
        parse_distance_csv("")
    with pytest.raises(ParseError):
        parse_distance_csv(",p,q\np,0,1\n")  # missing a data row


def test_bad_tables_fail_on_conversion():
    asym = parse_distance_csv(",p,q\np,0,1\nq,2,0\n")
    with pytest.raises(ParseError):
        document_to_metric(asym)
    diag = parse_distance_csv(",p,q\np,5,1\nq,1,0\n")
    with pytest.raises(ParseError):
        document_to_metric(diag)


EDGES = """\
# a four-cycle with a spare point
a b
b c
c d
d a
e
"""


def test_edge_list_parses_comments_and_isolated_points():
    doc = parse_edge_list(EDGES)
    assert doc.kind == "graph"
    assert not doc.directed
    assert doc.labels == ("a", "b", "c", "d", "e")
    assert doc.edges == ((0, 1), (1, 2), (2, 3), (3, 0))
    rel = document_to_relation(doc)
    assert homology(vr_complex(rel, 2)).betti == (2, 1, 0)


def test_edge_list_round_trips():
    doc = parse_edge_list(EDGES)
    assert parse_edge_list(serialize_edge_list(doc)) == doc


def test_one_arrow_makes_the_document_directed():
    doc = parse_edge_list("a b\nb -> c\n")
    assert doc.directed
    # The plain edge is mirrored once the document turns out directed.
    assert set(doc.edges) == {(0, 1), (1, 0), (1, 2)}
    assert parse_edge_list(serialize_edge_list(doc)).edges == doc.edges


def test_edge_list_errors():
    with pytest.raises(ParseError) as err:
        parse_edge_list("a b\na b c d\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("a => b\n")
    with pytest.raises(ParseError):
        parse_edge_list("# nothing here\n")


@pytest.mark.parametrize("line", ["a ->", "-> b", "->", "a -> ->", "-> -> b", "a b ->", "a -> b -> c"])
def test_an_arrow_is_never_a_label(line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(f"a -> b\n# note\n{line}\n")
    assert err.value.line == 3


def test_json_distance_floats_arrive_exact():
    doc = parse_space_json(
        '{"kind": "distance", "labels": ["x", "y"],'
        ' "distances": [[0, 0.1], ["1/10", 0]]}'
    )
    assert doc.distances == ((Fraction(0), Fraction(1, 10)), (Fraction(1, 10), Fraction(0)))
    document_to_metric(doc)


def test_json_graph_round_trips():
    doc = parse_space_json(
        '{"kind": "graph", "labels": ["a", "b"], "edges": [[0, 1]], "directed": true}'
    )
    assert doc.directed
    assert parse_space_json(serialize_space_json(doc)) == doc


def test_json_closure_with_cover():
    doc = parse_space_json(
        '{"kind": "closure", "labels": ["a", "b", "c"],'
        ' "neighborhoods": [[0, 1], [1], [2, 1]],'
        ' "cover": [[0, 1], [1, 2]]}'
    )
    c = document_to_closure(doc)
    assert closure_of_set(c, {0}) == {0, 1}
    cover = document_cover(doc)
    assert len(cover.sets) == 2
    assert parse_space_json(serialize_space_json(doc)) == doc
    bare = parse_space_json(
        '{"kind": "closure", "labels": ["a"], "neighborhoods": [[0]]}'
    )
    with pytest.raises(ParseError):
        document_cover(bare)


def test_json_complex_round_trips():
    doc = parse_space_json(
        '{"kind": "complex", "labels": ["a", "b", "c"], "simplices": [[0, 1, 2]]}'
    )
    k = document_to_complex(doc)
    assert homology(k).betti == (1, 0, 0)
    trimmed = document_to_complex(doc, max_dim=1)
    assert homology(trimmed).betti[:2] == (1, 1)
    assert parse_space_json(serialize_space_json(doc)) == doc


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"kind": "nonsense", "labels": ["a"]}',
        '{"kind": "graph", "labels": []}',
        '{"kind": "graph", "labels": ["a"], "edges": [[0]]}',
        '{"kind": "graph", "labels": ["a", "b"], "edges": [[0, true]]}',
        '{"kind": "graph", "labels": ["a"], "edges": [[0, 3]]}',
        '{"kind": "closure", "labels": ["a", "b"], "neighborhoods": [[0]]}',
        '{"kind": "complex", "labels": ["a"], "simplices": [[]]}',
        '{"kind": "distance", "labels": ["a"], "distances": [[0], [0]]}',
    ],
)
def test_json_validation_rejects(text):
    with pytest.raises(ParseError):
        parse_space_json(text)


def test_exponents_stop_at_the_interpreter_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert exact_number(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert exact_number(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert exact_number(f"0.5e{limit}") == 5 * 10 ** (limit - 1)
    for text in (f"1e{limit}", f"1e-{limit}", f"25e{limit - 1}", "1e10000000", "0e10000000"):
        with pytest.raises(ParseError, match="too large"):
            exact_number(text)
    # Plain digit strings already meet the same limit inside Python.
    with pytest.raises(ParseError):
        exact_number("1" + "0" * limit)
    with pytest.raises(ParseError):
        parse_space_json('{"kind": "graph", "labels": ["a"], "edges": [[0, 1%s]]}'
                         % ("0" * limit))


def _read_outcome(read, text):
    try:
        value = read(text, 3)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "value", value, type(value)


@given(st.one_of(
    st.from_regex(r"[0-9]{1,12}(\.[0-9]{1,12})?", fullmatch=True),  # the decimal fast path
    st.from_regex(r"[0-9]{0,3}\.?[0-9]{0,3}", fullmatch=True),  # and its edges: "1.", ".5"
    st.text(alphabet="0123456789.+-eE_/ \t\u0661\u0662\u00b2\uff11", max_size=12),
    st.text(max_size=8),
))
@settings(max_examples=400, deadline=None)
def test_exact_number_matches_fractions_reader(text):
    assert _read_outcome(exact_number, text) == _read_outcome(reference_exact_number, text)


@pytest.mark.parametrize("text", [
    "0", "007.50", "1.", ".5", "1_0", "1.2_5", "+1.5", "-0.5", " 2.25\t", "1.5.2", "3/4",
    "1e3", "2.5E-2", "\u0661\u0662", "\u0661.\u0662", "\u00b2", "\uff11.5", "",
])
def test_exact_number_edge_cases_match_fractions_reader(text):
    assert _read_outcome(exact_number, text) == _read_outcome(reference_exact_number, text)


def test_long_digit_runs_match_fractions_reader():
    limit = sys.get_int_max_str_digits()
    # The last run of digits is within the limit on each side of the
    # point, while the two together are not.
    for text in ("1" * limit, "1" * (limit + 1), "0." + "1" * (limit + 1),
                 "2" * (limit // 2 + 10) + "." + "3" * (limit // 2 + 10)):
        assert _read_outcome(exact_number, text) == _read_outcome(reference_exact_number, text)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(["0", "1", "0.5", "1/2", " 2 ", "1e1", "x", "-1", "1."]),
             min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_distance_cells_read_like_fractions_reader(cells):
    labels = [f"p{i}" for i in range(len(cells))]
    text = "\n".join([",".join([""] + labels)]
                     + [",".join([label] + row) for label, row in zip(labels, cells)])
    try:
        want = tuple(tuple(reference_exact_number(c, line) for c in row)
                     for line, row in enumerate(cells, start=2))
    except ParseError as exc:
        with pytest.raises(ParseError, match=re.escape(str(exc)) + "$"):
            parse_distance_csv(text)
        return
    assert parse_distance_csv(text).distances == want


def test_json_syntax_errors_carry_a_line():
    with pytest.raises(ParseError) as err:
        parse_space_json('{"kind": "graph",\n  oops\n}')
    assert err.value.line == 2


def test_format_dispatch():
    assert guess_format("table.CSV") == "csv"
    assert guess_format("space.json") == "json"
    assert guess_format("anything.txt") == "edges"
    assert parse_document("a b\n", "edges").kind == "graph"
    with pytest.raises(ParseError):
        parse_document("", "yaml")


def test_result_document_shape():
    doc = result_document("homology", {"scale": Fraction(1, 2)}, {"betti": [1, 1]})
    assert list(doc) == [
        "schema", "tool", "version", "command", "generated_at", "parameters", "results",
    ]
    assert doc["tool"] == "vrips"
    assert doc["parameters"]["scale"] == "1/2"
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", doc["generated_at"])
    parsed = parse_result(serialize_result(doc))
    assert results_equal(parsed, doc)


def test_results_equal_ignores_only_the_timestamp():
    a = result_document("verify", {}, {"passed": 3})
    b = dict(a, generated_at="1999-01-01T00:00:00Z")
    assert results_equal(a, b)
    assert not results_equal(a, dict(a, results={"passed": 2}))


# A CSV table is read as integer keys over the lcm of its cells' denominators,
# one power of ten for plain decimals; it must answer as the Fraction table does.
# Each value comes in plain spellings of several lengths and in other ones.
_SPELLINGS = [
    (["0", "0.0", "0.000"], ["0/1", "0e0"]),
    (["1", "1.0", "1.00"], ["2/2", "1e0"]),
    (["0.5", "0.50", "0.5000"], ["1/2", "5e-1"]),
    (["0.25", "0.2500"], ["1/4", "25e-2"]),
    (["0.2", "0.20"], ["1/5", "2E-1"]),
    (["3", "3.000"], ["6/2", "0.3e1"]),
    (["1.41421356"], ["141421356/100000000"]),
]
_LIMIT = sys.get_int_max_str_digits()
_ODD_CELLS = [
    "x", "", "1_0", "-1", "+2", "1.", ".5", "1/0", "nan", "1e400000000",
    "1" * _LIMIT,  # the longest whole digit run exact_number takes
    "1" * (_LIMIT + 1),
    "2" * (_LIMIT // 2 + 10) + "." + "3" * (_LIMIT // 2 + 10),  # too long for one int(), taken
    "0." + "1" * (_LIMIT + 1),
]


@st.composite
def _csv_cells(draw):
    n = draw(st.integers(1, 6))
    plain = draw(st.booleans())

    def spell(value):
        plains, others = value
        return draw(st.sampled_from(plains if plain else plains + others))

    cells = [[None] * n for _ in range(n)]
    for i in range(n):
        cells[i][i] = spell(_SPELLINGS[0])
        for j in range(i + 1, n):
            value = draw(st.sampled_from(_SPELLINGS))
            cells[i][j], cells[j][i] = spell(value), spell(value)
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(_ODD_CELLS))
        if draw(st.booleans()):
            cells[j][i] = cells[i][j]
    return cells


def _check_against_the_fraction_table(cells):
    labels = [f"p{i}" for i in range(len(cells))]
    text = "\n".join([",".join([""] + labels)] + [",".join([label] + row) for label, row in zip(labels, cells)])
    try:
        rows, want = reference_distance_table(cells)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_distance_csv(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    except ValueError as exc:
        with pytest.raises(ParseError) as got:
            document_to_metric(parse_distance_csv(text))
        assert (str(got.value), got.value.line) == (str(exc), None)
        return
    doc = parse_distance_csv(text)
    d = document_to_metric(doc)
    assert d._index.pairs == want._index.pairs
    assert [(x, type(x)) for x in d.values()] == [(x, type(x)) for x in want.values()]
    assert d.values() == brute_values(rows)
    assert d.dist == want.dist == doc.distances == rows
    assert {type(x) for row in d.dist + doc.distances for x in row} == {Fraction}
    vals = want.values()
    probes = [0, *vals, *((a + b) / 2 for a, b in zip(vals, vals[1:])), vals[-1] + 1 if vals else 1]
    if vals and vals[0] > 0:
        probes.append(vals[0] / 2)
    for q in probes:
        for mode in ("strict", "closed"):
            assert metric_relation(d, q, mode).off_diagonal() == brute_scale_pairs(rows, q, mode)
        above = [x for x in vals if x > q]
        offset = closing_offset(d, q)
        assert offset == ((min(above) - q) / 2 if above else 1)
        for deltas in ([offset], [Fraction(1, 3), Fraction(1, 10**6), 2]):
            assert [m.off_diagonal() for m in scale_base(d, q, deltas).members] == [
                m.off_diagonal() for m in scale_base(want, q, deltas).members]
            assert scale_base(d, q, deltas).members[0].off_diagonal() == brute_scale_pairs(
                rows, q + min(deltas), "strict")


@given(_csv_cells())
@settings(max_examples=100, deadline=None)
def test_integer_keys_answer_as_the_fraction_table(cells):
    _check_against_the_fraction_table(cells)


@pytest.mark.parametrize("cell", _ODD_CELLS)
def test_odd_cells_answer_as_the_fraction_table(cell):
    _check_against_the_fraction_table([["0", cell, "0.5"], [cell, "0", "1"], ["0.5", "1", "0"]])
    _check_against_the_fraction_table([["0", cell], ["1", "0"]])
