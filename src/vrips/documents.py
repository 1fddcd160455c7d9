"""File formats: exact distance tables, edge lists, JSON documents.

Every number is read exactly, never as a float. CSV distance entries
and JSON number literals are converted from their decimal text directly
(json's parse_float hands us the raw literal), so what the file says is
exactly what the relation sees. A CSV table parses each distinct cell
string once, a plain decimal with no Fraction, and keeps the table as
integer keys over one denominator, which document_to_metric hands to
SemiPseudometric.from_keys; its Fractions are built only when its
distances are read. Every other number is a Fraction.
Serialized fractions use the n/d form of str(Fraction). Untrusted input
is checked here: the parsers check each file's shape and numbers, and
the document_to_* conversions hand the contents to constructors that
check them, turning errors into ParseError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .closure import AdditiveClosure, Cover
from .complexes import SimplicialComplex, explicit_complex
from .relations import FiniteSpace, Relation, SemiPseudometric, graph_relation

SCHEMA = "1"


class ParseError(ValueError):
    """Input file rejected; carries the one-based line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class _Distances:
    """SpaceDocument.distances, None by default. A document read from a CSV
    table holds its entries in _key_table, as integer keys over one
    denominator, and builds their Fractions on the first read of distances."""

    def __get__(self, doc, owner=None):
        if doc is None:
            return None  # the field's default
        table = doc.__dict__["distances"]
        if table is None and doc._key_table:
            keys, den = doc._key_table
            table = doc.__dict__["distances"] = tuple(tuple(Fraction(k, den) for k in row) for row in keys)
        return table

    def __set__(self, doc, table):
        doc.__dict__["distances"] = table


@dataclass(frozen=True)
class SpaceDocument:
    """One parsed input: a space plus one kind of structure on it.

    kind is one of distance, graph, closure, complex; exactly the
    matching payload field is populated. cover_sets may accompany a
    closure document. distances holds Fractions; a document read from a
    CSV table builds them from its integer keys on their first read.
    """

    kind: str
    labels: tuple[str, ...]
    distances: tuple[tuple[Fraction, ...], ...] | None = _Distances()
    edges: tuple[tuple[int, int], ...] | None = None
    directed: bool = False
    neighborhoods: tuple[tuple[int, ...], ...] | None = None
    simplices: tuple[tuple[int, ...], ...] | None = None
    cover_sets: tuple[tuple[int, ...], ...] | None = None
    _key_table: tuple | None = field(default=None, repr=False, compare=False)

    def space(self) -> FiniteSpace:
        return FiniteSpace(self.labels)


def exact_number(text: str, line: int | None = None) -> Fraction:
    """The exact value of a decimal, scientific or n/d literal.

    Python refuses digit strings longer than sys.get_int_max_str_digits(),
    and an exponent that would give the numerator or the power-of-ten
    denominator more digits than that is refused before they are built.
    """
    text = text.strip()
    try:
        if "_" in text:  # Fraction accepts digit separators from Python 3.11 on
            raise ValueError
        plain = _decimal(text)  # skips Fraction's pattern match
        if plain:
            return Fraction(*plain)
        if "e" in text or "E" in text:
            mantissa, _, exp = text.lower().partition("e")
            whole, _, decimals = mantissa.partition(".")
            shift = int(exp) - sum(c.isdigit() for c in decimals)
            digits = max(sum(c.isdigit() for c in (whole + decimals).lstrip("+-0")), 1)
            limit = sys.get_int_max_str_digits()  # 0 means no limit
            if limit and max(digits + shift, 1 - shift) > limit:
                raise OverflowError
        return Fraction(text)
    except OverflowError as exc:
        raise ParseError(f"number too large to hold exactly: {text!r}", line) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact number: {text!r}", line) from exc


def scale_range(spec: str):
    """Scales LO, LO + STEP, ... up to HI of an exact LO:HI:STEP range.

    Checked at once (0 <= LO <= HI, STEP > 0), then produced lazily.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError("scales must be LO:HI:STEP")
    lo, hi, step = (exact_number(part) for part in parts)
    if lo < 0 or step <= 0 or hi < lo:
        raise ParseError("scales must satisfy 0 <= LO <= HI with a positive STEP")
    return (lo + k * step for k in range((hi - lo) // step + 1))


# --------------------------------------------------------------------------
# distance tables as CSV


def parse_distance_csv(text: str) -> SpaceDocument:
    """Square table: header row of labels, rows led by their own label.

    Entries are decimal or n/d strings, parsed exactly. The table must
    be symmetric with a zero diagonal, which conversion enforces.
    """
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise ParseError("empty distance table")
    header = [c.strip() for c in rows[0]]
    if header and header[0] == "":
        header = header[1:]
    if not header:
        raise ParseError("header row names no points", 1)
    if len(set(header)) != len(header):
        raise ParseError("duplicate labels in header", 1)
    n = len(header)
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} data rows, found {len(rows) - 1}")
    # A symmetric table holds each cell twice, so each distinct cell is read
    # once, as (numerator, denominator): a plain decimal with no Fraction, any
    # other literal by exact_number.
    parsed: dict[str, tuple[int, int]] = {}
    table = []
    for i, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        if len(cells) != n + 1:
            raise ParseError(f"expected {n + 1} cells, found {len(cells)}", i)
        if cells[0] != header[i - 2]:
            raise ParseError(f"row label {cells[0]!r} does not match header {header[i - 2]!r}", i)
        del cells[0]
        for c in cells:
            if c not in parsed:
                parsed[c] = _decimal(c) or exact_number(c, i).as_integer_ratio()
        table.append(cells)
    # n/d gets the key n * (L // d), L the lcm of every d; for plain decimals
    # L is the largest power of ten.
    den = math.lcm(*{d for _, d in parsed.values()})
    keys = {c: num * (den // d) for c, (num, d) in parsed.items()}
    return SpaceDocument(kind="distance", labels=tuple(header),
                         _key_table=(tuple(tuple(map(keys.__getitem__, row)) for row in table), den))


def _decimal(text: str) -> tuple[int, int] | None:
    """A plain ASCII decimal as (numerator, power-of-ten denominator), or
    None for any other literal and for digits too many for one int(), which
    Fraction's reader then takes or refuses."""
    whole, dot, decimals = text.partition(".")
    if text.isascii() and whole.isdigit() and (decimals.isdigit() or not dot):
        try:
            return int(whole + decimals), 10 ** len(decimals)
        except ValueError:
            return None
    return None


def document_to_metric(doc: SpaceDocument) -> SemiPseudometric:
    if doc.kind != "distance" or doc._key_table is None and doc.distances is None:
        raise ValueError("not a distance document")
    try:
        if doc._key_table:
            return SemiPseudometric.from_keys(doc.space(), *doc._key_table)
        return SemiPseudometric(doc.space(), doc.distances)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# --------------------------------------------------------------------------
# edge lists


def parse_edge_list(text: str) -> SpaceDocument:
    """Whitespace-separated edges, one per line.

    "a b" is an undirected edge, "a -> b" a directed one; a single
    label on a line declares an isolated point. "->" is only ever the
    arrow between two labels, never a label. Any arrow anywhere makes
    the whole document directed, and plain edges then stand for both
    directions. Comments start with #.
    """
    lines = text.splitlines()
    parsed = []
    directed = False
    for no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        arrow = len(tokens) == 3 and tokens[1] == "->"
        if arrow:
            tokens.pop(1)
        if len(tokens) > 2 or "->" in tokens:
            raise ParseError(f"cannot read edge {body!r}: write 'a b', 'a -> b' or one label", no)
        parsed.append((no, tokens[0], tokens[1] if len(tokens) == 2 else None, arrow))
        directed |= arrow
    labels: list[str] = []
    index: dict[str, int] = {}

    def point(name: str) -> int:
        if name not in index:
            index[name] = len(labels)
            labels.append(name)
        return index[name]

    edges: list[tuple[int, int]] = []
    for no, a, b, arrow in parsed:
        i = point(a)
        if b is None:
            continue
        j = point(b)
        if arrow:
            edges.append((i, j))
        elif directed:
            edges.extend([(i, j), (j, i)])
        else:
            edges.append((i, j))
    if not labels:
        raise ParseError("edge list names no points")
    return SpaceDocument(kind="graph", labels=tuple(labels), edges=tuple(edges),
                         directed=directed)


def document_to_relation(doc: SpaceDocument) -> Relation:
    if doc.kind != "graph" or doc.edges is None:
        raise ValueError("not a graph document")
    return graph_relation(doc.edges, doc.space(), directed=doc.directed)


# --------------------------------------------------------------------------
# JSON documents


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def parse_space_json(text: str) -> SpaceDocument:
    """JSON form of any document kind; floats arrive as exact Fractions."""
    try:
        data = json.loads(text, parse_float=exact_number)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except ParseError:
        raise
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(data, dict), "top level must be an object")
    kind = data.get("kind")
    _expect(kind in ("distance", "graph", "closure", "complex"),
            f"unknown document kind {kind!r}")
    labels = data.get("labels")
    _expect(isinstance(labels, list) and labels and all(isinstance(l, str) for l in labels),
            "labels must be a nonempty list of strings")
    labels = tuple(labels)
    n = len(labels)

    def index_list(values, what):
        _expect(isinstance(values, list), f"{what} must be a list")
        out = []
        for v in values:
            _expect(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n,
                    f"{what} entry {v!r} is not a point index")
            out.append(v)
        return tuple(out)

    if kind == "distance":
        table = data.get("distances")
        _expect(isinstance(table, list) and len(table) == n, "distances must be an n x n table")
        rows = []
        for row in table:
            _expect(isinstance(row, list) and len(row) == n, "distances must be an n x n table")
            vals = []
            for v in row:
                if isinstance(v, str):
                    vals.append(exact_number(v))
                elif isinstance(v, (int, Fraction)) and not isinstance(v, bool):
                    vals.append(Fraction(v))
                else:
                    raise ParseError(f"distance entry {v!r} is not a number")
            rows.append(tuple(vals))
        return SpaceDocument(kind="distance", labels=labels, distances=tuple(rows))

    if kind == "graph":
        edges = data.get("edges")
        _expect(isinstance(edges, list), "edges must be a list of pairs")
        pairs = []
        for e in edges:
            _expect(isinstance(e, list) and len(e) == 2, f"edge {e!r} is not a pair")
            pairs.append(tuple(index_list(e, "edge")))
        directed = data.get("directed", False)
        _expect(isinstance(directed, bool), "directed must be a boolean")
        return SpaceDocument(kind="graph", labels=labels, edges=tuple(pairs),
                             directed=directed)

    if kind == "closure":
        nbhd = data.get("neighborhoods")
        _expect(isinstance(nbhd, list) and len(nbhd) == n,
                "neighborhoods must list one set per point")
        hoods = tuple(tuple(sorted(set(index_list(h, "neighborhood")))) for h in nbhd)
        cover = data.get("cover")
        cover_sets = None
        if cover is not None:
            _expect(isinstance(cover, list) and cover, "cover must be a nonempty list of sets")
            cover_sets = tuple(tuple(sorted(set(index_list(s, "cover set")))) for s in cover)
        return SpaceDocument(kind="closure", labels=labels, neighborhoods=hoods,
                             cover_sets=cover_sets)

    tops = data.get("simplices")
    _expect(isinstance(tops, list), "simplices must be a list of vertex lists")
    simplices = tuple(tuple(sorted(set(index_list(s, "simplex")))) for s in tops)
    _expect(all(simplices), "simplices must be nonempty")
    return SpaceDocument(kind="complex", labels=labels, simplices=simplices)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return [_jsonable(v) for v in sorted(obj)]
    return obj


def document_to_closure(doc: SpaceDocument) -> AdditiveClosure:
    if doc.kind != "closure" or doc.neighborhoods is None:
        raise ValueError("not a closure document")
    try:
        return AdditiveClosure(doc.space(), tuple(frozenset(h) for h in doc.neighborhoods))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def document_cover(doc: SpaceDocument) -> Cover:
    if doc.cover_sets is None:
        raise ParseError("document carries no cover")
    try:
        return Cover(doc.space(), tuple(frozenset(s) for s in doc.cover_sets))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def document_to_complex(doc: SpaceDocument, max_dim: int | None = None) -> SimplicialComplex:
    if doc.kind != "complex" or doc.simplices is None:
        raise ValueError("not a complex document")
    try:
        return explicit_complex(doc.space(), doc.simplices, max_dim=max_dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_document(text: str, fmt: str) -> SpaceDocument:
    """Dispatch on a format name: csv, edges, or json."""
    if fmt == "csv":
        return parse_distance_csv(text)
    if fmt == "edges":
        return parse_edge_list(text)
    if fmt == "json":
        return parse_space_json(text)
    raise ParseError(f"unknown input format {fmt!r}")


def guess_format(path: str) -> str:
    lowered = path.lower()
    if lowered.endswith(".csv"):
        return "csv"
    if lowered.endswith(".json"):
        return "json"
    return "edges"


# --------------------------------------------------------------------------
# result documents


def result_document(command: str, parameters: dict, results: dict) -> dict:
    """Envelope for machine-readable command output; field order is fixed."""
    return {
        "schema": SCHEMA,
        "tool": "vrips",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "parameters": _jsonable(parameters),
        "results": _jsonable(results),
    }


def serialize_result(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
