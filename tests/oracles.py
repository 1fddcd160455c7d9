"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the package's own algorithms:
cliques, nerves and witness complexes come from subset scanning instead
of incremental expansion or face closure, maximal simplices from a
superset scan, ranks from a plain fraction elimination written here,
determinants from Bareiss, invariant factors from determinantal
divisors, and numbers from Fraction's own reader, which also reads every
cell of the CSV tables that integer keys are checked against. Scale relations,
closed balls, scale continuity and distinct distance values come from
comparing every entry of a table instead of bisecting its sorted pairs,
and the interval relation from comparing every pair with its reach
instead of a band of integer width.
The shifted and truncated tables that the scale tests build live here
too, with the other helpers only tests use: the diagonal and full
relations, a table from coordinates, writers for the three input
formats, a reader for result documents, the barycentric subdivision of
a complex (from its chains of faces), and the identity, transpose and
product of integer matrices. The stabilization of a field tower is
checked against one induced map per member, from its inclusion of the
minimum, where the library reads the tower's bars. Slow on purpose;
only ever applied to small instances.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction

from vrips.complexes import Inclusion, SimplicialComplex, pair_complex, vr_complex
from vrips.documents import SCHEMA, ParseError, SpaceDocument
from vrips.homology import IntegerMatrix, induced_map
from vrips.relations import FiniteSpace, Relation, SemiPseudometric, relation, space_of_size


def diagonal(space: FiniteSpace) -> Relation:
    return relation(space)


def full_relation(space: FiniteSpace) -> Relation:
    n = space.size
    return Relation(space, frozenset(itertools.product(range(n), repeat=2)))


def metric_from_points(labels, coords, dist_fn) -> SemiPseudometric:
    """Distance table from coordinates and a symmetric distance function."""
    space = FiniteSpace(tuple(labels))
    n = space.size
    return SemiPseudometric(space, tuple(
        tuple(0 if i == j else dist_fn(coords[i], coords[j]) for j in range(n)) for i in range(n)))


def serialize_distance_csv(doc: SpaceDocument) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow([""] + list(doc.labels))
    for label, row in zip(doc.labels, doc.distances):
        w.writerow([label] + [str(v) for v in row])
    return out.getvalue()


def serialize_edge_list(doc: SpaceDocument) -> str:
    arrow = " -> " if doc.directed else " "
    lines = [f"{doc.labels[i]}{arrow}{doc.labels[j]}" for i, j in doc.edges]
    touched = {v for e in doc.edges for v in e}
    lines += [label for i, label in enumerate(doc.labels) if i not in touched]
    return "\n".join(lines) + "\n"


def serialize_space_json(doc: SpaceDocument) -> str:
    """JSON form of a document; Fractions are written as n/d strings."""
    body: dict = {"schema": SCHEMA, "kind": doc.kind, "labels": list(doc.labels)}
    if doc.kind == "distance":
        body["distances"] = doc.distances
    elif doc.kind == "graph":
        body.update(edges=doc.edges, directed=doc.directed)
    elif doc.kind == "closure":
        body["neighborhoods"] = doc.neighborhoods
        if doc.cover_sets is not None:
            body["cover"] = doc.cover_sets
    else:
        body["simplices"] = doc.simplices
    return json.dumps(body, indent=2, default=str) + "\n"


def parse_result(text: str) -> dict:
    return json.loads(text, parse_float=Fraction)


def results_equal(a: dict, b: dict) -> bool:
    """Equality of result documents, ignoring the timestamp."""
    trimmed = [{k: v for k, v in d.items() if k != "generated_at"} for d in (a, b)]
    return trimmed[0] == trimmed[1]


def brute_scale_pairs(dist, q, mode: str) -> frozenset:
    """Off-diagonal pairs of the scale-q relation: d < q strict, d <= q closed."""
    n = len(dist)
    if mode == "strict":
        return frozenset((i, j) for i in range(n) for j in range(n) if i != j and dist[i][j] < q)
    return frozenset((i, j) for i in range(n) for j in range(n) if i != j and dist[i][j] <= q)


def brute_closed_balls(dist, r) -> tuple:
    """For each point x, the points y with d(x, y) <= r."""
    n = len(dist)
    return tuple(frozenset(y for y in range(n) if dist[x][y] <= r) for x in range(n))


def brute_pq_continuous(f, dx, dy, p, q) -> bool:
    """Every pair within p in dx maps to a pair within q in dy."""
    n = len(dx)
    return all(dy[f[i]][f[j]] <= q for i in range(n) for j in range(n) if dx[i][j] <= p)


def interval_table(n: int) -> tuple:
    """Distances of n evenly spaced points on the unit interval."""
    return tuple(tuple(Fraction(abs(i - j), n - 1) for j in range(n)) for i in range(n))


def interval_pairs(n: int, r) -> frozenset:
    """Pairs of the strict scale-r interval relation, comparing |i - j| with r (n-1) for every pair."""
    reach = r * (n - 1)
    return frozenset((i, j) for i in range(n) for j in range(n) if abs(i - j) < reach)


def brute_values(dist) -> tuple:
    """Sorted distinct off-diagonal distances, by a set and one sort."""
    n = len(dist)
    return tuple(sorted({dist[i][j] for i in range(n) for j in range(i + 1, n)}))


def shifted_metric(d: SemiPseudometric, q) -> SemiPseudometric:
    """Shift all distances down by q, clamped at zero.

    Strict relations of the shifted table at scale r coincide with strict
    relations of the original at scale q + r.
    """
    if q < 0:
        raise ValueError("shift must be nonnegative")
    return SemiPseudometric(d.space, tuple(tuple((x - q) if x > q else 0 for x in row)
                                           for row in d.dist))


def truncated_metric(d: SemiPseudometric, q) -> SemiPseudometric:
    """Collapse every distance at most q to zero, keeping the rest."""
    if q < 0:
        raise ValueError("truncation scale must be nonnegative")
    return SemiPseudometric(d.space, tuple(tuple(0 if x <= q else x for x in row) for row in d.dist))


def smallest_positive_gap(values):
    """Smallest positive difference between consecutive distinct values, or None."""
    vals = sorted(set(values))
    gaps = [b - a for a, b in zip(vals, vals[1:]) if b - a > 0]
    return min(gaps) if gaps else None


def reference_exact_number(text: str, line: int | None = None) -> Fraction:
    """The number reader with no decimal fast path: every literal goes
    through Fraction, after the same exponent guard. Digit separators are
    refused, as Fraction refuses them before Python 3.11."""
    text = text.strip()
    try:
        if "_" in text:
            raise ValueError(text)
        if "e" in text or "E" in text:
            mantissa, _, exp = text.lower().partition("e")
            whole, _, decimals = mantissa.partition(".")
            shift = int(exp) - sum(c.isdigit() for c in decimals)
            digits = max(sum(c.isdigit() for c in (whole + decimals).lstrip("+-0_")), 1)
            limit = sys.get_int_max_str_digits()
            if limit and max(digits + shift, 1 - shift) > limit:
                raise OverflowError
        return Fraction(text)
    except OverflowError as exc:
        raise ParseError(f"number too large to hold exactly: {text!r}", line) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact number: {text!r}", line) from exc


def reference_distance_table(cells) -> tuple[tuple, SemiPseudometric]:
    """A well-shaped CSV table's cells read as they were before integer
    keys: every cell through reference_exact_number, in scan order with its
    line, then SemiPseudometric's checks on the Fractions. A refused cell
    raises ParseError; a refused table raises the constructor's ValueError."""
    rows = tuple(tuple(reference_exact_number(c, line) for c in row)
                 for line, row in enumerate(cells, start=2))
    return rows, SemiPseudometric(space_of_size(len(rows)), rows)


def brute_clique_layers(n: int, pairs, max_dim: int) -> list[list[tuple[int, ...]]]:
    """All mutually related subsets, found by scanning every subset."""
    sym = {(i, j) for i, j in pairs} | {(j, i) for i, j in pairs}
    layers = []
    for k in range(max_dim + 1):
        layer = []
        for combo in itertools.combinations(range(n), k + 1):
            if all((a, b) in sym for a, b in itertools.combinations(combo, 2)):
                layer.append(combo)
        layers.append(layer)
    return layers


def brute_directed_layers(n: int, pairs, max_dim: int) -> list[list[tuple[int, ...]]]:
    """Subsets admitting an ordering with every forward pair present."""
    rel = set(pairs) | {(i, i) for i in range(n)}
    layers = []
    for k in range(max_dim + 1):
        layer = []
        for combo in itertools.combinations(range(n), k + 1):
            ok = any(
                all((perm[a], perm[b]) in rel
                    for a in range(len(perm)) for b in range(a + 1, len(perm)))
                for perm in itertools.permutations(combo)
            )
            if ok:
                layer.append(combo)
        layers.append(layer)
    return layers


def brute_nerve_layers(sets, max_dim: int) -> list[list[tuple[int, ...]]]:
    """Member subsets whose sets share a point, found by scanning every subset."""
    return [
        [combo for combo in itertools.combinations(range(len(sets)), k + 1)
         if frozenset.intersection(*(sets[i] for i in combo))]
        for k in range(max_dim + 1)
    ]


def brute_witness_layers(n: int, sets, max_dim: int) -> list[list[tuple[int, ...]]]:
    """Point subsets lying inside one cover set, found by scanning every subset."""
    return [
        [combo for combo in itertools.combinations(range(n), k + 1)
         if any(set(combo) <= s for s in sets)]
        for k in range(max_dim + 1)
    ]


def brute_maximal(layers) -> list[tuple[int, ...]]:
    """Simplices contained in no other listed simplex, layer by layer."""
    every = [set(s) for layer in layers for s in layer]
    return [s for layer in layers for s in layer if not any(set(s) < t for t in every)]


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """One vertex per simplex of k, numbered in layer order, and one
    simplex per chain of faces, listed directly and checked in full."""
    cells = [s for layer in k.simplices for s in layer]
    index = {s: i for i, s in enumerate(cells)}

    def chains_up_to(s):
        """Chains whose largest member is s; a face comes before s in cells."""
        out = [(index[s],)]
        for size in range(1, len(s)):
            for face in itertools.combinations(s, size):
                out += [c + (index[s],) for c in chains_up_to(face)]
        return out

    layers: list[list[tuple[int, ...]]] = [[] for _ in k.simplices]
    for s in cells:
        for c in chains_up_to(s):
            layers[len(c) - 1].append(c)
    return SimplicialComplex(space_of_size(len(cells)), tuple(sorted(layer) for layer in layers),
                             k.max_dim, k.complete)


def identity_matrix(n: int) -> IntegerMatrix:
    return IntegerMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    return IntegerMatrix(m.cols, m.rows, tuple(
        tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)))


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matrix product")
    return IntegerMatrix(a.rows, b.cols, tuple(
        tuple(sum(x * b.entries[k][j] for k, x in enumerate(row)) for j in range(b.cols))
        for row in a.entries))


def boundary_from_layers(lower, upper) -> list[list[int]]:
    """Integer boundary matrix between two explicit simplex layers."""
    index = {s: i for i, s in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            if face in index:
                rows[index[face]][j] = (-1) ** drop
    return rows


def frac_rank(rows) -> int:
    """Rank over the rationals by straightforward elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    width = len(rows[0])
    rank = 0
    for c in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / lead[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def modp_rank(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    if not rows or not rows[0]:
        return 0
    width = len(rows[0])
    rank = 0
    for c in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(inv * x) % p for x in rows[rank]]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def brute_betti(layers, p: int | None = None) -> list[int]:
    """Betti numbers of explicit layers over Q or a prime field."""
    ns = [len(layer) for layer in layers]
    ranks = [0] * (len(layers) + 1)
    for k in range(1, len(layers)):
        mat = boundary_from_layers(layers[k - 1], layers[k])
        ranks[k] = frac_rank(mat) if p is None else modp_rank(mat, p)
    return [ns[k] - ranks[k] - ranks[k + 1] for k in range(len(layers))]


def bareiss_det(rows) -> int:
    """Integer determinant by fraction-free Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinantal_divisors(rows) -> list[int]:
    """Invariant factors from gcds of k x k minors. Exponential; keep tiny."""
    if not rows or not rows[0]:
        return []
    m, n = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                minor = bareiss_det([[rows[i][j] for j in csel] for i in rsel])
                g = math.gcd(g, abs(minor))
        divisors.append(g)
        if g == 0:
            break
    factors = []
    for k in range(1, len(divisors)):
        if divisors[k] == 0:
            break
        factors.append(divisors[k] // divisors[k - 1])
    return factors


def stabilization_by_induced_maps(base, coeffs, subset=None, max_dim: int = 2) -> tuple:
    """(member index, agrees, betti) for each member of a base but its
    minimum, over a field: the member agrees when the map its inclusion of
    the minimum induces is an isomorphism in every degree both ends
    compute exactly, and betti lists the member's ranks there."""
    def build(rel):
        return vr_complex(rel, max_dim) if subset is None else pair_complex(rel, subset, max_dim)

    low = base.minimum()
    idx = base.members.index(low)
    dom = build(low)
    out = []
    for i, u in enumerate(base.members):
        if i == idx:
            continue
        cod = build(u)
        top = min(dom.reliable_top, cod.reliable_top)
        if top < 0:
            out.append((i, True, ()))
            continue
        m = induced_map(Inclusion(dom, cod), coeffs, top_dim=top)
        out.append((i, all(m.is_isomorphism_at(k) for k in range(top + 1)), m.codomain_ranks))
    return tuple(out)
