"""Exact simplicial homology, cohomology, and induced maps.

Chains live on the canonical bases given by the lexicographic simplex
order, and boundaries stay sparse: column j of d_k holds the signed
faces of the j-th k-simplex as {row: coefficient}. One column reduction
serves every computation (Edelsbrunner and Harer, Computational
Topology, ch. VII). Columns are reduced left to right until their
lowest nonzero rows are distinct, which gives R = D V with every pivot
of R normalised to 1; the pivot count is the rank. Field arithmetic is
exact: integers and Fractions for the rationals, residues for a prime
field. Nothing here ever touches floating point.

One reducer per complex (or pair) and ring owns its chain complex: the
simplex bases, the boundary columns, the walk over the degrees in top
down order, the clearing (a column of d_k whose index is a pivot row of
d_{k+1} is an integer combination of earlier columns, so it is
skipped), the reduction records V kept for homology bases, and the
integer residual. A store that holds each complex weakly builds its
reducers on first use, so homology, cohomology, induced maps and the
long exact sequence all read the same columns and reductions, and they
go when the complex does. Over the integers only +1 and -1 are pivots,
so every operation is unimodular, and a column whose lowest entry is
another integer is set aside as stuck (Dumas, Heckenbach, Saunders and
Welker, 2003). With nothing stuck the rank is the pivot count and the
group below has no torsion. Otherwise the Smith form of what the stuck
columns leave off the pivot rows adds its nonzero entries to the rank
and its entries above 1 as torsion. The public Smith form records its
transforms in identity blocks bordering the matrix. Cohomology
transposes the reducer's boundary columns and reduces them from the
bottom dimension up, on purpose apart from the reducer's reductions, so
that comparing it with homology over a field checks one computation
against another.

Induced maps are computed over a field only, relative to deterministic
homology bases. In degree k the representatives are the reduction
records (columns of V) of the d_k columns that reduce to zero and are
not pivot rows of d_{k+1}. Together with the reduced columns of d_{k+1}
they have distinct lowest rows, so coordinates come from
back-substitution on those rows. Maps between the same complexes
therefore compare as plain matrices. Inclusions, quotients, vertex
maps and the connecting map of a pair (a relative cell goes to its
signed faces) all go through one chain-map routine, and the long exact
sequence check verifies exactness of the last three by rank counting.

A tower of complexes (or pairs), each inside the next, has bars from
one reduction of its last stage over a field (tower_bars): each cell is
born at the first stage holding it, the cells are ordered by birth and
then lexicographically, and the reducer runs on those bases, recording
which column took each pivot row. The bars give every stage's ranks and
the rank of every map between stages without any chain map.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

from .complexes import ComplexPair, Inclusion, SimplicialComplex, SimplicialVertexMap, chain_image

Simplex = tuple[int, ...]


# --------------------------------------------------------------------------
# coefficients


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 318665857834031151167461  # those bases decide every number below it


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; numbers the bases cannot decide are refused."""
    if p >= _PRIME_LIMIT:
        raise ValueError(f"modulus {p} is too large: prime fields need p < {_PRIME_LIMIT}")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@dataclass(frozen=True)
class Coefficients:
    """Coefficient choice: integers, rationals, or a prime field."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"{self.p!r} is not a prime modulus")
        elif self.p is not None:
            raise ValueError("a modulus only makes sense for prime fields")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def describe(self) -> str:
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")


INTEGERS = Coefficients("Z")
RATIONALS = Coefficients("Q")


def prime_field(p: int) -> Coefficients:
    return Coefficients("Fp", p)


def _field_modulus(coeffs: Coefficients, what: str) -> int | None:
    """The prime of a prime field, None for the rationals; Z is refused."""
    if not coeffs.is_field:
        raise ValueError(f"{what} needs field coefficients (rationals or a prime field)")
    return coeffs.p


# --------------------------------------------------------------------------
# integer matrices and Smith normal form


def _integer(x) -> int:
    """x as an int, refused unless it is exactly one."""
    n = int(x)
    if n != x:
        raise ValueError(f"matrix entry {x!r} is not an integer")
    return n


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(_integer(x) for x in row) for row in self.entries))
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
        elif cols is None:
            raise ValueError("an empty matrix needs an explicit column count")
        return cls(len(rows), cols, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class SNFResult:
    """Diagonal plus the unimodular transforms that produced it.

    left * original * right equals the diagonal matrix exactly, each
    diagonal entry is nonnegative, and each divides the next (trailing
    zeros included, since everything divides zero).
    """

    d: tuple[int, ...]
    left: IntegerMatrix
    right: IntegerMatrix


def _snf_core(a: list[list[int]], rows: int, cols: int) -> list[int]:
    """Diagonalise the top left rows x cols block of a in place.

    Pivot search and the divisibility test read that block only, but
    every operation acts on whole rows and columns of a, so blocks
    bordering it record the transforms.
    """
    size = min(rows, cols)
    for t in range(size):
        while True:
            least = min(((abs(x), i, j) for i in range(t, rows)
                         for j, x in enumerate(a[i][t:cols], t) if x), default=None)
            if least is None:
                return [a[i][i] for i in range(size)]
            _, i, j = least
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
            # A remainder left in row or column t is smaller than p, so the
            # next pass pivots on something smaller.
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:cols]):
                continue
            bad = next((i for i in range(t + 1, rows)
                        if any(x % p for x in a[i][t + 1:cols])), None)
            if bad is None:
                break
            # Row bad is zero in column t: p stays, and row t gets an entry p does not divide.
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return [a[i][i] for i in range(size)]


def smith_normal_form(m) -> SNFResult:
    """Smith normal form over the integers with unimodular transforms.

    Reduces the bordered matrix [[A, I], [I, 0]] in arbitrary precision:
    row operations build left in the top right block and column
    operations build right in the bottom left one.
    """
    mat = m if isinstance(m, IntegerMatrix) else IntegerMatrix.from_rows(m)
    r, c = mat.rows, mat.cols
    a = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(mat.entries)]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]
    d = _snf_core(a, r, c)
    return SNFResult(
        tuple(d),
        IntegerMatrix.from_rows([row[c:] for row in a[:r]], cols=r),
        IntegerMatrix.from_rows([row[:c] for row in a[r:]], cols=c),
    )


# --------------------------------------------------------------------------
# sparse column reduction


def _axpy(dst: dict, c, src: dict, p: int | None) -> None:
    """dst -= c * src in place, over Q when p is None, else modulo p."""
    for r, x in src.items():
        y = dst.get(r, 0) - c * x
        if p:
            y %= p
        if y:
            dst[r] = y
        else:
            del dst[r]  # c * x is nonzero, so r was present


def _clean(vec: dict, p: int | None) -> dict:
    """Reduce entries modulo p when given and drop the zeros."""
    if p:
        return {r: y for r, x in vec.items() if (y := x % p)}
    return {r: x for r, x in vec.items() if x}


@dataclass(frozen=True)
class _Reduction:
    """Outcome of one column reduction R = D V.

    pivots maps each pivot row to its reduced column, normalised to 1 at
    that row, and pivot_columns maps it to that column's index. When V
    is kept, records maps the same rows to the matching columns of V,
    and cycles lists (index, V column) for the columns that reduced to
    zero. stuck lists the reduced columns of an integral reduction whose
    lowest entry is not +1 or -1; they hold no pivot.
    """

    pivots: dict
    pivot_columns: dict
    records: dict | None
    cycles: list | None
    stuck: list


def _reduce(columns, p: int | None, clear=(), keep_v: bool = False,
            integral: bool = False) -> _Reduction:
    """Reduce sparse columns left to right until their lowest rows differ.

    Columns hold nonzero entries only. p None works over the rationals,
    otherwise modulo the prime p. Columns whose index is in clear are
    skipped: the caller knows they reduce to zero. integral pivots on +1
    and -1 only, so everything stays integral: a column whose lowest
    entry is any other integer goes to stuck, and the loop moves on.
    """
    pivots: dict = {}
    pivot_columns: dict = {}
    records: dict | None = {} if keep_v else None
    cycles: list | None = [] if keep_v else None
    stuck: list = []
    for j, col in enumerate(columns):
        if j in clear:
            continue
        col = {r: x % p for r, x in col.items()} if p else dict(col)
        v = {j: 1} if keep_v else None
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                break
            c = col[low]
            _axpy(col, c, piv, p)
            if keep_v:
                _axpy(v, c, records[low], p)
        if not col:
            if keep_v:
                cycles.append((j, v))
            continue
        a = col[low]
        if a != 1:
            if integral and a != -1:
                stuck.append(col)
                continue
            inv = pow(a, -1, p) if p else (-1 if a == -1 else 1 / Fraction(a))
            col = _clean({r: x * inv for r, x in col.items()}, p)
            if keep_v:
                v = _clean({r: x * inv for r, x in v.items()}, p)
        pivots[low] = col
        pivot_columns[low] = j
        if keep_v:
            records[low] = v
    return _Reduction(pivots, pivot_columns, records, cycles, stuck)


# --------------------------------------------------------------------------
# the chain complex of a complex or a pair over one ring


def _whole(obj) -> SimplicialComplex:
    """A complex itself, or the total of a pair: the complex that sets the cap."""
    return obj.total if isinstance(obj, ComplexPair) else obj


def _cells(obj) -> tuple[tuple[Simplex, ...], ...]:
    """The basis cells of each degree: a complex's simplices, or the
    simplices of a pair's total outside its subcomplex."""
    if isinstance(obj, ComplexPair):
        return tuple(tuple(s for s in layer if not obj.sub.has(s)) for layer in obj.total.simplices)
    return obj.simplices


class _Reducer:
    """The chain complex of one complex or pair over one ring, reduced once.

    bases[k] lists the degree-k basis simplices (for a pair, the total
    simplices outside the subcomplex); cap and truncated_dim come from
    the complex that sets the enumeration cap, the total of a pair. The
    boundary columns, the reductions, the Smith forms of the integer
    residuals and the homology bases are built on first use and kept, so
    homology, cohomology, induced maps and the long exact sequence all
    read one reduction of each boundary. The reducer holds no reference
    to its complex, so the store in _reducer can drop it with the
    complex.

    reduction(k) clears degree k with the pivots of reduction(k + 1), so
    asking from the top degree down reduces each boundary once; rank,
    basis and coords read the same reductions. An integral reducer works
    over Z: rank adds the Smith form of the residual that the stuck
    columns leave beside the unit pivots. bases, when given, reorders
    the cells of each degree, as tower_bars does by birth.
    """

    def __init__(self, obj, p: int | None, integral: bool, bases=None):
        whole = _whole(obj)
        self.bases = _cells(obj) if bases is None else bases
        self.relative_nonempty = whole is not obj and obj.sub.top_dim >= 0
        self.cap = whole.max_dim
        self.truncated_dim = None if whole.complete else whole.max_dim
        self.p = p
        self.integral = integral
        self._columns: dict[int, list[dict]] = {}
        self._reductions: dict[int, _Reduction] = {}
        self._residuals: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._by_low: dict[int, dict] = {}

    @property
    def top(self) -> int:
        return len(self.bases) - 1

    def cells(self, k: int) -> tuple[Simplex, ...]:
        return self.bases[k] if 0 <= k <= self.top else ()

    def columns(self, k: int) -> list[dict]:
        """Sparse columns of d_k; faces outside the lower basis drop out."""
        if k not in self._columns:
            index = {s: i for i, s in enumerate(self.cells(k - 1))}
            cols = []
            for s in self.cells(k):
                col = {}
                for drop in range(k + 1):
                    i = index.get(s[:drop] + s[drop + 1:])
                    if i is not None:
                        col[i] = -1 if drop % 2 else 1
                cols.append(col)
            self._columns[k] = cols
        return self._columns[k]

    def reduction(self, k: int, keep_v: bool = False) -> _Reduction:
        red = self._reductions.get(k)
        if red is None or (keep_v and red.records is None):
            clear = self.reduction(k + 1).pivots if k < self.top else ()
            red = _reduce(self.columns(k), self.p, clear, keep_v, self.integral)
            self._reductions[k] = red
        return red

    def rank(self, k: int) -> tuple[int, tuple[int, ...]]:
        """Rank of d_k and the torsion it leaves in degree k - 1."""
        red = self.reduction(k)
        if not red.stuck:
            return len(red.pivots), ()
        if k not in self._residuals:
            # Clear the pivot rows from the stuck columns in place, bottom
            # row first: a pivot column touches no row below its own. The
            # pivot rows then hold a unit triangular block and nothing else,
            # so the Smith form of d_k is an identity beside that of the
            # residual, which is kept as its rank and torsion.
            order = sorted(red.pivots, reverse=True)
            for col in red.stuck:
                for r in order:
                    c = col.get(r)
                    if c:
                        _axpy(col, c, red.pivots[r], None)
            rows = sorted({r for col in red.stuck for r in col})
            residual = [[col.get(r, 0) for col in red.stuck] for r in rows]
            diag = _snf_core(residual, len(rows), len(red.stuck))
            self._residuals[k] = sum(1 for x in diag if x), tuple(x for x in diag if x > 1)
        rank, torsion = self._residuals[k]
        return len(red.pivots) + rank, torsion

    def basis(self, k: int) -> list[dict]:
        """Representatives of a degree-k homology basis, over a field."""
        return [v for _, v in self.reduction(k, keep_v=True).cycles]

    def coords(self, k: int, vec: dict) -> tuple:
        """Coordinates in basis(k) of a degree-k cycle, modulo boundaries.

        Every reduced column of d_{k+1} and every representative is 1 at
        its lowest row, and those rows are distinct, so back-substitution
        on them reads the coordinates off.
        """
        by_low = self._by_low.get(k)
        if by_low is None:
            by_low = {low: (col, None) for low, col in self.reduction(k + 1).pivots.items()}
            for idx, (j, v) in enumerate(self.reduction(k, keep_v=True).cycles):
                by_low[j] = (v, idx)
            self._by_low[k] = by_low
        out = [_field_value(0, self.p)] * len(self.reduction(k).cycles)
        w = dict(vec)
        while w:
            low = max(w)
            hit = by_low.get(low)
            if hit is None:
                raise ValueError("vector is not a cycle modulo boundaries")
            basis_vec, idx = hit
            c = w[low]
            _axpy(w, c, basis_vec, self.p)
            if idx is not None:
                out[idx] = _field_value(c, self.p)
        return tuple(out)


_REDUCERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _reducer(obj, p: int | None, integral: bool = False) -> _Reducer:
    """The one reducer of a complex or pair over Z (integral), Q (p None)
    or F_p, built on first use and dropped with the object.

    Equal objects share their reducer, since the bases and the boundary
    columns depend only on what the objects compare by.
    """
    if not isinstance(obj, (SimplicialComplex, ComplexPair)):
        raise TypeError(f"expected a complex or a pair, got {type(obj).__name__}")
    rings = _REDUCERS.setdefault(obj, {})
    if (p, integral) not in rings:
        rings[p, integral] = _Reducer(obj, p, integral)
    return rings[p, integral]


# --------------------------------------------------------------------------
# homology and cohomology


@dataclass(frozen=True)
class HomologyResult:
    """Per-dimension betti numbers and torsion, dimensions 0..max_dim.

    torsion[k] lists the nontrivial invariant factors of the degree-k
    group in divisibility order (field coefficients never have any).
    truncated_dim names the top dimension when enumeration was capped
    there, meaning that group is only an upper bound.
    """

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    generators: tuple | None = None
    truncated_dim: int | None = None


def _field_value(x, p: int | None):
    """A field element as reported: residues stay ints, rationals are Fractions."""
    return x if p else Fraction(x)


def homology(obj, coeffs: Coefficients = INTEGERS, reduced: bool = False,
             with_generators: bool = False) -> HomologyResult:
    """Homology of a complex or a pair, exact in the chosen coefficients.

    Results run from dimension 0 to the enumeration cap; ask for a cap
    of at least k+1 when H_k matters, since the top group cannot see
    boundaries from above the cap. The reduced flag lowers the rank of
    H_0 by one (no effect on a pair with a nonempty subcomplex).
    """
    red = _reducer(obj, coeffs.p, integral=not coeffs.is_field)
    generators = None
    if with_generators:
        _field_modulus(coeffs, "generator extraction")
        # Bases first and from the top down, so the ranks below reuse their
        # reductions and every degree is reduced once.
        generators = tuple(
            tuple(tuple((red.cells(k)[i], _field_value(c, red.p)) for i, c in sorted(rep.items()))
                  for rep in red.basis(k))
            for k in range(red.cap, -1, -1)
        )[::-1]

    ranks = [0] * (red.cap + 2)
    torsion: list[tuple[int, ...]] = [()] * (red.cap + 1)
    for k in range(red.top, 0, -1):
        ranks[k], torsion[k - 1] = red.rank(k)

    betti = [len(red.cells(k)) - ranks[k] - ranks[k + 1] for k in range(red.cap + 1)]
    if reduced and red.cells(0) and not red.relative_nonempty:
        betti[0] -= 1
    return HomologyResult(tuple(betti), tuple(torsion), generators=generators,
                          truncated_dim=red.truncated_dim)


def cohomology(obj, coeffs: Coefficients) -> HomologyResult:
    """Cohomology over a field, reducing the coboundary columns."""
    red = _reducer(obj, _field_modulus(coeffs, "cohomology"))
    ranks = [0] * (red.cap + 2)
    cleared: dict = {}
    for k in range(1, red.top + 1):
        co = [{} for _ in red.cells(k - 1)]
        for j, col in enumerate(red.columns(k)):
            for i, x in col.items():
                co[i][j] = x
        cleared = _reduce(co, red.p, cleared).pivots
        ranks[k] = len(cleared)
    betti = tuple(len(red.cells(k)) - ranks[k] - ranks[k + 1] for k in range(red.cap + 1))
    return HomologyResult(betti, tuple(() for _ in range(red.cap + 1)),
                          truncated_dim=red.truncated_dim)


# --------------------------------------------------------------------------
# bars of a tower


def _births(stages, cap: int) -> dict:
    """The index of the first stage holding each cell, for stages given as
    cell layers up to cap; raises unless each stage holds the one before."""
    birth: dict = {}
    held = [set()] * (cap + 1)
    for t, layers in enumerate(stages):
        cells = [set(layer) for layer in layers] + [set()] * (cap + 1 - len(layers))
        if not all(before <= now for before, now in zip(held, cells)):
            raise ValueError(f"stage {t} of the tower does not contain stage {t - 1}")
        for before, now in zip(held, cells):
            birth.update(dict.fromkeys(now - before, t))
        held = cells
    return birth


def tower_bars(tower, coeffs: Coefficients) -> tuple[tuple[tuple[int, int | None], ...], ...]:
    """Persistence bars of a tower of complexes or pairs over a field.

    tower lists complexes, or pairs, enumerated to one cap, each inside
    the next; of a pair only the cells outside its subcomplex count. A
    cell's birth is the index of the first stage that holds it. The cells
    of the last stage are ordered by birth, then lexicographically, and
    reduced once, top degree first with clearing, so each pivot pairs the
    cell that bounds a class with the cell that gave it (Edelsbrunner and
    Harer, Computational Topology, ch. VII). bars[k] lists (birth, death)
    for the degree-k classes, k from 0 to the cap; death is None for a
    class alive at the last stage, and a class born and bounded at one
    stage gives no bar. The degree-k rank at stage t is the number of
    bars with birth <= t < death, and the map from stage s to stage t has
    rank the number with birth <= s and death > t. Both are exact up to
    the stage's reliable_top.
    """
    p = _field_modulus(coeffs, "tower bars")
    last = tower[-1]
    cap = _whole(last).max_dim
    if any(_whole(obj).max_dim != cap for obj in tower):
        raise ValueError("the stages of a tower must share one enumeration cap")
    if any(isinstance(obj, ComplexPair) for obj in tower):
        _births([obj.sub.simplices if isinstance(obj, ComplexPair) else () for obj in tower], cap)
    layers = _cells(last)
    birth = _births([_cells(obj) for obj in tower[:-1]] + [layers], cap)
    bases = tuple(tuple(sorted(layer, key=birth.__getitem__)) for layer in layers)
    red = _Reducer(last, p, False, bases)
    bars: list = [()] * (cap + 1)
    deaths: dict = {}
    for k in range(red.top, -1, -1):
        pivot_columns = red.reduction(k).pivot_columns
        born = [birth[s] for s in bases[k]]
        negative = set(pivot_columns.values())
        bars[k] = tuple((b, deaths.get(i)) for i, b in enumerate(born)
                        if i not in negative and deaths.get(i) != b)
        deaths = {row: born[j] for row, j in pivot_columns.items()}
    return tuple(bars)


# --------------------------------------------------------------------------
# induced maps


def _dot(xs, ys, p: int | None):
    acc = sum((x * y for x, y in zip(xs, ys)), _field_value(0, p))
    return acc % p if p else acc


def _transpose(cols, height: int) -> tuple[tuple, ...]:
    return tuple(tuple(col[i] for col in cols) for i in range(height))


def _mat_rank(rows, p: int | None) -> int:
    width = len(rows[0]) if rows else 0
    cols = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(width)]
    return len(_reduce(cols, p).pivots)


def _mat_is_zero(rows) -> bool:
    return all(x == 0 for row in rows for x in row)


def _mat_product(a, b, cols: int, p: int | None):
    """a times b, where b has cols columns; either may have no rows."""
    return tuple(tuple(_dot(row, [brow[j] for brow in b], p) for j in range(cols)) for row in a)


@dataclass(frozen=True)
class InducedMapResult:
    """Per-dimension homology matrices of a chain map over a field.

    matrices[k] has codomain_ranks[k] rows and domain_ranks[k] columns,
    relative to the deterministic bases both sides were given, so maps
    between the same complexes compare by plain equality.
    """

    coeffs: Coefficients
    matrices: tuple[tuple[tuple, ...], ...]
    domain_ranks: tuple[int, ...]
    codomain_ranks: tuple[int, ...]

    @property
    def top(self) -> int:
        return len(self.matrices) - 1

    def compose(self, inner: "InducedMapResult") -> "InducedMapResult":
        """Matrices of self after inner, dimension by dimension."""
        if self.coeffs != inner.coeffs:
            raise ValueError("cannot compose maps over different coefficients")
        top = min(self.top, inner.top)
        if inner.codomain_ranks[: top + 1] != self.domain_ranks[: top + 1]:
            raise ValueError("composition shape mismatch")
        return InducedMapResult(
            self.coeffs,
            tuple(_mat_product(self.matrices[k], inner.matrices[k], inner.domain_ranks[k],
                               self.coeffs.p)
                  for k in range(top + 1)),
            inner.domain_ranks[: top + 1],
            self.codomain_ranks[: top + 1],
        )

    def is_identity(self) -> bool:
        for k in range(self.top + 1):
            if self.domain_ranks[k] != self.codomain_ranks[k]:
                return False
            m = self.matrices[k]
            if any(m[i][j] != (1 if i == j else 0) for i in range(len(m)) for j in range(len(m[i]))):
                return False
        return True

    def rank(self, k: int) -> int:
        return _mat_rank(self.matrices[k], self.coeffs.p)

    def is_isomorphism_at(self, k: int) -> bool:
        return (
            self.domain_ranks[k] == self.codomain_ranks[k]
            and self.rank(k) == self.domain_ranks[k]
        )


def _identity_image(s):
    return ((s, 1),)


def _quotient_image(sub: SimplicialComplex):
    return lambda s: () if sub.has(s) else ((s, 1),)


def _vertex_image(assignment):
    def image(s):
        sign, target = chain_image(assignment, s)
        return ((target, sign),) if sign else ()
    return image


def _signed_faces(s: Simplex):
    """(face, sign) for each face of s; _Reducer.columns inlines this rule."""
    return [(s[:drop] + s[drop + 1:], -1 if drop % 2 else 1) for drop in range(len(s))]


def _chain_map(dom: _Reducer, cod: _Reducer, image, k: int, j: int):
    """Homology matrix H_k(dom) -> H_j(cod) of a cellwise chain map.

    image(s) lists (simplex, coefficient) for one k-cell of the domain.
    Each representative's image is summed by simplex and cleaned before
    the lookup, so cells that cancel need not be codomain cells; every
    cell that survives must be a degree-j basis cell of the codomain.
    """
    h = len(cod.basis(j))
    cod_index = {s: i for i, s in enumerate(cod.cells(j))}
    dom_cells = dom.cells(k)
    cols = []
    for rep in dom.basis(k):
        w: dict = {}
        for i, c in rep.items():
            for t, x in image(dom_cells[i]):
                w[t] = w.get(t, 0) + c * x
        vec = {}
        for t, x in _clean(w, dom.p).items():
            i = cod_index.get(t)
            if i is None:
                raise ValueError(f"chain image {t} is not a codomain basis cell")
            vec[i] = x
        cols.append(cod.coords(j, vec))
    return _transpose(cols, h)


def induced_map(f, coeffs: Coefficients, top_dim: int | None = None) -> InducedMapResult:
    """Homology maps of a simplicial vertex map, a pair's quotient, or an inclusion.

    Passing a ComplexPair gives the map from the total complex's
    homology to the relative homology; passing an Inclusion gives the
    map a complex (or pair) induces into a larger one. Dimensions run to
    top_dim, which may not exceed the highest dimension both sides
    compute exactly, its default.
    """
    p = _field_modulus(coeffs, "induced maps")
    if isinstance(f, SimplicialVertexMap):
        dom, cod = f.domain, f.codomain
        image = _vertex_image(f.assignment)
    elif isinstance(f, ComplexPair):
        dom, cod = f.total, f
        image = _quotient_image(f.sub)
    elif isinstance(f, Inclusion):
        dom, cod = f.domain, f.codomain
        image = _quotient_image(cod.sub) if isinstance(cod, ComplexPair) else _identity_image
    else:
        raise TypeError("induced_map expects a SimplicialVertexMap, a ComplexPair or an Inclusion")
    reliable = min(dom.reliable_top, cod.reliable_top)
    top = reliable if top_dim is None else top_dim
    if top < 0:
        raise ValueError("no dimension is reliably computable at this cap")
    if top > reliable:
        raise ValueError(f"top_dim {top} is above {reliable}, the highest dimension "
                         "both sides compute exactly at this cap")
    dom_red, cod_red = _reducer(dom, p), _reducer(cod, p)
    # Top degree first, so every boundary is reduced once (see _Reducer).
    mats = [_chain_map(dom_red, cod_red, image, k, k) for k in range(top, -1, -1)]
    return InducedMapResult(
        coeffs,
        tuple(reversed(mats)),
        tuple(len(dom_red.basis(k)) for k in range(top + 1)),
        tuple(len(cod_red.basis(k)) for k in range(top + 1)),
    )


# --------------------------------------------------------------------------
# long exact sequence of a pair


@dataclass(frozen=True)
class LESRow:
    dim: int
    h_sub: int
    h_total: int
    h_rel: int
    rank_inclusion: int
    rank_quotient: int
    rank_connecting: int


@dataclass(frozen=True)
class LESReport:
    exact: bool
    rows: tuple[LESRow, ...]
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.exact


def check_les_exactness(p: ComplexPair, coeffs: Coefficients, top_dim: int) -> LESReport:
    """Verify exactness of the pair's long sequence by rank counting.

    Requires complexes enumerated at least one dimension above top_dim.
    At every homology node with both neighbors available, the check is
    that consecutive maps compose to zero and their ranks fill the
    middle dimension exactly.
    """
    mod = _field_modulus(coeffs, "the long exact sequence check")
    if top_dim < 0:
        raise ValueError("top_dim must be nonnegative")
    if p.total.max_dim < top_dim + 1:
        raise ValueError("enumerate the pair to top_dim + 1 before checking exactness")

    red_total = _reducer(p.total, mod)
    red_sub = _reducer(p.sub, mod)
    red_rel = _reducer(p, mod)

    # Top degree first, so every boundary is reduced once (see _Reducer).
    down = range(top_dim, -1, -1)
    incl = {k: _chain_map(red_sub, red_total, _identity_image, k, k) for k in down}
    quot = {k: _chain_map(red_total, red_rel, _quotient_image(p.sub), k, k) for k in down}
    # Connecting map: lift a relative cycle, take its boundary in the
    # total complex, and read it in the subcomplex.
    conn = {k: _chain_map(red_rel, red_sub, _signed_faces, k, k - 1) for k in down if k >= 1}

    rows = []
    failures = []
    for k in range(top_dim + 1):
        h_sub = len(red_sub.basis(k))
        h_total = len(red_total.basis(k))
        h_rel = len(red_rel.basis(k))
        ri = _mat_rank(incl[k], mod)
        rq = _mat_rank(quot[k], mod)
        rc = _mat_rank(conn[k], mod) if k >= 1 else 0
        rows.append(LESRow(k, h_sub, h_total, h_rel, ri, rq, rc))

        if not _mat_is_zero(_mat_product(quot[k], incl[k], h_sub, mod)):
            failures.append(f"dim {k}: quotient after inclusion is nonzero")
        if ri + rq != h_total:
            failures.append(f"dim {k}: ranks {ri}+{rq} do not fill H_{k}(total)={h_total}")
        if k >= 1 and not _mat_is_zero(_mat_product(conn[k], quot[k], h_total, mod)):
            failures.append(f"dim {k}: connecting after quotient is nonzero")
        # At k = 0 the sequence exits into zero, so the quotient must fill
        # the relative group on its own (rc is zero there).
        if rq + rc != h_rel:
            failures.append(f"dim {k}: ranks {rq}+{rc} do not fill H_{k}(rel)={h_rel}")
        if k < top_dim:
            up = conn[k + 1]
            if not _mat_is_zero(_mat_product(incl[k], up, len(red_rel.basis(k + 1)), mod)):
                failures.append(f"dim {k}: inclusion after connecting is nonzero")
            ru = _mat_rank(up, mod)
            if ru + ri != h_sub:
                failures.append(f"dim {k}: ranks {ru}+{ri} do not fill H_{k}(sub)={h_sub}")

    return LESReport(not failures, tuple(rows), tuple(failures))
