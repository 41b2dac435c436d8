"""Rectangular matrices, pencil specifications, and rank-one geometry.

Provides the shifted-diagonal basis matrices, one fraction-free (Bareiss)
elimination on integer-scaled rows for every exact rank and determinant,
corank computation in exact and floating domains, maximal minors in
lexicographic column-subset order and their coefficient matrix in the
monomial basis, the chart map that appends a dependent last row, and an exact
transversality certificate (det Delta_0 != 0) for candidate subspaces of
every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .errors import UsageError
from .polycore import (
    GAUSSIAN,
    RATIONAL,
    Domain,
    DOMAINS,
    GaussianRational,
    MultiPoly,
    PolyMatrix,
    domain_of,
    join_domains,
    sym_det,
)

FLOAT_RANK_RTOL = 1e-8


class RectMatrix:
    """Dense matrix over one coefficient domain.  Immutable, bounds-checked."""

    __slots__ = ("rows", "cols", "domain", "entries")

    def __init__(self, entries, domain: Domain = RATIONAL):
        entries = tuple(
            tuple(domain.coerce(v) for v in row) for row in entries
        )
        if not entries or not entries[0]:
            raise UsageError("RectMatrix needs positive dimensions")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise UsageError("ragged matrix rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RectMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int, domain: Domain = RATIONAL) -> "RectMatrix":
        return cls([[0] * cols for _ in range(rows)], domain)

    def entry(self, i: int, j: int):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise UsageError(f"entry ({i},{j}) out of bounds for {self.rows}x{self.cols}")
        return self.entries[i][j]

    def submatrix(self, row_indices, col_indices) -> "RectMatrix":
        return RectMatrix(
            [[self.entry(i, j) for j in col_indices] for i in row_indices],
            self.domain,
        )

    def flatten(self):
        return tuple(v for row in self.entries for v in row)

    def to_domain(self, domain: Domain) -> "RectMatrix":
        if domain.tag == self.domain.tag:
            return self
        return RectMatrix(self.entries, domain)

    def __add__(self, other):
        if not isinstance(other, RectMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise UsageError("matrix dimensions differ")
        domain = join_domains(self.domain, other.domain)
        a, b = self.to_domain(domain), other.to_domain(domain)
        return RectMatrix(
            [
                [a.entries[i][j] + b.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            domain,
        )

    def scale(self, c) -> "RectMatrix":
        domain = domain_of((c,), self.domain)
        c = domain.coerce(c)
        return RectMatrix(
            [[c * domain.coerce(v) for v in row] for row in self.entries], domain
        )

    def __eq__(self, other):
        if not isinstance(other, RectMatrix):
            return NotImplemented
        return (
            (self.rows, self.cols) == (other.rows, other.cols)
            and self.domain.tag == other.domain.tag
            and all(
                self.domain.eq(self.entries[i][j], other.entries[i][j])
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def to_numpy(self) -> np.ndarray:
        return np.array(
            [[complex(v) for v in row] for row in self.entries], dtype=complex
        )

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.to_numpy()))

    def rank(self) -> int:
        if self.domain.is_exact:
            return row_echelon([list(row) for row in self.entries])[0]
        a = self.to_numpy()
        s = np.linalg.svd(a, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > FLOAT_RANK_RTOL * s[0]))

    def det(self):
        if self.rows != self.cols:
            raise UsageError("determinant of a non-square matrix")
        if self.domain.is_exact:
            return row_echelon([list(row) for row in self.entries])[1]
        return complex(np.linalg.det(self.to_numpy()))

    def __repr__(self):
        return f"RectMatrix({self.rows}x{self.cols}, {self.domain.tag})"


def _integer_row(row, gaussian: bool):
    """``(scale, row * scale)``: the row cleared of denominators by their lcm,
    as ints, or as Gaussian rationals with integer parts."""
    if not gaussian:
        scale = math.lcm(*(v.denominator for v in row))
        return scale, [v.numerator * (scale // v.denominator) for v in row]
    row = [GAUSSIAN.coerce(v) for v in row]
    scale = math.lcm(*(d for v in row for d in (v.re.denominator, v.im.denominator)))
    return scale, [
        GaussianRational(
            v.re.numerator * (scale // v.re.denominator),
            v.im.numerator * (scale // v.im.denominator),
        )
        for v in row
    ]


def row_echelon(rows):
    """Fraction-free (Bareiss) forward elimination over an exact domain.

    Each row is first scaled to integers (Gaussian integers for Gaussian
    rows) by the lcm of its denominators.  Each column takes the first row at
    or below the current one with a nonzero entry as its pivot and clears the
    entries below it; every division by the previous pivot is exact, so no
    entry leaves the integers.  There is no back substitution.  Returns
    ``(rank, determinant, rows)``, with ``rows`` replaced in place by the
    scaled rows: the first ``rank`` are the echelon rows, each a nonzero
    multiple of the row field elimination would give.  ``determinant`` is 0
    when the rank is below the number of rows, and otherwise the sign of the
    row swaps times the last pivot over the product of the row scales: the
    determinant, for a square matrix.
    """
    gaussian = domain_of(chain.from_iterable(rows)).tag == "gaussian"
    scale = 1
    for i, row in enumerate(rows):
        s, rows[i] = _integer_row(row, gaussian)
        scale *= s
    ncols = len(rows[0]) if rows else 0
    rank = 0
    sign = 1
    prev = GaussianRational(1) if gaussian else 1
    for c in range(ncols):
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank][c:]
        pv = top[0]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f == 0 and pv == prev:
                continue
            if gaussian:
                row[c:] = [(pv * a - f * b) / prev for a, b in zip(row[c:], top)]
            else:
                row[c:] = [(pv * a - f * b) // prev for a, b in zip(row[c:], top)]
        prev = pv
        rank += 1
    if rank < len(rows):
        sign = 0
    return rank, sign * prev / scale if gaussian else Fraction(sign * prev, scale), rows


# -- numeric pencil members ------------------------------------------------------


def member_array(base: np.ndarray, basis, lambdas) -> np.ndarray:
    """The numeric pencil member base + sum(lambda_i * L_i) as a complex array;
    a batch of parameter tuples (S, k) gives a batch of members (S, m, n)."""
    lambdas = np.asarray(lambdas, dtype=complex)
    return base + (lambdas[..., None, None] * np.asarray(basis)).sum(axis=-3)


@lru_cache(maxsize=None)
def _column_subsets(m: int, n: int) -> np.ndarray:
    return np.array(list(combinations(range(n), m)), dtype=np.intp)


def minor_residuals(members: np.ndarray) -> np.ndarray:
    """Largest modulus of the maximal minors of each numeric m x n member of a
    batch (S, m, n), over max(1, ||M||_F)^m."""
    m, n = members.shape[-2:]
    minors = np.linalg.det(members[:, :, _column_subsets(m, n)].transpose(0, 2, 1, 3))
    norms = np.maximum(1.0, np.linalg.norm(members, axis=(1, 2))) ** m
    return np.abs(minors).max(axis=1) / norms


def minor_residual(member: np.ndarray) -> float:
    """:func:`minor_residuals` of one member (column subsets in
    :func:`maximal_minors` order)."""
    return float(minor_residuals(member[None])[0])


def normalize_at_largest(vector) -> tuple:
    """The vector scaled so that its entry of largest modulus is 1."""
    v = np.asarray(vector, dtype=complex)
    return tuple(complex(z) for z in v / v[int(np.argmax(np.abs(v)))])


# -- diagonal subspace ---------------------------------------------------------


def unit_diagonal_matrix(m: int, n: int, s: int, domain: Domain = RATIONAL) -> RectMatrix:
    """The s-th shifted-diagonal matrix: ones where column - row = s - 1."""
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    if not 1 <= s <= n - m + 1:
        raise UsageError(f"diagonal index {s} outside 1..{n - m + 1}")
    return RectMatrix(
        [[1 if j - i == s - 1 else 0 for j in range(n)] for i in range(m)], domain
    )


def standard_diagonal_basis(m: int, n: int, domain: Domain = RATIONAL):
    """Basis J_1..J_{n-m+1} of the standard diagonal subspace."""
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    return [unit_diagonal_matrix(m, n, s, domain) for s in range(1, n - m + 2)]


def corank(M: RectMatrix) -> int:
    """Row-rank deficiency m - rank(M)."""
    return M.rows - M.rank()


def linear_forms(grids, variables, domain: Domain, constant=None) -> PolyMatrix:
    """The matrix of affine forms ``constant + sum_i variables[i] * grids[i]``
    over ``domain``: entry (r, c) is ``constant[r][c] + sum_i
    variables[i] * grids[i][r][c]``.

    ``grids`` and ``constant`` are nested lists of scalars of one shape; there
    may be fewer grids than variables, and ``constant=None`` means no constant
    terms.  Zero coefficients are dropped.
    """
    variables = tuple(variables)
    nvars = len(variables)
    if len(grids) > nvars:
        raise UsageError(f"{len(grids)} grids for {nvars} variables")
    exps = [tuple(int(s == t) for t in range(nvars)) for s in range(len(grids))]
    layers = list(grids)
    if constant is not None:
        exps, layers = [(0,) * nvars, *exps], [constant, *layers]
    if not layers:
        raise UsageError("linear_forms needs a grid or a constant")
    # the term dict of every entry, filled layer by layer
    terms = [[{} for _ in row] for row in layers[0]]
    for exp, grid in zip(exps, layers):
        for term_row, grid_row in zip(terms, grid):
            for t, v in zip(term_row, grid_row):
                if v:
                    t[exp] = v
    # MultiPoly is immutable, so every zero entry can be one object
    zero = MultiPoly.zero(variables, domain)
    return PolyMatrix(
        [[MultiPoly(variables, t, domain) if t else zero for t in row] for row in terms]
    )


def maximal_minors(M):
    """All maximal minors, column subsets in lexicographic order, from one
    Laplace expansion (:func:`sym_det` with ``columns``).

    Accepts a scalar :class:`RectMatrix` (returns scalars: its entries are
    expanded as constant polynomials, so exact domains stay exact) or a
    symbolic :class:`PolyMatrix` (returns polynomials).
    """
    m, n = M.rows, M.cols
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    subsets = combinations(range(n), m)
    if isinstance(M, PolyMatrix):
        return sym_det(M, columns=subsets)
    constant = linear_forms([], (), M.domain, M.entries)
    zero = M.domain.zero()
    return [p.terms.get((), zero) for p in sym_det(constant, columns=subsets)]


def monomial_exponents(i: int, d: int):
    """Exponent vectors of degree-d monomials in i variables, graded-lex descending."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, i)
    return out


def minor_coefficient_matrix(M: PolyMatrix) -> RectMatrix:
    """Coefficients of the maximal minors of a d x (i+d-1) matrix of linear
    forms in i variables, in the degree-d monomial basis.

    Row r belongs to ``monomial_exponents(i, d)[r]`` and column S to the S-th
    column subset of :func:`maximal_minors`; both number C(i+d-1, d), so the
    matrix is square.  It is invertible exactly when the minors span the
    degree-d forms.
    """
    d, i = M.rows, len(M.variables)
    if M.cols != i + d - 1:
        raise UsageError(f"need a d x (i+d-1) matrix in i variables, got {d}x{M.cols} in {i}")
    index = {exp: r for r, exp in enumerate(monomial_exponents(i, d))}
    grid = [[M.domain.zero()] * len(index) for _ in index]
    for col, poly in enumerate(maximal_minors(M)):
        for exp, coeff in poly.terms.items():
            grid[index[exp]][col] = coeff
    return RectMatrix(grid, M.domain)


# -- resolution chart ------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionPoint:
    """Chart point: an (m-1) x n matrix plus m-1 kernel coefficients."""

    ahat: RectMatrix
    kernel_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "kernel_coeffs", tuple(self.kernel_coeffs))
        if len(self.kernel_coeffs) != self.ahat.rows:
            raise UsageError(
                f"expected {self.ahat.rows} kernel coefficients, "
                f"got {len(self.kernel_coeffs)}"
            )


def resolution_nu(p: ResolutionPoint) -> RectMatrix:
    """Append the dependent last row: minus the kernel combination of the rows.

    The result always has the left kernel vector (k_1, ..., k_{m-1}, 1).
    """
    domain = domain_of(p.kernel_coeffs, p.ahat.domain)
    coeffs = [domain.coerce(c) for c in p.kernel_coeffs]
    ahat = p.ahat.to_domain(domain)
    last = [
        -sum(
            (coeffs[i] * ahat.entries[i][j] for i in range(ahat.rows)),
            start=domain.zero(),
        )
        for j in range(ahat.cols)
    ]
    return RectMatrix(list(ahat.entries) + [last], domain)


# -- pencils ---------------------------------------------------------------------


@dataclass(frozen=True)
class PencilSpec:
    """Base matrix plus an ordered, independent basis of the shift subspace."""

    base: RectMatrix
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        m, n = self.base.rows, self.base.cols
        if m > n:
            raise UsageError(f"pencil base must have m <= n, got {m}x{n}")
        if len(self.basis) != n - m + 1:
            raise UsageError(
                f"expected {n - m + 1} basis matrices, got {len(self.basis)}"
            )
        for L in self.basis:
            if (L.rows, L.cols) != (m, n):
                raise UsageError("basis matrices must match the base dimensions")
        _require_independent(self.basis)

    @property
    def m(self) -> int:
        return self.base.rows

    @property
    def n(self) -> int:
        return self.base.cols

    @property
    def k(self) -> int:
        return self.n - self.m + 1

    def member(self, lambdas) -> RectMatrix:
        """The pencil member base + sum(lambda_i * L_i)."""
        lambdas = tuple(lambdas)
        if len(lambdas) != self.k:
            raise UsageError(f"expected {self.k} parameters, got {len(lambdas)}")
        out = self.base
        for lam, L in zip(lambdas, self.basis):
            out = out + L.scale(lam)
        return out

    def expected_count(self) -> int:
        return math.comb(self.n, self.m - 1)


def _require_independent(basis):
    flat = RectMatrix([L.flatten() for L in basis], join_domains(*(L.domain for L in basis)))
    if flat.rank() != len(basis):
        raise UsageError("basis matrices are linearly dependent")


# -- transversality ---------------------------------------------------------------


def kappa_rows(grids, variables, domain: Domain):
    """The rows kappa^T L, one per m x n entry grid L, as n linear forms each
    over ``domain``, with kappa the first m of ``variables``: the
    :func:`linear_forms` whose r-th grid stacks row r of every L."""
    m = len(grids[0])
    return linear_forms([[g[r] for g in grids] for r in range(m)], variables, domain).entries


def _as_exact(value):
    # floats are dyadic rationals, so rationalizing them is exact and deterministic
    if isinstance(value, (Fraction, GaussianRational)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, complex):
        return GaussianRational(Fraction(value.real), Fraction(value.imag))
    raise UsageError(f"cannot rationalize {value!r}")


def transversality_check(basis) -> str:
    """Certify whether the span of ``basis`` meets the rank-deficient variety
    only at zero: ``"transversal"`` or ``"non-transversal"``, exactly.

    Entries are rationalized exactly.  With kappa = (k1, ..., km), the
    subspace is transversal iff the coefficient matrix Delta_0 of the maximal
    minors of the k x n matrix with rows kappa^T L_1, ..., kappa^T L_k is
    invertible (:func:`minor_coefficient_matrix`; det Delta_0 is a constant
    times the multigraded resultant of the n bilinear forms).  The
    determinant comes from the fraction-free elimination of
    :func:`row_echelon`, for every number of basis matrices.
    """
    if not basis:
        raise UsageError("empty basis")
    m, n = basis[0].rows, basis[0].cols
    if any((L.rows, L.cols) != (m, n) for L in basis):
        raise UsageError("basis matrices must all have the shape of the first")
    _require_independent(basis)
    k = len(basis)
    if k != n - m + 1:
        raise UsageError(f"expected {n - m + 1} basis matrices for {m}x{n}, got {k}")

    kvars = tuple(f"k{r + 1}" for r in range(m))
    exact = [[[_as_exact(v) for v in row] for row in L.entries] for L in basis]
    domain = domain_of(v for grid in exact for row in grid for v in row)
    rows = PolyMatrix(kappa_rows(exact, kvars, domain))
    return "transversal" if minor_coefficient_matrix(rows).det() != 0 else "non-transversal"


# -- JSON schema -------------------------------------------------------------------


def scalar_to_json(value):
    """The JSON form of one scalar in the domain :func:`domain_of` gives it:
    rational ``"p/q"``, Gaussian ``{"re": "p/q", "im": "p/q"}``, or a complex
    ``[re, im]`` float pair."""
    tag = domain_of((value,)).tag
    if tag == "rational":
        return str(value)
    if tag == "gaussian":
        return {"re": str(value.re), "im": str(value.im)}
    z = complex(value)
    return [z.real, z.imag]


def _json_number(part, kind):
    """``kind(part)`` (``Fraction`` or ``float``) for one number of a JSON
    scalar; booleans, malformed or non-finite numbers and zero denominators
    raise :class:`UsageError`."""
    # JSON true/false load as bool, a subclass of int
    if isinstance(part, bool):
        raise UsageError(f"booleans are not numbers, got {part!r}")
    try:
        x = kind(part)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed number {part!r}: {exc}") from None
    if kind is float and not math.isfinite(x):
        raise UsageError(f"non-finite number {part!r}")
    return x


def scalar_from_json(value, domain: Domain):
    """Read one JSON scalar into ``domain``.

    Rational: a string ``"p/q"`` or an integer.  Gaussian: ``{"re": "p/q",
    "im": "p/q"}`` (a missing part is 0) or a rational.  Complex: an
    ``[re, im]`` pair or one real number, all finite.  Anything else raises
    :class:`UsageError`.
    """
    if domain.tag == "complex":
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(_json_number(value[0], float), _json_number(value[1], float))
        if isinstance(value, (int, float)):
            return complex(_json_number(value, float))
    elif domain.tag == "gaussian" and isinstance(value, dict) and set(value) <= {"re", "im"}:
        return GaussianRational(
            _json_number(value.get("re", "0"), Fraction), _json_number(value.get("im", "0"), Fraction)
        )
    elif isinstance(value, (str, int)):
        q = _json_number(value, Fraction)
        return q if domain.tag == "rational" else GaussianRational(q)
    form = {
        "rational": "strings like 'p/q'",
        "gaussian": "{'re': 'p/q', 'im': 'p/q'}",
        "complex": "[re, im] pairs",
    }[domain.tag]
    raise UsageError(f"{domain.tag} entries must be {form}, got {value!r}")


def matrix_to_json(M: RectMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "domain": M.domain.tag,
        "entries": [[scalar_to_json(v) for v in row] for row in M.entries],
    }


def matrix_from_json(obj: dict) -> RectMatrix:
    try:
        rows, cols, tag, entries = obj["rows"], obj["cols"], obj["domain"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed matrix object: {exc}") from exc
    # JSON true/false load as bool, a subclass of int
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (rows, cols)):
        raise UsageError(f"matrix rows and cols must be integers, got {rows!r} and {cols!r}")
    if not isinstance(tag, str) or tag not in DOMAINS:
        raise UsageError(f"unknown domain {tag!r}")
    domain = DOMAINS[tag]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise UsageError(f"matrix entries must be a list of rows, got {entries!r}")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise UsageError("matrix entries do not match declared dimensions")
    return RectMatrix(
        [[scalar_from_json(v, domain) for v in row] for row in entries], domain
    )
