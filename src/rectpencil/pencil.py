"""Rectangular matrices, pencil specifications, and rank-one geometry.

Provides the shifted-diagonal basis matrices, corank computation in exact and
floating domains, maximal minors in lexicographic column-subset order, the
chart map that appends a dependent last row, and transversality certificates
for candidate subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import UsageError
from .polycore import (
    COMPLEX,
    GAUSSIAN,
    RATIONAL,
    Domain,
    DOMAINS,
    GaussianRational,
    MultiPoly,
    PolyMatrix,
    join_domains,
    sym_det,
)

FLOAT_RANK_RTOL = 1e-8
# probabilistic transversality (three or more basis matrices): random affine
# slices, Newton starts per slice, and the relative minor residual of a find
TRANSVERSALITY_SLICES = 5
TRANSVERSALITY_STARTS = 10
TRANSVERSALITY_TOL = 1e-8


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

    def row(self, i: int):
        if not 0 <= i < self.rows:
            raise UsageError(f"row {i} out of bounds")
        return self.entries[i]

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
        domain = self.domain
        if isinstance(c, (float, complex)):
            domain = COMPLEX
        elif isinstance(c, GaussianRational) and domain.tag == "rational":
            domain = GAUSSIAN
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
            rank, product, _ = row_echelon([list(row) for row in self.entries])
            return product if rank == self.rows else self.domain.zero()
        return complex(np.linalg.det(self.to_numpy()))

    def __repr__(self):
        return f"RectMatrix({self.rows}x{self.cols}, {self.domain.tag})"


def row_echelon(rows):
    """Forward Gaussian elimination over an exact field, in place.

    Each column takes the first row at or below the current one with a nonzero
    entry as its pivot and clears the entries below it; there is no back
    substitution.  Returns ``(rank, pivot_product, rows)``: the first ``rank``
    rows are the echelon rows, and ``pivot_product`` is the product of the
    pivots signed by the row swaps, the determinant of a full-rank square
    matrix.
    """
    ncols = len(rows[0]) if rows else 0
    rank = 0
    product = 1
    for c in range(ncols):
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            product = -product
        pv = rows[rank][c]
        product = product * pv
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / pv
            if f == 0:
                continue
            for j in range(c, ncols):
                rows[i][j] = rows[i][j] - f * rows[rank][j]
        rank += 1
    return rank, product, rows


def solve_exact(rows):
    """Unique solution of the square system with augmented rows ``[A | b]``
    over an exact field, or None when A is singular.  Reduces ``rows`` in
    place."""
    nv = len(rows)
    row_echelon(rows)
    if any(rows[r][r] == 0 for r in range(nv)):
        return None
    x = [None] * nv
    for r in reversed(range(nv)):
        acc = rows[r][nv]
        for j in range(r + 1, nv):
            acc = acc - rows[r][j] * x[j]
        x[r] = acc / rows[r][r]
    return tuple(x)


# -- numeric pencil members ------------------------------------------------------


def member_array(base: np.ndarray, basis, lambdas) -> np.ndarray:
    """The numeric pencil member base + sum(lambda_i * L_i) of complex arrays."""
    out = np.array(base, dtype=complex)
    for z, L in zip(lambdas, basis):
        out += z * L
    return out


@lru_cache(maxsize=None)
def _column_subsets(m: int, n: int) -> np.ndarray:
    return np.array(list(combinations(range(n), m)), dtype=np.intp)


def minor_residual(member: np.ndarray) -> float:
    """Largest modulus of the maximal minors of a numeric m x n member (column
    subsets in :func:`maximal_minors` order), over max(1, ||M||_F)^m."""
    m, n = member.shape
    minors = np.linalg.det(np.swapaxes(member[:, _column_subsets(m, n)], 0, 1))
    return float(np.abs(minors).max() / max(1.0, np.linalg.norm(member)) ** m)


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


def maximal_minors(M):
    """All maximal minors, column subsets in lexicographic order.

    Accepts a scalar :class:`RectMatrix` (returns scalars) or a symbolic
    :class:`PolyMatrix` (returns polynomials).
    """
    m, n = M.rows, M.cols
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    rows = range(m)
    if isinstance(M, PolyMatrix):
        return [sym_det(M.submatrix(rows, cols)) for cols in combinations(range(n), m)]
    return [M.submatrix(rows, cols).det() for cols in combinations(range(n), m)]


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
    domain = p.ahat.domain
    if any(isinstance(c, (float, complex)) for c in p.kernel_coeffs):
        domain = COMPLEX
    elif domain.tag == "rational" and any(
        isinstance(c, GaussianRational) for c in p.kernel_coeffs
    ):
        domain = GAUSSIAN
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


def _binary_form_coeffs(poly: MultiPoly, degree: int):
    """Coefficient list c[t] of c1^t c2^(degree-t) for a binary form."""
    coeffs = [poly.domain.zero()] * (degree + 1)
    for exp, c in poly.terms.items():
        coeffs[exp[0]] = c
    return coeffs


def _strip_zeros(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(a, b):
    """Remainder of ascending coefficient lists over a field; b nonzero."""
    a = _strip_zeros(a[:])
    while a and len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - f * c
        _strip_zeros(a)
    return a


def _univariate_gcd(polys):
    """Gcd of univariate coefficient lists (ascending) over an exact field."""
    g = []
    for p in polys:
        p = _strip_zeros(p[:])
        if not p:
            continue
        if not g:
            g = p
            continue
        a, b = g, p
        while b:
            a, b = b, _poly_rem(a, b)
        g = a
        if len(g) == 1:
            return g
    return g


def transversality_check(basis, seed: int = 12345) -> str:
    """Certify whether the span of ``basis`` meets the rank-deficient variety
    only at zero.

    For two basis matrices the certificate is exact: the maximal minors of
    c1*L1 + c2*L2 are binary forms, and the subspace is transversal iff their
    gcd is constant.  For one matrix the test is the determinant.  For three
    or more the check is probabilistic: search for a nonzero combination of
    deficient rank on random affine slices; a find certifies non-transversal,
    otherwise the verdict is ``inconclusive``.
    """
    if not basis:
        raise UsageError("empty basis")
    _require_independent(basis)
    k = len(basis)
    m, n = basis[0].rows, basis[0].cols
    if k != n - m + 1:
        raise UsageError(f"expected {n - m + 1} basis matrices for {m}x{n}, got {k}")

    if k == 1:
        L = basis[0]
        if L.domain.is_exact:
            return "transversal" if L.det() != 0 else "non-transversal"
        return "transversal" if minor_residual(L.to_numpy()) > TRANSVERSALITY_TOL else "non-transversal"

    if k == 2:
        cvars = ("c1", "c2")
        exact0 = [[_as_exact(v) for v in row] for row in basis[0].entries]
        exact1 = [[_as_exact(v) for v in row] for row in basis[1].entries]
        domain = (
            GAUSSIAN
            if any(
                isinstance(v, GaussianRational)
                for grid in (exact0, exact1)
                for row in grid
                for v in row
            )
            else RATIONAL
        )
        entries = [
            [
                MultiPoly(
                    cvars,
                    {(1, 0): exact0[i][j], (0, 1): exact1[i][j]},
                    domain,
                )
                for j in range(n)
            ]
            for i in range(m)
        ]
        forms = [f for f in maximal_minors(PolyMatrix(entries)) if not f.is_zero]
        if not forms:
            return "non-transversal"
        coeff_lists = [_binary_form_coeffs(f, m) for f in forms]
        if all(cl[m] == 0 for cl in coeff_lists):
            return "non-transversal"  # c2 divides every minor
        g = _univariate_gcd(coeff_lists)
        return "transversal" if len(g) == 1 else "non-transversal"

    # k >= 3: probabilistic slices; import here to avoid a module cycle
    from .locus import SolverConfig, _bordered_minors, newton_system, pencil_matrix_poly

    rng = np.random.default_rng(seed)
    zero_base = RectMatrix.zeros(m, n, COMPLEX)
    for _ in range(TRANSVERSALITY_SLICES):
        alpha = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c0 = alpha.conj() / np.vdot(alpha, alpha).real
        # orthonormal directions spanning the hyperplane alpha . c = const
        q, _ = np.linalg.qr(
            np.column_stack([alpha.conj(), np.eye(k, k - 1, dtype=complex)])
        )
        dirs = q[:, 1:]
        base = zero_base
        for i in range(k):
            base = base + basis[i].scale(complex(c0[i]))
        slice_basis = []
        for j in range(k - 1):
            Lj = RectMatrix.zeros(m, n, COMPLEX)
            for i in range(k):
                Lj = Lj + basis[i].scale(complex(dirs[i, j]))
            slice_basis.append(Lj)
        tvars = tuple(f"t{j + 1}" for j in range(k - 1))
        Mpoly = pencil_matrix_poly(base, slice_basis, tvars)
        # a square system: the bordered minors of all columns but the last
        eqs = _bordered_minors(Mpoly, m, n - 1)
        config = SolverConfig(
            tol=TRANSVERSALITY_TOL,
            starts=TRANSVERSALITY_STARTS,
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        base_np = base.to_numpy()
        slice_np = [L.to_numpy() for L in slice_basis]
        for root in newton_system(eqs, config, scale=2.0):
            member = member_array(base_np, slice_np, root.point)
            if minor_residual(member) <= TRANSVERSALITY_TOL:
                return "non-transversal"
    return "inconclusive"


# -- JSON schema -------------------------------------------------------------------


def _scalar_to_json(value, domain: Domain):
    if domain.tag == "rational":
        return str(value)
    if domain.tag == "gaussian":
        return {"re": str(value.re), "im": str(value.im)}
    return [value.real, value.imag]


def _scalar_from_json(value, domain: Domain):
    if domain.tag == "rational":
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
        raise UsageError(f"rational entries must be strings like 'p/q', got {value!r}")
    if domain.tag == "gaussian":
        if isinstance(value, dict) and set(value) <= {"re", "im"}:
            return GaussianRational(
                Fraction(value.get("re", "0")), Fraction(value.get("im", "0"))
            )
        if isinstance(value, (str, int)):
            return GaussianRational(Fraction(value))
        raise UsageError(f"gaussian entries must be {{'re': 'p/q', 'im': 'p/q'}}, got {value!r}")
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    if isinstance(value, (int, float)):
        return complex(value)
    raise UsageError(f"complex entries must be [re, im] pairs, got {value!r}")


def matrix_to_json(M: RectMatrix) -> dict:
    return {
        "rows": M.rows,
        "cols": M.cols,
        "domain": M.domain.tag,
        "entries": [[_scalar_to_json(v, M.domain) for v in row] for row in M.entries],
    }


def matrix_from_json(obj: dict) -> RectMatrix:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        tag = obj["domain"]
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed matrix object: {exc}") from exc
    if tag not in DOMAINS:
        raise UsageError(f"unknown domain {tag!r}")
    domain = DOMAINS[tag]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise UsageError("matrix entries do not match declared dimensions")
    return RectMatrix(
        [[_scalar_from_json(v, domain) for v in row] for row in entries], domain
    )
