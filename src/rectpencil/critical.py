"""Defining polynomial of the critical value set in resolution-chart coordinates.

Two independent constructions are provided: the direct determinant of the
stacked matrix [ahat; kappa*L_1; ...; kappa*L_{n-m+1}], and, for the standard
diagonal subspace, the Pluecker-coefficient expansion over column subsets.
They agree exactly (the expansion carries the global sign (-1)^(m(m-1)/2) so
that the two polynomials are literally equal, not merely proportional).

Also provides the banded matrix T_{i,d}, whose maximal minors form a basis of
the homogeneous polynomials of degree d in i variables, and the invertible
change-of-basis matrix to the monomial basis: the
:func:`~rectpencil.pencil.minor_coefficient_matrix` of T_{i,d}, the same
construction that certifies transversality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import IdentityViolation, UsageError
from .pencil import (
    RectMatrix,
    maximal_minors,
    minor_coefficient_matrix,
    monomial_exponents,  # re-exported: the monomial order of basis_change_matrix rows
)
from .polycore import (
    RATIONAL,
    Domain,
    MultiPoly,
    PolyMatrix,
    join_domains,
    sym_det,
)


def kappa_variables(m: int):
    return tuple(f"k{i + 1}" for i in range(m))


@dataclass(frozen=True)
class CriticalPolynomial:
    """Homogeneous critical-set polynomial of degree n-m+1 in k_1..k_m."""

    m: int
    n: int
    poly: MultiPoly

    def __post_init__(self):
        kvars = kappa_variables(self.m)
        degs = self.poly.degrees_over(kvars)
        if degs and degs != {self.n - self.m + 1}:
            raise IdentityViolation(
                f"critical polynomial is not homogeneous of degree "
                f"{self.n - self.m + 1} in {kvars}: degrees {sorted(degs)}"
            )

    @property
    def kvars(self):
        return kappa_variables(self.m)


@dataclass(frozen=True)
class MinorBasis:
    """Maximal minors of T_{i,d}: a basis of degree-d forms in k_1..k_i."""

    i: int
    d: int
    polys: tuple


def build_T(i: int, d: int, domain: Domain = RATIONAL) -> PolyMatrix:
    """Banded d x (i+d-1) matrix with entry k_{q-p+1} on shifted diagonals."""
    if i < 1 or d < 1:
        raise UsageError("build_T needs i >= 1 and d >= 1")
    kvars = kappa_variables(i)
    cols = i + d - 1
    grid = []
    for p in range(d):
        row = []
        for q in range(cols):
            shift = q - p
            if 0 <= shift < i:
                row.append(MultiPoly.variable(kvars, kvars[shift], domain))
            else:
                row.append(MultiPoly.zero(kvars, domain))
        grid.append(row)
    return PolyMatrix(grid)


def _ahat_rows_as_polys(ahat, variables, domain):
    """Lift the (m-1) x n top block onto the joint variable list."""
    if isinstance(ahat, PolyMatrix):
        return [
            [
                ahat.entries[i][j].with_variables(variables).with_domain(domain)
                for j in range(ahat.cols)
            ]
            for i in range(ahat.rows)
        ]
    return [
        [
            MultiPoly.constant(variables, ahat.entries[i][j], domain)
            for j in range(ahat.cols)
        ]
        for i in range(ahat.rows)
    ]


def _joint_setup(ahat, m: int):
    kvars = kappa_variables(m)
    if isinstance(ahat, PolyMatrix):
        if set(kvars) & set(ahat.variables):
            raise UsageError("symbolic top-block variables collide with k_1..k_m")
        variables = kvars + ahat.variables
        domain = ahat.domain
    elif isinstance(ahat, RectMatrix):
        variables = kvars
        domain = ahat.domain
    else:
        raise UsageError("ahat must be a RectMatrix or a symbolic PolyMatrix")
    return variables, domain


def critical_det_poly(ahat, basis) -> CriticalPolynomial:
    """Determinant of the n x n stack: ahat on top, one row kappa*L per basis
    matrix below, with kappa = (k_1, ..., k_m) symbolic."""
    basis = list(basis)
    if not basis:
        raise UsageError("empty basis")
    m, n = basis[0].rows, basis[0].cols
    if len(basis) != n - m + 1:
        raise UsageError(f"expected {n - m + 1} basis matrices, got {len(basis)}")
    if (ahat.rows, ahat.cols) != (m - 1, n):
        raise UsageError(
            f"ahat must be {(m - 1, n)} to match the {m}x{n} basis, "
            f"got {(ahat.rows, ahat.cols)}"
        )
    variables, domain = _joint_setup(ahat, m)
    domain = join_domains(domain, *[L.domain for L in basis])
    kvars = kappa_variables(m)
    grid = _ahat_rows_as_polys(ahat, variables, domain)
    for L in basis:
        row = []
        for c in range(n):
            terms = {}
            for s in range(m):
                v = L.entries[s][c]
                if v != L.domain.zero():
                    exp = tuple(
                        1 if name == kvars[s] else 0 for name in variables
                    )
                    terms[exp] = terms.get(exp, domain.zero()) + domain.coerce(v)
            row.append(MultiPoly(variables, terms, domain))
        grid.append(row)
    det = sym_det(PolyMatrix(grid))
    return CriticalPolynomial(m, n, det)


def sds_poly(ahat, m: int | None = None, n: int | None = None) -> CriticalPolynomial:
    """Column-subset expansion for the standard diagonal subspace.

    Sum over (m-1)-subsets beta of the columns of the product of the top-block
    minor on beta and the T_{m,n-m+1} minor on the complement, signed by the
    subset sum, times the global factor (-1)^(m(m-1)/2)."""
    if m is None:
        m = ahat.rows + 1
    if n is None:
        n = ahat.cols
    if (ahat.rows, ahat.cols) != (m - 1, n):
        raise UsageError(
            f"ahat must be {(m - 1, n)}, got {(ahat.rows, ahat.cols)}"
        )
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    variables, domain = _joint_setup(ahat, m)
    numeric = isinstance(ahat, RectMatrix)
    # complements of the (m-1)-subsets, in lexicographic order, are the
    # (n-m+1)-subsets in reverse lexicographic order
    t_minors = maximal_minors(build_T(m, n - m + 1))[::-1]
    total = MultiPoly.zero(variables, domain)
    for beta, top, t_minor in zip(combinations(range(n), m - 1), maximal_minors(ahat), t_minors):
        if numeric:
            top_poly = MultiPoly.constant(variables, top, domain)
        else:
            top_poly = top.with_variables(variables)
        rho = sum(beta) + len(beta)  # 1-based column indices
        term = top_poly * t_minor.with_variables(variables).with_domain(domain)
        total = total - term if rho % 2 else total + term
    if (m * (m - 1) // 2) % 2:
        total = -total
    return CriticalPolynomial(m, n, total)


def basis_change_matrix(i: int, d: int) -> RectMatrix:
    """Columns express each T-minor in the monomial basis; always invertible."""
    if i < 1 or d < 1:
        raise UsageError("basis_change_matrix needs i >= 1 and d >= 1")
    out = minor_coefficient_matrix(build_T(i, d))
    if out.det() == 0:
        raise IdentityViolation(
            f"T-minors of ({i},{d}) are linearly dependent; this must never happen"
        )
    return out


def minor_basis(i: int, d: int) -> MinorBasis:
    """All maximal minors of T_{i,d}, verified linearly independent."""
    basis_change_matrix(i, d)  # raises IdentityViolation if dependent
    return MinorBasis(i, d, tuple(maximal_minors(build_T(i, d))))


def tangent_stack_matrix(ahat: RectMatrix, kernel_coeffs, basis) -> np.ndarray:
    """Numeric (mn x mn) wedge matrix of the rank-one tangent generators and
    the subspace basis at a chart point; singular exactly on the critical set.

    Row blocks: for each of the first m-1 matrix rows, the n column-mixing
    generators; then the m-1 row-addition generators; then the flattened basis
    matrices.  Columns index matrix entries row-major.
    """
    basis = list(basis)
    m, n = basis[0].rows, basis[0].cols
    if (ahat.rows, ahat.cols) != (m - 1, n):
        raise UsageError("ahat dimensions do not match the basis")
    kernel_coeffs = [complex(c) for c in kernel_coeffs]
    if len(kernel_coeffs) != m - 1:
        raise UsageError(f"expected {m - 1} kernel coefficients")
    a = ahat.to_numpy()
    last = -sum(kernel_coeffs[j] * a[j] for j in range(m - 1)) if m > 1 else None
    size = m * n
    rows = []
    for p in range(m - 1):
        block = np.zeros((n, size), dtype=complex)
        for q in range(m - 1):
            block[:, q * n : (q + 1) * n] = a[q, p] * np.eye(n)
        block[:, (m - 1) * n :] = last[p] * np.eye(n)
        rows.append(block)
    row_block = np.zeros((m - 1, size), dtype=complex)
    row_block[:, (m - 1) * n :] = a
    rows.append(row_block)
    basis_block = np.zeros((len(basis), size), dtype=complex)
    for r, L in enumerate(basis):
        basis_block[r] = L.to_numpy().reshape(-1)
    rows.append(basis_block)
    out = np.vstack(rows)
    if out.shape != (size, size):
        raise IdentityViolation(f"tangent stack is {out.shape}, expected {(size, size)}")
    return out
