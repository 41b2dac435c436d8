"""Defining polynomial of the critical value set in resolution-chart coordinates.

Two independent constructions are provided: the direct determinant of the
stacked matrix [ahat; kappa*L_1; ...; kappa*L_{n-m+1}], and, for the standard
diagonal subspace, the Pluecker-coefficient expansion over column subsets.
They agree exactly (the expansion carries the global sign (-1)^(m(m-1)/2) so
that the two polynomials are literally equal, not merely proportional).  Both
take the top block ahat, numeric or symbolic, as one matrix of polynomials
over the joint variables k_1..k_m and then ahat's own symbols: a numeric
block is a matrix of constants.

Also provides the banded matrix T_{i,d}, the diagonal pencil
k_1 J_1 + ... + k_i J_i on the d x (i+d-1) shifted-diagonal basis, whose
maximal minors form a basis of the homogeneous polynomials of degree d in i
variables, and the invertible change-of-basis matrix to the monomial basis:
the :func:`~rectpencil.pencil.minor_coefficient_matrix` of T_{i,d}, the same
construction that certifies transversality.  Every matrix of linear forms
here (T_{i,d}, the rows kappa*L_j, a numeric top block) is laid out by
:func:`~rectpencil.pencil.linear_forms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import IdentityViolation, UsageError
from .pencil import (
    RectMatrix,
    kappa_rows,
    linear_forms,
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


def build_T(i: int, d: int, domain: Domain = RATIONAL) -> PolyMatrix:
    """Banded d x (i+d-1) matrix with entry k_{q-p+1} on shifted diagonals:
    the diagonal pencil k_1 J_1 + ... + k_i J_i."""
    if i < 1 or d < 1:
        raise UsageError("build_T needs i >= 1 and d >= 1")
    cols = i + d - 1
    # J_s as plain int grids: RectMatrix objects would coerce every entry
    grids = [[[0] * (p + s) + [1] + [0] * (cols - 1 - p - s) for p in range(d)] for s in range(i)]
    return linear_forms(grids, kappa_variables(i), domain)


def _top_block(ahat, m: int) -> PolyMatrix:
    """The (m-1) x n top block over the joint variables: k_1..k_m, then the
    block's own symbols.  A numeric block becomes a matrix of constants."""
    kvars = kappa_variables(m)
    if isinstance(ahat, RectMatrix):
        return linear_forms([], kvars, ahat.domain, ahat.entries)
    if not isinstance(ahat, PolyMatrix):
        raise UsageError("ahat must be a RectMatrix or a symbolic PolyMatrix")
    if set(kvars) & set(ahat.variables):
        raise UsageError("symbolic top-block variables collide with k_1..k_m")
    variables = kvars + ahat.variables
    return PolyMatrix([[entry.with_variables(variables) for entry in row] for row in ahat.entries])


def critical_det_poly(ahat, basis) -> CriticalPolynomial:
    """Determinant of the n x n stack: ahat on top, one row kappa*L per basis
    matrix below, with kappa = (k_1, ..., k_m) symbolic."""
    basis = list(basis)
    if not basis:
        raise UsageError("empty basis")
    m, n = basis[0].rows, basis[0].cols
    if len(basis) != n - m + 1:
        raise UsageError(f"expected {n - m + 1} basis matrices, got {len(basis)}")
    top = _top_block(ahat, m)
    if (top.rows, top.cols) != (m - 1, n):
        raise UsageError(
            f"ahat must be {(m - 1, n)} to match the {m}x{n} basis, "
            f"got {(top.rows, top.cols)}"
        )
    domain = join_domains(top.domain, *[L.domain for L in basis])
    grid = [
        *([entry.with_domain(domain) for entry in row] for row in top.entries),
        *kappa_rows([L.entries for L in basis], top.variables, domain),
    ]
    det = sym_det(PolyMatrix(grid))
    return CriticalPolynomial(m, n, det)


def sds_poly(ahat, m: int, n: int) -> CriticalPolynomial:
    """Column-subset expansion for the standard diagonal subspace.

    Sum over (m-1)-subsets beta of the columns of the product of the top-block
    minor on beta and the T_{m,n-m+1} minor on the complement, signed by the
    subset sum, times the global factor (-1)^(m(m-1)/2)."""
    top = _top_block(ahat, m)
    if (top.rows, top.cols) != (m - 1, n):
        raise UsageError(
            f"ahat must be {(m - 1, n)}, got {(top.rows, top.cols)}"
        )
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    variables, domain = top.variables, top.domain
    # complements of the (m-1)-subsets, in lexicographic order, are the
    # (n-m+1)-subsets in reverse lexicographic order
    t_minors = maximal_minors(build_T(m, n - m + 1))[::-1]
    total = MultiPoly.zero(variables, domain)
    for beta, minor, t_minor in zip(combinations(range(n), m - 1), maximal_minors(top), t_minors):
        rho = sum(beta) + len(beta)  # 1-based column indices
        term = minor * t_minor.with_variables(variables).with_domain(domain)
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
