"""Shared test utilities: seeded random exact data and multiset comparisons."""

from fractions import Fraction

import numpy as np

from rectpencil import (
    COMPLEX,
    MultiPoly,
    PolyMatrix,
    RATIONAL,
    RectMatrix,
    ResolutionPoint,
    resolution_nu,
    standard_diagonal_basis,
    unit_diagonal_matrix,
)
from rectpencil.critical import kappa_variables


def make_gen(seed):
    return np.random.default_rng(seed)


def rand_fraction(gen, lo=-9, hi=9, maxden=9):
    return Fraction(int(gen.integers(lo, hi + 1)), int(gen.integers(1, maxden + 1)))


def rand_rational_matrix(gen, m, n):
    return RectMatrix([[rand_fraction(gen) for _ in range(n)] for _ in range(m)])


def rand_admissible_upper(gen, m, n):
    """Random integer upper-triangular matrix with distinct diagonal."""
    while True:
        entries = [[0] * n for _ in range(m)]
        for i in range(m):
            for j in range(i, n):
                entries[i][j] = int(gen.integers(-9, 10))
        if len({entries[i][i] for i in range(m)}) == m:
            return RectMatrix(entries)


def _matmul(A, B):
    return [
        [sum((A[i][t] * B[t][j] for t in range(len(B))), Fraction(0)) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _rand_int_grid(gen, rows, cols, lo=-9, hi=9):
    return [[int(gen.integers(lo, hi + 1)) for _ in range(cols)] for _ in range(rows)]


def transformed_diagonal_basis(gen, m, n):
    """P * J_s * Q for random invertible integer P, Q.  Rank is unchanged by P
    and Q, so the basis stays transversal."""

    def invertible(k):
        while True:
            M = _rand_int_grid(gen, k, k, -2, 2)
            if RectMatrix(M).det() != 0:
                return M

    P, Q = invertible(m), invertible(n)
    return [RectMatrix(_matmul(_matmul(P, J.entries), Q)) for J in standard_diagonal_basis(m, n)]


def non_transversal_basis(gen, m, n):
    """An independent basis L_1..L_k of m x n matrices with L_1 = X*Y - sum_{i>=2}
    r_i L_i, X of size m x (m-1) and Y of size (m-1) x n, so the nonzero
    combination L_1 + sum r_i L_i has rank below m."""
    k = n - m + 1
    while True:
        deficient = _matmul(_rand_int_grid(gen, m, m - 1), _rand_int_grid(gen, m - 1, n))
        rest = [_rand_int_grid(gen, m, n) for _ in range(k - 1)]
        r = [rand_fraction(gen) for _ in rest]
        first = [
            [deficient[i][j] - sum(ri * L[i][j] for ri, L in zip(r, rest)) for j in range(n)]
            for i in range(m)
        ]
        basis = [RectMatrix(first)] + [RectMatrix(L) for L in rest]
        if RectMatrix([L.flatten() for L in basis]).rank() == k:
            return basis


def kappa_rows(basis):
    """The k x n matrix of linear forms with rows kappa^T L_1, ..., kappa^T L_k
    over kappa = (k1, ..., km)."""
    m, n = basis[0].rows, basis[0].cols
    kvars = kappa_variables(m)
    units = [tuple(int(s == r) for s in range(m)) for r in range(m)]
    return PolyMatrix(
        [
            [MultiPoly(kvars, {units[r]: L.entries[r][j] for r in range(m)}) for j in range(n)]
            for L in basis
        ]
    )


def rand_poly(gen, variables, max_degree=4, terms=5, domain=RATIONAL):
    out = {}
    for _ in range(terms):
        exp = tuple(int(gen.integers(0, max_degree + 1)) for _ in variables)
        if sum(exp) > max_degree:
            continue
        out[exp] = rand_fraction(gen)
    return MultiPoly(variables, out, domain)


def lambda_multiset(eigenvalues, digits=7):
    """Eigenvalue tuples repeated by multiplicity, sorted by rounded keys."""
    out = []
    for e in eigenvalues:
        item = tuple((z.real, z.imag) for z in e.lambdas)
        out.extend([item] * (e.multiplicity or 1))
    return sorted(
        out,
        key=lambda it: tuple((round(r, digits), round(i, digits)) for r, i in it),
    )


def multisets_close(xs, ys, tol=1e-7):
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        for (ar, ai), (br, bi) in zip(x, y):
            if abs(complex(ar, ai) - complex(br, bi)) > tol:
                return False
    return True


def construct_multiple_eigenvalue_matrix(gen):
    """A 2x3 matrix lying on the multiple-eigenvalue hypersurface: push a root
    of the chart critical polynomial through the chart map, then shift inside
    the diagonal subspace.  The (1,3) entry comes from the chart point alone,
    so it stays away from zero."""
    while True:
        b = [rand_fraction(gen) for _ in range(3)]
        if abs(b[2]) >= Fraction(1, 4) and b[1] * b[1] - 4 * b[2] * b[0] != 0:
            break
    # critical polynomial b1 k2^2 - b2 k1 k2 + b3 k1^2 at k2 = 1
    b1, b2, b3 = (complex(v) for v in b)
    root = (b2 + np.sqrt(complex(b2 * b2 - 4 * b3 * b1))) / (2 * b3)
    for _ in range(4):
        root = root - (b3 * root**2 - b2 * root + b1) / (2 * b3 * root - b2)
    ahat = RectMatrix([[b1, b2, b3]], COMPLEX)
    on_critical = resolution_nu(ResolutionPoint(ahat, (root,)))
    shift = unit_diagonal_matrix(2, 3, 1, COMPLEX).scale(
        complex(rand_fraction(gen))
    ) + unit_diagonal_matrix(2, 3, 2, COMPLEX).scale(complex(rand_fraction(gen)))
    return on_critical + shift
