"""Output checks for the benchmark, computed apart from the program.

Every check takes the program's output plus the input it was given and raises
:class:`CheckFailure` when the output is wrong.  The reference values come from
numpy (singular values, kernel residuals), from exact ``Fraction`` elimination
written here, or from properties the method must have (counts, exact equality
of two independent constructions).  Nothing is compared against a stored copy
of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Relative tolerance on the smallest singular value and on the left-kernel
# residual of a returned pencil member.  The solver accepts a point when every
# maximal minor is below 1e-8 relative to the member's norm; double roots are
# polished by deflation.  A point 1e-4 off in any coordinate reads about 1e-4
# here, far above this bound.
POINT_RTOL = 1e-6
# Distance under which two eigenvalue tuples count as the same point.
MATCH_ATOL = 1e-6
# The discriminant test of criterion 8: |D0| / max(1, |A|_F)^4 against EPSILON,
# with no verdict demanded inside [EPSILON / 100, 100 * EPSILON].
EPSILON = 1e-6


class CheckFailure(Exception):
    """An output that a check rejects."""


# -- pencils ------------------------------------------------------------------


def diagonal_basis(m: int, n: int) -> list:
    """J_1..J_{n-m+1}: J_s has ones where column - row = s - 1."""
    out = []
    for s in range(1, n - m + 2):
        J = np.zeros((m, n))
        for i in range(m):
            J[i, i + s - 1] = 1.0
        out.append(J)
    return out


def to_array(entries) -> np.ndarray:
    return np.array([[complex(v) for v in row] for row in entries], dtype=complex)


def member(base: np.ndarray, basis, lambdas) -> np.ndarray:
    out = base.astype(complex)
    for lam, J in zip(lambdas, basis):
        out = out + complex(lam) * J
    return out


def check_point(base, basis, lambdas, kappa, rtol: float = POINT_RTOL):
    """The member at ``lambdas`` drops rank and ``kappa`` spans its left kernel."""
    M = member(base, basis, lambdas)
    sigma = np.linalg.svd(M, compute_uv=False)
    scale = max(1.0, float(sigma[0]))
    if sigma[-1] > rtol * scale:
        raise CheckFailure(
            f"member at {lambdas} has smallest singular value "
            f"{sigma[-1]:.3e} relative to {scale:.3e}"
        )
    k = np.asarray(kappa, dtype=complex)
    knorm = float(np.linalg.norm(k))
    if knorm == 0.0:
        raise CheckFailure("zero kernel vector")
    residual = float(np.linalg.norm(k @ M)) / (knorm * scale)
    if residual > rtol:
        raise CheckFailure(f"kappa^T M = {residual:.3e} at {lambdas}")


def check_locus(base, basis, points, m: int, n: int):
    """``points`` are (lambdas, kappa, multiplicity) triples of one pencil."""
    expected = math.comb(n, m - 1)
    total = 0
    for lambdas, kappa, mult in points:
        if not isinstance(mult, int) or mult < 1:
            raise CheckFailure(f"multiplicity {mult!r} at {lambdas}")
        check_point(base, basis, lambdas, kappa)
        total += mult
    if total != expected:
        raise CheckFailure(f"total multiplicity {total}, expected C({n},{m - 1}) = {expected}")


def eigen_points(eigs) -> list:
    return [(tuple(e.lambdas), tuple(e.kappa), e.multiplicity) for e in eigs]


def check_heine_branches(diagonal, points, m: int, n: int):
    """First coordinates are the -a_ii, each carrying C(n-i, m-i) points."""
    counts = [0] * m
    for lambdas, _, mult in points:
        hits = [i for i, a in enumerate(diagonal) if abs(lambdas[0] + complex(a)) < MATCH_ATOL]
        if len(hits) != 1:
            raise CheckFailure(f"lambda1 = {lambdas[0]} is not one of the -a_ii")
        counts[hits[0]] += mult
    expected = [math.comb(n - i, m - i) for i in range(1, m + 1)]
    if counts != expected:
        raise CheckFailure(f"branch counts {counts}, expected {expected}")


def _expanded(points) -> list:
    out = []
    for lambdas, _, mult in points:
        out.extend([tuple(complex(z) for z in lambdas)] * mult)
    return out


def check_same_multiset(points_a, points_b, atol: float = MATCH_ATOL):
    """Two solvers' points agree as multisets (repeated by multiplicity)."""
    left, right = _expanded(points_a), _expanded(points_b)
    if len(left) != len(right):
        raise CheckFailure(f"{len(left)} points against {len(right)}")
    unmatched = list(right)
    for p in left:
        best = min(
            range(len(unmatched)),
            key=lambda j: max(abs(a - b) for a, b in zip(p, unmatched[j])),
        )
        if max(abs(a - b) for a, b in zip(p, unmatched[best])) > atol:
            raise CheckFailure(f"point {p} has no partner in the other solver's output")
        unmatched.pop(best)


# -- the 2x3 discriminant -----------------------------------------------------

# D0 in the entries a11..a23 of a 2x3 matrix: coefficient and exponents of
# (a11, a12, a13, a21, a22, a23).  It vanishes exactly where the pencil over
# the diagonal subspace has a multiple eigenvalue.
D0_MONOMIALS = (
    (1, (2, 2, 0, 0, 0, 0)), (-2, (1, 2, 0, 0, 1, 0)), (1, (0, 2, 0, 0, 2, 0)),
    (4, (0, 3, 0, 1, 0, 0)), (-12, (0, 2, 0, 1, 0, 1)), (12, (0, 1, 0, 1, 0, 2)),
    (-4, (0, 0, 0, 1, 0, 3)), (1, (2, 0, 0, 0, 0, 2)), (-2, (1, 0, 0, 0, 1, 2)),
    (1, (0, 0, 0, 0, 2, 2)), (-2, (2, 1, 0, 0, 0, 1)), (4, (1, 1, 0, 0, 1, 1)),
    (-2, (0, 1, 0, 0, 2, 1)), (-4, (3, 0, 1, 0, 0, 0)), (12, (2, 0, 1, 0, 1, 0)),
    (-12, (1, 0, 1, 0, 2, 0)), (4, (0, 0, 1, 0, 3, 0)), (-18, (1, 1, 1, 1, 0, 0)),
    (18, (0, 1, 1, 1, 1, 0)), (18, (1, 0, 1, 1, 0, 1)), (-18, (0, 0, 1, 1, 1, 1)),
    (-27, (0, 0, 2, 2, 0, 0)),
)


def d0_value(entries) -> Fraction:
    """D0 at a 2x3 matrix of Fractions, exactly."""
    flat = [v for row in entries for v in row]
    total = Fraction(0)
    for coeff, exps in D0_MONOMIALS:
        term = Fraction(coeff)
        for v, e in zip(flat, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


def frobenius(entries) -> float:
    return math.sqrt(sum(float(v) ** 2 for row in entries for v in row))


def check_discriminant23(entries, code: int, payload: dict):
    """One ``rectpencil discriminant23 --matrix`` result for the rational
    matrix ``entries``."""
    if code != 0:
        raise CheckFailure(f"exit code {code}")
    if payload.get("status") != "ok":
        raise CheckFailure(f"status {payload.get('status')!r}")
    base = to_array(entries)
    basis = diagonal_basis(2, 3)
    points = []
    for e in payload["eigenvalues"]:
        lambdas = tuple(complex(re, im) for re, im in e["lambda"])
        kappa = tuple(complex(re, im) for re, im in e["kappa"])
        points.append((lambdas, kappa, e["multiplicity"]))
    check_locus(base, basis, points, 2, 3)
    own = d0_value(entries)
    if Fraction(payload["D0_value"]) != own:
        raise CheckFailure(f"D0 = {payload['D0_value']}, expected {own}")
    ratio = abs(own) / max(1.0, frobenius(entries)) ** 4
    multiple = payload["multiple"]
    if not EPSILON / 100 <= ratio <= EPSILON * 100 and multiple != (ratio < EPSILON):
        raise CheckFailure(f"multiple = {multiple} with |D0|/scale = {ratio:.3e}")


# -- exact kernels ------------------------------------------------------------


def exact_det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return det


def poly_at(variables, terms: dict, point: dict) -> Fraction:
    """A polynomial given as {exponents: coefficient}, evaluated exactly."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for name, e in zip(variables, exps):
            if e:
                term *= Fraction(point[name]) ** e
        total += term
    return total


def stacked_det(ahat, kappa, m: int, n: int) -> Fraction:
    """det of [ahat; kappa*J_1; ...; kappa*J_k] over the diagonal subspace."""
    rows = [list(r) for r in ahat]
    for s in range(1, n - m + 2):
        rows.append([kappa[c - s + 1] if 0 <= c - s + 1 < m else 0 for c in range(n)])
    return exact_det(rows)


def check_critical(direct, expansion, ahat, symbols, point, m: int, n: int):
    """critical_det_poly against sds_poly, homogeneity, and one exact value.

    ``direct`` and ``expansion`` are the two MultiPoly results; ``ahat`` holds
    the top block (Fractions, or symbol names when ``symbols`` is true);
    ``point`` assigns a Fraction to every k_i and every top-block symbol.
    """
    if direct != expansion:
        raise CheckFailure(f"critical_det_poly != sds_poly at {m}x{n}")
    kvars = [f"k{i + 1}" for i in range(m)]
    idx = [direct.variables.index(k) for k in kvars]
    degrees = {sum(exps[i] for i in idx) for exps in direct.terms}
    if degrees != {n - m + 1}:
        raise CheckFailure(f"degrees {sorted(degrees)} in k, expected {n - m + 1}")
    top = [[point[v] if symbols else v for v in row] for row in ahat]
    kappa = [point[k] for k in kvars]
    want = stacked_det(top, kappa, m, n)
    got = poly_at(direct.variables, direct.terms, point)
    if got != want:
        raise CheckFailure(f"polynomial value {got} != determinant {want} at {m}x{n}")


def check_basis_change(entries, i: int, d: int):
    size = math.comb(i + d - 1, d)
    if len(entries) != size or any(len(row) != size for row in entries):
        raise CheckFailure(f"basis change for ({i},{d}) is not {size}x{size}")
    if exact_det(entries) == 0:
        raise CheckFailure(f"basis change for ({i},{d}) is singular")


def check_multiplicity(value, m: int, n: int):
    if value != math.comb(n, m - 1):
        raise CheckFailure(f"multiplicity {value} at 0, expected {math.comb(n, m - 1)}")


def check_transversality(verdict: str, expected: str):
    if verdict != expected:
        raise CheckFailure(f"verdict {verdict!r}, expected {expected!r}")
