"""Discriminant of 2x3 pencils: the multiple-eigenvalue hypersurface.

Pipeline: the two eigenvalue equations (vanishing minors on columns {2,3} and
{1,3}), the critical equation obtained by substituting the kernel coordinate
into the chart determinant, an 8x8 elimination determinant D over the monomial
coordinates in the two parameters, the factorization D = -a13^6 * D0, and the
closed form of D0 (22 monomials, quadratic in a13) whose discriminant in a13
is a perfect cube up to a constant.  The a13 hyperplane factor is an artifact
of the chart (the kernel substitution divides by a13); the discriminant of the
pencil is the D0 part alone.

Every object here is symbolic in the six entries a11..a23; its value at a
numeric matrix A (:func:`eigen_equations` with ``a``, :func:`d0_value`) is
that object evaluated at the entries of A.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import IdentityViolation, UsageError
from .locus import SolverConfig, solve_eigenvalue_locus
from .pencil import PencilSpec, RectMatrix, standard_diagonal_basis
from .polycore import (
    MultiPoly,
    PolyMatrix,
    extract_monomial_factor,
    resultant_univariate,
    sym_det,
)

AVARS = ("a11", "a12", "a13", "a21", "a22", "a23")
LVARS = ("l1", "l2")
COINCIDENCE_TOL = 1e-6

# closed form of D0 = -D / a13^6: 22 monomials in the six matrix entries
_D0_TERMS = (
    (-12, {"a13": 1, "a22": 2, "a11": 1}),
    (1, {"a22": 2, "a12": 2}),
    (12, {"a13": 1, "a22": 1, "a11": 2}),
    (1, {"a11": 2, "a23": 2}),
    (4, {"a21": 1, "a12": 3}),
    (-4, {"a21": 1, "a23": 3}),
    (1, {"a11": 2, "a12": 2}),
    (12, {"a12": 1, "a23": 2, "a21": 1}),
    (-12, {"a12": 2, "a23": 1, "a21": 1}),
    (-2, {"a12": 1, "a23": 1, "a22": 2}),
    (-2, {"a12": 1, "a23": 1, "a11": 2}),
    (-2, {"a22": 1, "a11": 1, "a23": 2}),
    (-18, {"a13": 1, "a22": 1, "a23": 1, "a21": 1}),
    (-2, {"a22": 1, "a11": 1, "a12": 2}),
    (18, {"a13": 1, "a22": 1, "a21": 1, "a12": 1}),
    (18, {"a11": 1, "a23": 1, "a13": 1, "a21": 1}),
    (-18, {"a21": 1, "a13": 1, "a12": 1, "a11": 1}),
    (4, {"a13": 1, "a22": 3}),
    (-27, {"a21": 2, "a13": 2}),
    (-4, {"a13": 1, "a11": 3}),
    (4, {"a12": 1, "a23": 1, "a22": 1, "a11": 1}),
    (1, {"a22": 2, "a23": 2}),
)


def _check_shape(a: RectMatrix):
    if (a.rows, a.cols) != (2, 3):
        raise UsageError(f"expected a 2x3 matrix, got {a.rows}x{a.cols}")


def _sym(name: str, variables=None) -> MultiPoly:
    return MultiPoly.variable(variables or AVARS, name)


def _point(a: RectMatrix) -> dict:
    """The entries of a 2x3 matrix as an assignment to ``AVARS``."""
    _check_shape(a)
    return dict(zip(AVARS, a.flatten()))


def eigen_equations(a: RectMatrix | None = None):
    """Vanishing minors on columns {2,3} and {1,3} of A - l1*J1 - l2*J2, in
    (l1, l2) and the entries of A, or in (l1, l2) alone at a matrix ``a``.

    Bidegrees in (l1, l2) are (1, 2) and (1, 1)."""
    a11, a12, a13, a21, a22, a23 = (_sym(v, LVARS + AVARS) for v in AVARS)
    l1, l2 = (_sym(v, LVARS + AVARS) for v in LVARS)
    minor23 = (a12 - l2) * (a23 - l2) - a13 * (a22 - l1)
    minor13 = (a11 - l1) * (a23 - l2) - a13 * a21
    if a is None:
        return minor23, minor13
    point = _point(a)
    return minor23.eval(point), minor13.eval(point)


def critical_equation() -> MultiPoly:
    """Third equation on the critical chart, after eliminating the kernel
    coordinate kappa = (a23 - l2) / a13; taken term by term from its closed
    form."""
    a11, a12, a13, a23 = (_sym(v, LVARS + AVARS) for v in ("a11", "a12", "a13", "a23"))
    l1, l2 = (_sym(v, LVARS + AVARS) for v in LVARS)
    return (
        a13 * a13 * a11
        - a13 * a13 * l1
        + a23 * a13 * a12
        - 3 * (a23 * a13 * l2)
        + a13 * a23 * a23
        - l2 * a13 * a12
        + 2 * (a13 * l2 * l2)
    )


# monomial coordinates of the elimination matrix columns, exponents of (l1, l2)
ELIMINATION_MONOMIALS = (
    (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (0, 4),
)


@lru_cache(maxsize=None)
def _symbolic_elimination():
    a12 = _sym("a12")
    a13 = _sym("a13")
    a23 = _sym("a23")
    a11 = _sym("a11")
    zero = MultiPoly.zero(AVARS)
    one = MultiPoly.constant(AVARS, 1)
    d23 = _sym("a12") * a23 - a13 * _sym("a22")
    d13 = a11 * a23 - _sym("a21") * a13
    delta = a13 * a13 * a11 + a23 * a13 * a12 + a13 * a23 * a23
    sigma = -(a13 * a12) - 3 * (a13 * a23)
    grid = [
        [d23, a13, -a12 - a23, zero, one, zero, zero, zero],
        [zero, zero, d23, a13, -a12 - a23, zero, one, zero],
        [zero, zero, zero, zero, d23, a13, -a12 - a23, one],
        [d13, -a23, -a11, one, zero, zero, zero, zero],
        [zero, zero, d13, -a23, -a11, one, zero, zero],
        [delta, -(a13 * a13), sigma, zero, 2 * a13, zero, zero, zero],
        [zero, zero, delta, -(a13 * a13), sigma, zero, 2 * a13, zero],
        [zero, zero, zero, zero, delta, -(a13 * a13), sigma, 2 * a13],
    ]
    matrix = PolyMatrix(grid)
    return matrix, sym_det(matrix)


def elimination_matrix():
    """The 8x8 elimination matrix over the monomial coordinates
    ``ELIMINATION_MONOMIALS`` and its determinant D."""
    return _symbolic_elimination()


@lru_cache(maxsize=None)
def _printed_d0() -> MultiPoly:
    terms = {}
    for coeff, powers in _D0_TERMS:
        exp = tuple(powers.get(v, 0) for v in AVARS)
        terms[exp] = Fraction(coeff)
    return MultiPoly(AVARS, terms)


@lru_cache(maxsize=None)
def _symbolic_d0() -> MultiPoly:
    # The elimination determinant factors through the chart variable a13,
    # which the kernel substitution requires to be nonzero: D = -a13^6 * D0.
    # (The quotient reproduces the 22-monomial closed form exactly; the
    # hyperplane factor is the chart's, not part of the discriminant.)
    _, det = _symbolic_elimination()
    exponent, quotient = extract_monomial_factor(det, "a13")
    if exponent != 6:
        raise IdentityViolation(
            f"elimination determinant has a13-content {exponent}, expected 6"
        )
    d0 = -quotient
    if d0 != _printed_d0():
        raise IdentityViolation(
            "-D / a13^6 does not match the 22-monomial closed form"
        )
    return d0


def discriminant_D0() -> MultiPoly:
    """The discriminant polynomial D0 with D = -a13^6 * D0, verified against
    its closed form term by term."""
    return _symbolic_d0()


def d0_value(a: RectMatrix):
    """Scalar value of D0 at a numeric matrix."""
    return _symbolic_d0().eval(_point(a))


def w_polynomial() -> MultiPoly:
    """16 * (3*a12*a21 - 3*a21*a23 - 2*a11*a22 + a11^2 + a22^2)^3."""
    a11, a12, a21, a22, a23 = (_sym(v) for v in ("a11", "a12", "a21", "a22", "a23"))
    core = 3 * (a12 * a21) - 3 * (a21 * a23) - 2 * (a11 * a22) + a11 * a11 + a22 * a22
    return 16 * core**3


def discriminant_ratio() -> Fraction:
    """disc_{a13}(D0) equals the cube W up to one rational constant; the
    constant is returned (and asserted nonzero)."""
    d0 = _symbolic_d0()
    coeffs = d0.coefficients_in("a13")
    if len(coeffs) != 3:
        raise IdentityViolation("D0 is not quadratic in a13")
    lead = coeffs[2]
    res = resultant_univariate(d0, d0.derivative("a13"), "a13")
    disc = (-res).exact_div(lead)  # (-1)^(d(d-1)/2) with d = 2
    disc = disc.with_variables(AVARS)
    w = w_polynomial()
    if disc.is_zero or w.is_zero:
        raise IdentityViolation("degenerate discriminant comparison")
    exp, coeff = disc.leading_term()
    wcoeff = w.terms.get(exp)
    if wcoeff is None:
        raise IdentityViolation("discriminant and W have different supports")
    ratio = coeff / wcoeff
    if disc != w * ratio:
        raise IdentityViolation("disc_{a13}(D0) is not a constant multiple of W")
    return ratio


def multiple_eigenvalue_oracle(a: RectMatrix,
                               config: SolverConfig | None = None) -> bool:
    """True when the pencil over the diagonal subspace has a multiple
    eigenvalue, as decided by :func:`has_multiple_eigenvalue`."""
    _check_shape(a)
    basis = standard_diagonal_basis(2, 3, a.domain)
    return has_multiple_eigenvalue(solve_eigenvalue_locus(PencilSpec(a, basis), config))


def has_multiple_eigenvalue(eigs) -> bool:
    """True when two of the eigenvalues lie closer than ``COINCIDENCE_TOL`` in
    the max-norm, or one has multiplicity at least two."""
    if any(e.multiplicity >= 2 for e in eigs):
        return True
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            dist = max(
                abs(x - y) for x, y in zip(eigs[i].lambdas, eigs[j].lambdas)
            )
            if dist < COINCIDENCE_TOL:
                return True
    return False
