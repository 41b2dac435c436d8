"""Critical-set polynomials: both constructions, minor basis, chart geometry."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rectpencil import (
    COMPLEX,
    GAUSSIAN,
    RATIONAL,
    GaussianRational,
    IdentityViolation,
    MultiPoly,
    PolyMatrix,
    RectMatrix,
    ResolutionPoint,
    UsageError,
    basis_change_matrix,
    build_T,
    critical_det_poly,
    maximal_minors,
    resolution_nu,
    sds_poly,
    standard_diagonal_basis,
    sym_det,
    symbolic_matrix,
)
from rectpencil.critical import kappa_variables, monomial_exponents

from rectpencil.pencil import minor_coefficient_matrix
from rectpencil.polycore import join_domains

from helpers import (
    kappa_rows,
    make_gen,
    rand_fraction,
    rand_rational_matrix,
    tangent_stack_matrix,
)

SIZES = [(2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (4, 7), (5, 8)]


@pytest.mark.parametrize("i", range(1, 6))
def test_build_T_is_the_diagonal_pencil(i):
    # T(i,d) = k_1 J_1 + ... + k_i J_i on the d x (i+d-1) diagonal basis
    kvars = kappa_variables(i)
    ks = [MultiPoly.variable(kvars, v) for v in kvars]
    for d in range(1, 6):
        basis = standard_diagonal_basis(d, i + d - 1)
        pencil = [
            [
                sum((k * J.entries[r][c] for k, J in zip(ks, basis)), MultiPoly.zero(kvars))
                for c in range(i + d - 1)
            ]
            for r in range(d)
        ]
        assert build_T(i, d) == PolyMatrix(pencil)


def test_build_T_shapes():
    T = build_T(1, 3)
    k1 = MultiPoly.variable(("k1",), "k1")
    zero = MultiPoly.zero(("k1",))
    assert list(map(list, T.entries)) == [
        [k1, zero, zero],
        [zero, k1, zero],
        [zero, zero, k1],
    ]
    T = build_T(2, 1)
    kvars = kappa_variables(2)
    assert list(T.entries[0]) == [
        MultiPoly.variable(kvars, "k1"),
        MultiPoly.variable(kvars, "k2"),
    ]
    T = build_T(3, 2)
    kvars = kappa_variables(3)

    def v(name):
        return MultiPoly.variable(kvars, name)

    zero = MultiPoly.zero(kvars)
    assert list(map(list, T.entries)) == [
        [v("k1"), v("k2"), v("k3"), zero],
        [zero, v("k1"), v("k2"), v("k3")],
    ]


def test_critical_det_poly_2x3_hand_formula():
    ahat = symbolic_matrix(1, 3)
    poly = critical_det_poly(ahat, standard_diagonal_basis(2, 3)).poly
    variables = poly.variables

    def v(name):
        return MultiPoly.variable(variables, name)

    expected = v("a11") * v("k2") ** 2 - v("a12") * v("k1") * v("k2") + v("a13") * v("k1") ** 2
    assert poly == expected


def test_critical_det_poly_3x4_printed_expansion():
    ahat = symbolic_matrix(2, 4)
    poly = critical_det_poly(ahat, standard_diagonal_basis(3, 4)).poly
    joint = poly.variables

    def delta(i, j):
        return sym_det(ahat.submatrix(range(2), (i - 1, j - 1))).with_variables(joint)

    def v(name):
        return MultiPoly.variable(joint, name)

    k1, k2, k3 = v("k1"), v("k2"), v("k3")
    expected = (
        delta(3, 4) * k1 * k1
        + delta(1, 4) * k2 * k2
        + delta(1, 2) * k3 * k3
        - delta(2, 4) * k1 * k2
        + (delta(2, 3) - delta(1, 4)) * k1 * k3
        - delta(1, 3) * k2 * k3
    )
    assert poly == expected


def test_critical_det_poly_triangular_stack():
    # ahat = [[0,0,1]] makes the stack triangular up to one cofactor: k1^2
    ahat = RectMatrix([[0, 0, 1]])
    poly = critical_det_poly(ahat, standard_diagonal_basis(2, 3)).poly
    kvars = kappa_variables(2)
    assert poly == MultiPoly(kvars, {(2, 0): 1})


def test_critical_det_poly_dimension_mismatch():
    with pytest.raises(UsageError):
        critical_det_poly(RectMatrix.zeros(2, 3), standard_diagonal_basis(2, 3))


def test_top_block_must_be_a_matrix_without_k_symbols():
    basis = standard_diagonal_basis(2, 3)
    with pytest.raises(UsageError, match="RectMatrix or a symbolic PolyMatrix"):
        critical_det_poly([[1, 2, 3]], basis)
    with pytest.raises(UsageError, match="RectMatrix or a symbolic PolyMatrix"):
        sds_poly([[1, 2, 3]], 2, 3)
    k2 = MultiPoly.variable(("k2",), "k2")
    colliding = PolyMatrix([[k2, k2, k2]])
    with pytest.raises(UsageError, match="collide"):
        critical_det_poly(colliding, basis)
    with pytest.raises(UsageError, match="collide"):
        sds_poly(colliding, 2, 3)


def test_sds_single_surviving_subset():
    # one nonzero entry in the last column leaves a single column subset
    for n in (3, 4, 5):
        entries = [[0] * n]
        entries[0][n - 1] = 7
        ahat = RectMatrix(entries)
        poly = sds_poly(ahat, 2, n).poly
        kvars = kappa_variables(2)
        exponent = [0, 0]
        exponent[0] = n - 1
        expected = MultiPoly(kvars, {tuple(exponent): 7})
        direct = critical_det_poly(ahat, standard_diagonal_basis(2, n)).poly
        assert poly == direct
        assert poly == expected or poly == -expected


def _top_block_case(m, n, top, basis=RATIONAL):
    suffix = "" if top is RATIONAL else f"-{top.tag}"
    suffix += "" if basis is RATIONAL else f"-{basis.tag}-basis"
    return pytest.param(m, n, top, basis, id=f"{m}-{n}{suffix}")


@pytest.mark.parametrize(
    "m,n,top,basis_domain",
    [_top_block_case(m, n, top) for top in (RATIONAL, GAUSSIAN, COMPLEX) for m, n in SIZES]
    + [_top_block_case(3, 5, RATIONAL, COMPLEX)],
)
def test_sds_equals_direct_on_random_rational(m, n, top, basis_domain):
    # the top block's real parts (and rational blocks) are the same draws in
    # every domain; Gaussian and complex blocks add a drawn imaginary part
    gen = make_gen(1000 + 10 * m + n)
    for _ in range(5):
        ahat = rand_rational_matrix(gen, m - 1, n)
        if top is not RATIONAL:
            imag = rand_rational_matrix(gen, m - 1, n)
            ahat = RectMatrix(
                [
                    [GaussianRational(re, im) for re, im in zip(row, irow)]
                    for row, irow in zip(ahat.entries, imag.entries)
                ],
                GAUSSIAN,
            ).to_domain(top)
        direct = critical_det_poly(ahat, standard_diagonal_basis(m, n, basis_domain)).poly
        expansion = sds_poly(ahat, m, n).poly
        assert direct.variables == expansion.variables == kappa_variables(m)
        assert direct.domain is join_domains(top, basis_domain)
        assert expansion.domain is top
        assert direct == expansion.with_domain(direct.domain)


def test_sds_equals_direct_symbolic():
    for (m, n) in [(2, 3), (2, 4), (3, 4)]:
        ahat = symbolic_matrix(m - 1, n)
        assert sds_poly(ahat, m, n).poly == critical_det_poly(
            ahat, standard_diagonal_basis(m, n)
        ).poly


@pytest.mark.parametrize("m,n", SIZES)
def test_homogeneity_in_kappa(m, n):
    gen = make_gen(2000 + 10 * m + n)
    ahat = rand_rational_matrix(gen, m - 1, n)
    poly = critical_det_poly(ahat, standard_diagonal_basis(m, n)).poly
    kvars = kappa_variables(m)
    for exp in poly.terms:
        kdeg = sum(exp[i] for i in range(len(kvars)))
        assert kdeg == n - m + 1


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 4)])
def test_kappa_coefficients_are_integer_minor_combinations(m, n):
    # each coefficient of a k-monomial must be an integer combination of the
    # maximal minors of the symbolic top block
    ahat = symbolic_matrix(m - 1, n)
    poly = critical_det_poly(ahat, standard_diagonal_basis(m, n)).poly
    kvars = kappa_variables(m)
    avars = ahat.variables
    minors = [
        sym_det(ahat.submatrix(range(m - 1), cols))
        for cols in combinations(range(n), m - 1)
    ]
    # collect k-monomial -> coefficient polynomial in the a-variables
    buckets = {}
    for exp, coeff in poly.terms.items():
        kexp = exp[: len(kvars)]
        aexp = exp[len(kvars):]
        buckets.setdefault(kexp, {})[aexp] = coeff
    assert buckets
    for kexp, terms in buckets.items():
        target = MultiPoly(avars, terms)
        solution = _solve_in_span(minors, target)
        assert solution is not None, f"coefficient of {kexp} outside the minor span"
        assert all(x.denominator == 1 for x in solution)


def _solve_in_span(basis_polys, target):
    monomials = sorted(
        {e for p in basis_polys for e in p.terms} | set(target.terms)
    )
    index = {e: i for i, e in enumerate(monomials)}
    rows = [[Fraction(0)] * len(basis_polys) for _ in monomials]
    rhs = [Fraction(0)] * len(monomials)
    for j, p in enumerate(basis_polys):
        for e, c in p.terms.items():
            rows[index[e]][j] = c
    for e, c in target.terms.items():
        rhs[index[e]] = c
    # exact least-structure solve by elimination
    aug = [row + [b] for row, b in zip(rows, rhs)]
    ncols = len(basis_polys)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c] / pv
                for j in range(c, ncols + 1):
                    aug[i][j] -= f * aug[r][j]
        pivots.append((r, c))
        r += 1
    for i in range(len(aug)):
        if all(aug[i][j] == 0 for j in range(ncols)) and aug[i][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for r, c in pivots:
        solution[c] = aug[r][ncols] / aug[r][c]
    return solution


def test_symbolic_routes_agree_under_evaluation():
    # evaluate the two independently built symbolic polynomials at a shared
    # random rational point: scalar equality through the evaluation path
    gen = make_gen(77)
    ahat = symbolic_matrix(1, 3)
    direct = critical_det_poly(ahat, standard_diagonal_basis(2, 3)).poly
    expansion = sds_poly(ahat, 2, 3).poly
    for _ in range(10):
        point = {v: rand_fraction(gen) for v in direct.variables}
        assert direct.eval(point) == expansion.eval(point)


def test_minor_basis_small_cases():
    kvars = kappa_variables(2)
    assert maximal_minors(build_T(2, 1)) == [
        MultiPoly.variable(kvars, "k1"),
        MultiPoly.variable(kvars, "k2"),
    ]
    assert maximal_minors(build_T(1, 4)) == [MultiPoly(("k1",), {(4,): 1})]


def test_minor_basis_3_2():
    polys = maximal_minors(build_T(3, 2))
    kvars = kappa_variables(3)

    def mono(**powers):
        exp = tuple(powers.get(v, 0) for v in kvars)
        return MultiPoly(kvars, {exp: 1})

    assert polys == [
        mono(k1=2),
        mono(k1=1, k2=1),
        mono(k1=1, k3=1),
        mono(k2=2) - mono(k1=1, k3=1),
        mono(k2=1, k3=1),
        mono(k3=2),
    ]
    # rank check of the 6x6 coefficient matrix
    monomials = monomial_exponents(3, 2)
    index = {e: i for i, e in enumerate(monomials)}
    grid = [[Fraction(0)] * 6 for _ in range(6)]
    for j, p in enumerate(polys):
        for e, c in p.terms.items():
            grid[index[e]][j] = c
    assert RectMatrix(grid).rank() == 6


def test_basis_change_matrix_cases():
    assert [[int(v) for v in row] for row in basis_change_matrix(2, 1).entries] == [
        [1, 0],
        [0, 1],
    ]
    assert [[int(v) for v in row] for row in basis_change_matrix(1, 5).entries] == [[1]]
    assert basis_change_matrix(3, 2).det() != 0


def test_basis_change_invertible_through_degree_seven():
    for i in range(1, 7):
        for d in range(1, 8 - i):
            change = basis_change_matrix(i, d)
            assert change.rows == math.comb(i + d - 1, d)
            assert change.det() != 0
            # T(i, d) has rows kappa^T J_s of the i x (i+d-1) diagonal basis: the
            # T-minor basis theorem says the diagonal subspace is transversal
            rows = kappa_rows(standard_diagonal_basis(i, i + d - 1))
            assert minor_coefficient_matrix(rows) == change


def test_monomial_exponents_graded_lex():
    exps = monomial_exponents(3, 2)
    assert exps == [
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    ]


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
def test_critical_roots_are_critical_points(m, n):
    # a root of the critical polynomial (last coordinate dehomogenized to 1)
    # must make both the chart determinant and the full tangent wedge singular
    gen = make_gen(4000 + 10 * m + n)
    basis = standard_diagonal_basis(m, n)
    for _ in range(3):
        # stay inside the chart: leading principal minor of the top block nonzero
        while True:
            ahat = rand_rational_matrix(gen, m - 1, n)
            lead = ahat.submatrix(range(m - 1), range(m - 1)).det()
            if lead != 0:
                break
        crit = critical_det_poly(ahat, basis)
        kvars = kappa_variables(m)
        # univariate slice: fix all but k1, set k_m = 1
        assignments = {kvars[-1]: 1.0}
        for name in kvars[1:-1]:
            assignments[name] = float(rand_fraction(gen))
        sliced = crit.poly.eval(assignments)
        coeffs = [complex(c.eval({})) for c in sliced.coefficients_in("k1")]
        roots = np.roots(coeffs[::-1])
        root = complex(roots[0])
        deriv = sliced.derivative("k1")
        for _ in range(6):
            d = complex(deriv.eval({"k1": root}))
            if d == 0:
                break
            root -= complex(sliced.eval({"k1": root})) / d
        kpoint = {"k1": root, **assignments}
        value = complex(crit.poly.eval(kpoint))
        assert abs(value) < 1e-8
        kcoeffs = [kpoint[v] for v in kvars[:-1]]
        stack = tangent_stack_matrix(ahat, kcoeffs, basis)
        s = np.linalg.svd(stack, compute_uv=False)
        assert s[-1] <= 1e-8 * s[0]
        # a generic chart point is not critical: the wedge stays regular
        generic = tangent_stack_matrix(
            ahat, [complex(rand_fraction(gen)) + 0.5 for _ in range(m - 1)], basis
        )
        s2 = np.linalg.svd(generic, compute_uv=False)
        assert s2[-1] > 1e-8 * s2[0]


def test_critical_polynomial_rejects_inhomogeneous():
    kvars = kappa_variables(2)
    bad = MultiPoly(kvars, {(1, 0): 1, (2, 0): 1})
    from rectpencil import CriticalPolynomial

    with pytest.raises(IdentityViolation):
        CriticalPolynomial(2, 3, bad)
