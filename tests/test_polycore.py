"""Polynomial substrate: arithmetic, determinants, resultants, text forms."""

from fractions import Fraction

import pytest

from rectpencil import (
    COMPLEX,
    GAUSSIAN,
    GaussianRational,
    MultiPoly,
    PolyMatrix,
    RATIONAL,
    UsageError,
    extract_monomial_factor,
    resultant_univariate,
    sym_det,
)
from rectpencil.polycore import MINUS_INFINITY, _det_bareiss

from helpers import make_gen, rand_fraction, rand_poly

K = ("k1", "k2", "k3")


def kvar(name, variables=K):
    return MultiPoly.variable(variables, name)


def test_monomial_product():
    k1, k2 = kvar("k1"), kvar("k2")
    assert k1 * k2 == MultiPoly(K, {(1, 1, 0): 1})


def test_difference_of_squares():
    k1, k2 = kvar("k1"), kvar("k2")
    assert (k1 + k2) * (k1 - k2) == k1 * k1 - k2 * k2


def test_cross_term_expansion():
    # (a12 + l2)(a23 + l2) = a12 a23 + (a12 + a23) l2 + l2^2
    variables = ("l2", "a12", "a23")
    l2 = MultiPoly.variable(variables, "l2")
    a12 = MultiPoly.variable(variables, "a12")
    a23 = MultiPoly.variable(variables, "a23")
    product = (a12 + l2) * (a23 + l2)
    assert product == a12 * a23 + (a12 + a23) * l2 + l2 * l2


def test_poly_eval_trivial_and_partial():
    k1 = kvar("k1")
    assert (k1 * k1).eval({"k1": Fraction(0)}) == 0
    p = kvar("k2") ** 2 - kvar("k1") * kvar("k3")
    assert p.eval({"k1": 1, "k2": 1, "k3": 1}) == 0
    partial = p.eval({"k2": Fraction(2)})
    assert partial.variables == ("k1", "k3")
    assert partial == MultiPoly(("k1", "k3"), {(0, 0): 4, (1, 1): -1})
    with pytest.raises(UsageError):
        p.eval({"zz": 1})


def test_sym_det_triangular():
    k1, k2 = kvar("k1"), kvar("k2")
    zero = MultiPoly.zero(K)
    M = PolyMatrix([[k1, k2], [zero, k1]])
    assert sym_det(M) == k1 * k1


def test_sym_det_hand_cofactor():
    variables = ("k1", "k2", "a1", "a2", "a3")
    k1 = MultiPoly.variable(variables, "k1")
    k2 = MultiPoly.variable(variables, "k2")
    a1 = MultiPoly.variable(variables, "a1")
    a2 = MultiPoly.variable(variables, "a2")
    a3 = MultiPoly.variable(variables, "a3")
    zero = MultiPoly.zero(variables)
    M = PolyMatrix([[a1, a2, a3], [k1, k2, zero], [zero, k1, k2]])
    assert sym_det(M) == a1 * k2 * k2 - a2 * k1 * k2 + a3 * k1 * k1


def test_sym_det_banded_two_columns():
    k1, k2, k3 = kvar("k1"), kvar("k2"), kvar("k3")
    M = PolyMatrix([[k2, k3], [k1, k2]])
    assert sym_det(M) == k2 * k2 - k1 * k3


def test_sym_det_requires_square():
    k1 = kvar("k1")
    with pytest.raises(UsageError):
        sym_det(PolyMatrix([[k1, k1]]))


def test_partial_derivative():
    k1, k2 = kvar("k1"), kvar("k2")
    assert (k1 * k1).derivative("k1") == 2 * k1
    variables = ("k1", "k2", "a1", "a2", "a3")
    a1 = MultiPoly.variable(variables, "a1")
    a2 = MultiPoly.variable(variables, "a2")
    a3 = MultiPoly.variable(variables, "a3")
    q1 = MultiPoly.variable(variables, "k1")
    q2 = MultiPoly.variable(variables, "k2")
    p = a3 * q1 * q1 - a2 * q1 * q2 + a1 * q2 * q2
    assert p.derivative("k2") == -a2 * q1 + 2 * (a1 * q2)


def test_d0_derivative_matches_finite_difference():
    from rectpencil import disc23

    d0 = disc23.discriminant_D0()
    deriv = d0.derivative("a13")
    gen = make_gen(11)
    point = {v: float(rand_fraction(gen)) for v in d0.variables}
    h = 1e-6
    up = dict(point, a13=point["a13"] + h)
    dn = dict(point, a13=point["a13"] - h)
    fd = (complex(d0.eval(up)) - complex(d0.eval(dn))) / (2 * h)
    exact = complex(deriv.eval(point))
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_resultant_linear_pair():
    variables = ("l", "c", "d")
    l = MultiPoly.variable(variables, "l")
    c = MultiPoly.variable(variables, "c")
    d = MultiPoly.variable(variables, "d")
    res = resultant_univariate(l - c, l - d, "l")
    assert res == MultiPoly(("c", "d"), {(1, 0): 1, (0, 1): -1})


def test_resultant_square_vs_shifted():
    variables = ("l",)
    l = MultiPoly.variable(variables, "l")
    res = resultant_univariate(l * l, l - 1, "l")
    assert res == MultiPoly((), {(): 1})
    with pytest.raises(UsageError):
        resultant_univariate(l * l, MultiPoly.constant(variables, 3), "l")


def test_resultant_eliminates_to_cubic_with_three_roots():
    # eliminating the first parameter from the two 2x3 minors leaves a cubic
    # whose roots are the second components of the three eigenvalues
    import numpy as np

    from rectpencil import PencilSpec, SolverConfig, solve_eigenvalue_locus
    from rectpencil import standard_diagonal_basis
    from helpers import rand_rational_matrix

    gen = make_gen(5)
    A = rand_rational_matrix(gen, 2, 3)
    variables = ("l1", "l2")
    l1 = MultiPoly.variable(variables, "l1")
    l2 = MultiPoly.variable(variables, "l2")
    a = {f"a{i}{j}": MultiPoly.constant(variables, A.entries[i - 1][j - 1])
         for i in (1, 2) for j in (1, 2, 3)}
    minor23 = (a["a12"] + l2) * (a["a23"] + l2) - a["a13"] * (a["a22"] + l1)
    minor13 = (a["a11"] + l1) * (a["a23"] + l2) - a["a13"] * a["a21"]
    cubic = resultant_univariate(minor23, minor13, "l1")
    assert cubic.degree_in("l2") == 3
    coeffs = [complex(c.eval({})) for c in cubic.coefficients_in("l2")]
    roots = np.roots(coeffs[::-1])
    assert len(roots) == 3
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=8))
    assert len(eigs) == 3
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    for mine, theirs in zip(
        sorted((complex(r) for r in roots), key=key),
        sorted((e.lambdas[1] for e in eigs), key=key),
    ):
        assert abs(mine - theirs) < 1e-8


def test_extract_monomial_factor():
    k1, k2 = kvar("k1"), kvar("k2")
    e, q = extract_monomial_factor(k1**3 + k1 * k1 * k2, "k1")
    assert e == 2 and q == k1 + k2
    e, q = extract_monomial_factor(k1 + k2, "k1")
    assert e == 0 and q == k1 + k2
    with pytest.raises(UsageError):
        extract_monomial_factor(MultiPoly.zero(K), "k1")


def test_ring_axioms_on_random_polys():
    gen = make_gen(17)
    variables = ("x1", "x2", "x3", "x4")
    for _ in range(25):
        p = rand_poly(gen, variables)
        q = rand_poly(gen, variables)
        r = rand_poly(gen, variables)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)


def test_det_multiplicative_after_specialization():
    gen = make_gen(23)
    variables = ("x1", "x2")
    for _ in range(5):
        M = PolyMatrix(
            [[rand_poly(gen, variables, max_degree=1, terms=3) for _ in range(3)]
             for _ in range(3)]
        )
        N = PolyMatrix(
            [[rand_poly(gen, variables, max_degree=1, terms=3) for _ in range(3)]
             for _ in range(3)]
        )
        product = PolyMatrix(
            [
                [
                    sum(
                        (M.entries[i][t] * N.entries[t][j] for t in range(3)),
                        start=MultiPoly.zero(variables),
                    )
                    for j in range(3)
                ]
                for i in range(3)
            ]
        )
        point = {v: rand_fraction(gen) for v in variables}
        lhs = sym_det(product).eval(point)
        rhs = sym_det(M).eval(point) * sym_det(N).eval(point)
        assert lhs == rhs


def test_bareiss_agrees_with_laplace():
    gen = make_gen(31)
    variables = ("x1", "x2", "x3")
    for size in range(1, 7):
        M = PolyMatrix(
            [
                [rand_poly(gen, variables, max_degree=1, terms=2) for _ in range(size)]
                for _ in range(size)
            ]
        )
        assert sym_det(M, method="laplace") == _det_bareiss(M)


@pytest.mark.parametrize("e", [3, 4, 7, 8, 15, 16])
def test_packed_exponents_hold_the_top_degree(e):
    # the x and y bit fields of the packed exponents must hold e + 1, which
    # takes one bit more than e for e = 3, 7, 15
    variables = ("x", "y")
    x = MultiPoly.variable(variables, "x")
    y = MultiPoly.variable(variables, "y")
    M = PolyMatrix([[x**e, y], [y**e, x]])
    assert sym_det(M) == x ** (e + 1) - y ** (e + 1)
    assert sym_det(M) == _det_bareiss(M)
    N = PolyMatrix([[x**e, y, x * y + 1], [y**e, x, x**e * y], [x + 2, y**e * x, y**e]])
    assert sym_det(N) == _det_bareiss(N)


def test_resultant_vanishes_iff_common_root():
    variables = ("x", "y")
    x = MultiPoly.variable(variables, "x")
    y = MultiPoly.variable(variables, "y")
    # p has roots {y, 2y}; q has roots {2y + 1, 3}
    p = (x - y) * (x - 2 * y)
    q = (x - 2 * y - 1) * (x - 3)
    res = resultant_univariate(p, q, "x")
    # shared root exactly when y = -1 (y = 2y+1), y = 3, or 2y = 3
    for special in (Fraction(-1), Fraction(3), Fraction(3, 2)):
        assert res.eval({"y": special}) == 0
    for plain in (Fraction(0), Fraction(1), Fraction(5)):
        assert res.eval({"y": plain}) != 0
    shared = (x - y) * (x - 1)
    assert resultant_univariate(p, shared, "x").is_zero


def test_zero_polynomial_degree_sentinel():
    z = MultiPoly.zero(K)
    assert z.total_degree() == MINUS_INFINITY
    assert z.total_degree() != 0
    assert not z.terms


def test_canonical_text_ordering():
    p = MultiPoly(K, {(2, 1, 0): 3, (0, 3, 0): Fraction(-1, 2)})
    assert p.to_text() == "3*k1^2*k2 - 1/2*k2^3"


@pytest.mark.parametrize("domain", [RATIONAL, GAUSSIAN, COMPLEX])
def test_text_round_trip(domain):
    gen = make_gen(41)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            exp = tuple(int(gen.integers(0, 4)) for _ in K)
            if domain is RATIONAL:
                coeff = rand_fraction(gen)
            elif domain is GAUSSIAN:
                coeff = GaussianRational(rand_fraction(gen), rand_fraction(gen))
            else:
                coeff = complex(float(rand_fraction(gen)), float(rand_fraction(gen)))
            terms[exp] = coeff
        p = MultiPoly(K, terms, domain)
        back = MultiPoly.parse(p.to_text(), K, domain)
        assert back == p


def test_parse_rejects_unknown_symbol():
    with pytest.raises(UsageError):
        MultiPoly.parse("k1 + z9", K)


def test_mismatched_variable_lists_raise():
    p = MultiPoly.variable(("x",), "x")
    q = MultiPoly.variable(("y",), "y")
    with pytest.raises(UsageError):
        p * q


def test_gaussian_rational_field_ops():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z * z.conjugate() == GaussianRational(Fraction(13, 16))
    assert (z / z) == GaussianRational(1)
    w = GaussianRational(2, 1)
    assert z / w * w == z


def test_gaussian_domain_closure():
    variables = ("x",)
    x = MultiPoly.variable(variables, "x", GAUSSIAN)
    p = (x + GaussianRational(0, 1)) * (x - GaussianRational(0, 1))
    assert p == x * x + 1
