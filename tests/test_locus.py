"""Numeric locus solver: Newton batches, residuals, multiplicities, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rectpencil import (
    MultiPoly,
    NumericFailure,
    PencilSpec,
    RectMatrix,
    SolverConfig,
    UsageError,
    local_multiplicity,
    newton_system,
    solve_eigenvalue_locus,
    standard_diagonal_basis,
)
from rectpencil.heine import build_branch_systems
from rectpencil.locus import system_local_multiplicity

from helpers import (
    lambda_multiset,
    make_gen,
    multisets_close,
    rand_admissible_upper,
    rand_rational_matrix,
)


def test_newton_square_root_pair():
    x = MultiPoly.variable(("x",), "x")
    roots = newton_system([x * x - 1], SolverConfig(seed=1, starts=20))
    points = sorted(round(r.point[0].real, 9) for r in roots)
    assert points == [-1.0, 1.0]
    assert all(not r.possibly_multiple for r in roots)


def test_newton_finds_branch_count():
    gen = make_gen(71)
    A = rand_admissible_upper(gen, 2, 4)
    b1 = build_branch_systems(A)[0]
    roots = newton_system(list(b1.equations), SolverConfig(seed=3, starts=120), scale=5.0)
    assert len(roots) == 3


def test_newton_flags_engineered_double_root():
    variables = ("x", "y")
    x = MultiPoly.variable(variables, "x")
    y = MultiPoly.variable(variables, "y")
    roots = newton_system([x + y - 2, x * y - 1], SolverConfig(seed=5, starts=40))
    assert len(roots) == 1
    assert roots[0].possibly_multiple
    assert abs(roots[0].point[0] - 1) < 1e-6 and abs(roots[0].point[1] - 1) < 1e-6


def test_newton_requires_square_system():
    x = MultiPoly.variable(("x", "y"), "x")
    with pytest.raises(UsageError):
        newton_system([x], SolverConfig(seed=1, starts=4))


def test_solve_matches_resultant_oracle():
    from rectpencil import resultant_univariate

    gen = make_gen(73)
    A = rand_rational_matrix(gen, 2, 3)
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=7))
    assert len(eigs) == 3 and all(e.multiplicity == 1 for e in eigs)
    assert all(e.residual < 1e-8 for e in eigs)

    variables = ("l1", "l2")
    l1 = MultiPoly.variable(variables, "l1")
    l2 = MultiPoly.variable(variables, "l2")
    a = {
        f"a{i}{j}": MultiPoly.constant(variables, A.entries[i - 1][j - 1])
        for i in (1, 2)
        for j in (1, 2, 3)
    }
    minor23 = (a["a12"] + l2) * (a["a23"] + l2) - a["a13"] * (a["a22"] + l1)
    minor13 = (a["a11"] + l1) * (a["a23"] + l2) - a["a13"] * a["a21"]
    cubic = resultant_univariate(minor23, minor13, "l1")
    coeffs = [complex(c.eval({})) for c in cubic.coefficients_in("l2")]
    l2_roots = sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag))
    solver_l2 = sorted((e.lambdas[1] for e in eigs), key=lambda z: (z.real, z.imag))
    for mine, theirs in zip(l2_roots, solver_l2):
        assert abs(mine - theirs) < 1e-8


def test_completeness_2x5():
    gen = make_gen(67)
    A = rand_rational_matrix(gen, 2, 5)
    spec = PencilSpec(A, standard_diagonal_basis(2, 5))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=19))
    assert sum(e.multiplicity for e in eigs) == math.comb(5, 1)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 4)])
def test_zero_matrix_total_multiplicity(m, n):
    spec = PencilSpec(RectMatrix.zeros(m, n), standard_diagonal_basis(m, n))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=2))
    assert len(eigs) == 1
    assert eigs[0].multiplicity == math.comb(n, m - 1)
    assert max(abs(z) for z in eigs[0].lambdas) < 1e-6


def test_flags_follow_multiplicity():
    gen = make_gen(5)
    spec = PencilSpec(rand_rational_matrix(gen, 2, 4), standard_diagonal_basis(2, 4))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=5))
    assert [e.multiplicity for e in eigs] == [1] * math.comb(4, 1)
    assert all(e.flags == () for e in eigs)
    zero = PencilSpec(RectMatrix.zeros(2, 4), standard_diagonal_basis(2, 4))
    (e,) = solve_eigenvalue_locus(zero, SolverConfig(seed=5))
    assert e.multiplicity == 4
    assert e.flags == ("possibly-multiple", "numerical")


def test_scaling_homotopy():
    # eigenvalues of (eps * A) are eps times the eigenvalues of A
    gen = make_gen(79)
    A = rand_rational_matrix(gen, 2, 3)
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=11))
    half = A.scale(Fraction(1, 2))
    spec_half = PencilSpec(half, standard_diagonal_basis(2, 3, half.domain))
    eigs_half = solve_eigenvalue_locus(spec_half, SolverConfig(seed=13))
    key = lambda item: tuple((round(r, 6), round(i, 6)) for r, i in item)
    scaled = sorted(
        (tuple((z.real / 2, z.imag / 2) for z in e.lambdas) for e in eigs), key=key
    )
    found = sorted(
        (tuple((z.real, z.imag) for z in e.lambdas) for e in eigs_half), key=key
    )
    for x, y in zip(scaled, found):
        for (ar, ai), (br, bi) in zip(x, y):
            assert abs(complex(ar, ai) - complex(br, bi)) < 1e-7


def test_kernel_contract():
    gen = make_gen(83)
    for (m, n) in [(2, 3), (3, 4)]:
        A = rand_rational_matrix(gen, m, n)
        spec = PencilSpec(A, standard_diagonal_basis(m, n))
        for e in solve_eigenvalue_locus(spec, SolverConfig(seed=17)):
            member = spec.member(e.lambdas).to_numpy()
            kappa = np.array(e.kappa)
            residual = np.linalg.norm(kappa @ member)
            assert residual <= 10 * 1e-8 * max(1.0, np.linalg.norm(member))
            assert abs(max(abs(z) for z in e.kappa) - 1.0) < 1e-12


def test_seed_determinism():
    gen = make_gen(89)
    A = rand_rational_matrix(gen, 2, 4)
    spec = PencilSpec(A, standard_diagonal_basis(2, 4))
    one = solve_eigenvalue_locus(spec, SolverConfig(seed=23))
    two = solve_eigenvalue_locus(spec, SolverConfig(seed=23))
    assert one == two
    three = solve_eigenvalue_locus(spec, SolverConfig(seed=24))
    assert lambda_multiset(one) is not None  # smoke: different seed still agrees
    assert multisets_close(lambda_multiset(one), lambda_multiset(three), tol=1e-7)


def test_local_multiplicity_simple_point_is_one():
    gen = make_gen(97)
    A = rand_rational_matrix(gen, 2, 3)
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=29))
    for e in eigs:
        assert local_multiplicity(spec, e) == 1


def test_local_multiplicity_exact_at_zero():
    for (m, n), expected in [((2, 3), 3), ((2, 4), 4), ((3, 4), 6)]:
        spec = PencilSpec(RectMatrix.zeros(m, n), standard_diagonal_basis(m, n))
        zero = tuple(Fraction(0) for _ in range(n - m + 1))
        assert local_multiplicity(spec, zero) == expected


def test_local_multiplicity_quotient_structure_2x3():
    # ideal (t1^2, t1 t2, t2^2): quotient basis {1, t1, t2}
    spec = PencilSpec(RectMatrix.zeros(2, 3), standard_diagonal_basis(2, 3))
    assert local_multiplicity(spec, (Fraction(0), Fraction(0))) == 3


def test_system_local_multiplicity_square():
    variables = ("x", "y")
    x = MultiPoly.variable(variables, "x")
    y = MultiPoly.variable(variables, "y")
    assert system_local_multiplicity([x, y], (Fraction(0), Fraction(0))) == 1
    assert system_local_multiplicity([x * x, y], (Fraction(0), Fraction(0))) == 2
    assert system_local_multiplicity([x * x, x * y, y * y], (0.0, 0.0)) == 3


def test_local_multiplicity_nonroot_is_zero():
    A = RectMatrix([[1, 2, 3], [0, 4, 5]])
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    assert local_multiplicity(spec, (Fraction(0), Fraction(0))) == 0


def test_nontransversal_pencil_raises_diagnostic():
    # every member of this pencil keeps a zero second row: the locus is a
    # curve, so the expected finite count can never be reached
    E11 = RectMatrix([[1, 0, 0], [0, 0, 0]])
    E12 = RectMatrix([[0, 1, 0], [0, 0, 0]])
    spec = PencilSpec(RectMatrix.zeros(2, 3), (E11, E12))
    with pytest.raises(NumericFailure) as err:
        solve_eigenvalue_locus(spec, SolverConfig(seed=3, starts=20))
    assert "expected" in str(err.value) or err.value.details


def test_eigenvalue_serialization():
    spec = PencilSpec(RectMatrix.zeros(2, 3), standard_diagonal_basis(2, 3))
    (e,) = solve_eigenvalue_locus(spec, SolverConfig(seed=2))
    d = e.as_dict()
    assert set(d) == {"lambda", "kappa", "residual", "multiplicity", "flags"}
    assert d["multiplicity"] == 3
    assert len(d["lambda"]) == 2 and len(d["lambda"][0]) == 2
