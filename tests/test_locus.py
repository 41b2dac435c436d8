"""Numeric locus solver: the Newton batch, the Delta eigenproblem, residuals,
multiplicities, determinism."""

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
    solve_eigenvalue_locus,
    standard_diagonal_basis,
)
from rectpencil import locus
from rectpencil.heine import build_branch_systems
from rectpencil.locus import (
    _cluster,
    _CompiledSystem,
    _solve_steps,
    newton_system,
    system_local_multiplicity,
)

from helpers import (
    lambda_multiset,
    make_gen,
    multisets_close,
    rand_admissible_upper,
    rand_fraction,
    rand_poly,
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


@pytest.mark.parametrize("knobs", [{"seed": -1}, {"starts": 0}])
def test_solver_config_rejects_bad_knobs(knobs):
    # numpy's seeding rejects a negative seed with a bare ValueError
    with pytest.raises(UsageError):
        SolverConfig(**knobs)


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
    # pair each resultant root with a distinct nearest solver root: conjugate
    # roots can share a real part, so sorting both lists pairs them by noise
    solver_l2 = [e.lambdas[1] for e in eigs]
    for root in np.roots(coeffs[::-1]):
        nearest = min(range(len(solver_l2)), key=lambda i: abs(solver_l2[i] - root))
        assert abs(solver_l2.pop(nearest) - root) < 1e-8


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


# -- compiled kernel -----------------------------------------------------------


def test_values_and_jacobian_match_polynomial_eval():
    gen = make_gen(101)
    variables = ("x", "y", "z")
    polys = [
        rand_poly(gen, variables, max_degree=4, terms=6),
        MultiPoly.zero(variables),
        MultiPoly.constant(variables, Fraction(-3, 7)),
        rand_poly(gen, variables, max_degree=1, terms=3),
        rand_poly(gen, variables, max_degree=6, terms=8),
    ]
    system = _CompiledSystem(polys)
    X = gen.standard_normal((5, 3)) + 1j * gen.standard_normal((5, 3))
    F, J = system.values_and_jacobian(X)
    assert F.shape == (5, 5) and J.shape == (5, 5, 3)
    for s, x in enumerate(X):
        point = dict(zip(variables, (complex(z) for z in x)))
        for i, p in enumerate(polys):
            assert abs(F[s, i] - complex(p.eval(point))) <= 1e-12 * (1 + abs(F[s, i]))
            for j, v in enumerate(variables):
                want = complex(p.derivative(v).eval(point))
                assert abs(J[s, i, j] - want) <= 1e-12 * (1 + abs(want))


def _greedy_cluster_reference(points, radius):
    """The per-point greedy loop that _cluster must reproduce."""
    order = sorted(points, key=lambda p: tuple((z.real, z.imag) for z in p))
    clusters = []
    for p in order:
        for cl in clusters:
            if max(abs(a - b) for a, b in zip(p, cl[0])) <= radius:
                cl.append(p)
                break
        else:
            clusters.append([p])
    return clusters


def test_cluster_matches_greedy_reference():
    gen = make_gen(103)
    centres = gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))
    noisy = centres[gen.integers(0, 6, 60)] + 0.3 * gen.standard_normal((60, 2))
    # chains at exactly the radius: a-b and b-c are at 0.5, a-c is at 1.0
    chain = np.array([[0, 0], [0.5, 0], [1.0, 0], [0.5j, 0.5j], [0, 0.5 + 0.5j]])
    for points, radius in ((noisy, 0.4), (noisy, 1.5), (chain, 0.5), (chain, 0.25)):
        points = np.asarray(points, dtype=complex)
        got = [[tuple(points[i]) for i in cl] for cl in _cluster(points, radius)]
        assert got == _greedy_cluster_reference([tuple(p) for p in points], radius)


def test_singular_jacobian_steps_match_pointwise_solve():
    gen = make_gen(107)
    J = gen.standard_normal((6, 2, 2)) + 1j * gen.standard_normal((6, 2, 2))
    J[1] = [[1, 2], [2, 4]]
    J[4] = [[0, 0], [3j, 1]]
    F = gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))
    assert (np.linalg.det(J) == 0).sum() == 2
    steps = _solve_steps(J, F)
    for i in range(6):
        try:
            want = np.linalg.solve(J[i], F[i])
        except np.linalg.LinAlgError:
            want = np.linalg.lstsq(J[i], F[i], rcond=None)[0]
        assert np.allclose(steps[i], want, rtol=1e-12, atol=1e-12)


def _count_multiplicity_calls(monkeypatch):
    calls = []
    original = locus.local_multiplicity

    def counted(spec, at):
        calls.append(at)
        return original(spec, at)

    monkeypatch.setattr(locus, "local_multiplicity", counted)
    return calls


@pytest.mark.parametrize("m,n,seed", [(2, 4, 109), (3, 5, 113)])
def test_generic_roots_certified_without_macaulay(monkeypatch, m, n, seed):
    calls = _count_multiplicity_calls(monkeypatch)
    spec = PencilSpec(rand_rational_matrix(make_gen(seed), m, n), standard_diagonal_basis(m, n))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=seed))
    assert [e.multiplicity for e in eigs] == [1] * math.comb(n, m - 1)
    assert calls == []


@pytest.mark.parametrize("m,n", [(2, 4), (3, 5)])
def test_zero_pencil_skips_macaulay_path(monkeypatch, m, n):
    # every X_j is zero, so the Delta spectrum is one cluster of binom(n, m-1)
    calls = _count_multiplicity_calls(monkeypatch)
    spec = PencilSpec(RectMatrix.zeros(m, n), standard_diagonal_basis(m, n))
    (e,) = solve_eigenvalue_locus(spec, SolverConfig(seed=3))
    assert e.multiplicity == math.comb(n, m - 1)
    assert e.flags == ("possibly-multiple", "numerical")
    assert calls == []


# -- multiple eigenvalues --------------------------------------------------------


@pytest.mark.parametrize(
    "entries,seed",
    [
        ([[-6, 6, 4, 0], [0, -7, -5, 4]], 2058650476),
        ([[1, 7, 1, 0], [0, 0, -4, 1]], 1523959597),
    ],
)
def test_double_eigenvalue_triangular_2x4(entries, seed):
    spec = PencilSpec(RectMatrix(entries), standard_diagonal_basis(2, 4))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=seed))
    assert sorted(e.multiplicity for e in eigs) == [1, 1, 2]
    assert all(e.residual <= 1e-8 for e in eigs)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "entries,multiplicities",
    [
        ([[-8, 0], [8, -8]], [2]),
        ([[-8, 0, 0], [8, -8, 0], [1, 2, 5]], [1, 2]),
    ],
)
def test_double_eigenvalue_square(entries, multiplicities, seed):
    # k = 1: the Delta matrices are m x m, and a double root is a Jordan
    # block of X_1 whose two computed copies form one cluster
    m = len(entries)
    spec = PencilSpec(RectMatrix(entries), standard_diagonal_basis(m, m))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=seed))
    assert sorted(e.multiplicity for e in eigs) == multiplicities


def test_double_eigenvalue_2x3_sweep():
    # a21 = 0 and a11 = a22 give p_A(r) = r^2 (a23 - a12 - a13 r): a double
    # eigenvalue at kappa = (0, 1) and a simple one, when a13 != 0 != a23 - a12
    gen = make_gen(2024)
    solved = 0
    for draw in range(45):
        e = [[rand_fraction(gen) for _ in range(3)] for _ in range(2)]
        e[1][0], e[1][1] = Fraction(0), e[0][0]
        if e[0][2] == 0 or e[1][2] == e[0][1]:
            continue
        spec = PencilSpec(RectMatrix(e), standard_diagonal_basis(2, 3))
        eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=draw))
        assert sorted(x.multiplicity for x in eigs) == [1, 2], (draw, e)
        solved += 1
    assert solved >= 40


# A triple eigenvalue (p_A with a cubed factor): Newton stalls near the triple
# point (steps of about eps^(1/3)), so the Delta eigenproblem solves these,
# where the triple point is a Jordan block whose three copies form one cluster.
# The draws come from the triangular-heine benchmark workload at (workload
# seed, round) = (5, 442), (6, 321), (11, 403), (11, 183) and (20, 298), with
# the solver seeds of their general solves.
@pytest.mark.parametrize(
    "entries,seed",
    [
        ([[-5, 6, 0, -1], [0, -6, 9, -3]], 1172400668),
        ([[-2, -4, -2, 0], [0, -8, -4, -2]], 1932798683),
        ([[-1, 4, -7, 0], [0, 9, 4, -7]], 666188110),
        ([[3, -6, 4, -2], [0, 1, 0, -2]], 328837930),
        ([[-6, 0, 3, 1], [0, -5, -3, 6]], 413382341),
    ],
)
def test_triple_eigenvalue_2x4(entries, seed):
    spec = PencilSpec(RectMatrix(entries), standard_diagonal_basis(2, 4))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=seed))
    assert sorted(e.multiplicity for e in eigs) == [1, 3]


def test_triple_eigenvalue_is_seed_invariant():
    # the mean of the triple point over its spectral projector, not any one
    # of its copies, is lambda: it agrees across seeds to rounding
    spec = PencilSpec(RectMatrix([[0, -2, -5, 0], [0, -9, -2, -5]]), standard_diagonal_basis(2, 4))
    solves = [solve_eigenvalue_locus(spec, SolverConfig(seed=seed)) for seed in (0, 1, 1000)]
    for eigs in solves:
        assert sorted(e.multiplicity for e in eigs) == [1, 3]
        for e, first in zip(eigs, solves[0]):
            assert max(abs(a - b) for a, b in zip(e.lambdas, first.lambdas)) <= 1e-12


# p_A(r) = (r - 1)^4 (r - 3), (r - 1)^3 (r + 2)^3 and (r - 1)^2 (r - 2)^2 (r - 3)^2:
# several Jordan blocks, each one cluster whose mean passes the residual
@pytest.mark.parametrize("seed", [0, 1, 1000])
@pytest.mark.parametrize(
    "entries,multiplicities",
    [
        ([[4, 2, 0, -3, -1], [-3, 17, -20, 18, -10]], [1, 4]),
        ([[4, 2, 0, -3, -2, -1], [-8, 16, 8, -11, -6, 1]], [3, 3]),
        ([[4, 2, 0, -3, -2, -1], [36, -128, 195, -144, 55, -14]], [2, 2, 2]),
    ],
)
def test_several_multiple_eigenvalues(entries, multiplicities, seed):
    n = len(entries[0])
    spec = PencilSpec(RectMatrix(entries), standard_diagonal_basis(2, n))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=seed))
    assert sorted(e.multiplicity for e in eigs) == multiplicities
    assert all(e.residual <= 1e-8 for e in eigs)


def test_newton_short_4x7_draw_solved_by_delta():
    # the Newton batch finds 34 of the 35 eigenvalues of this draw at seed 0
    entries = [
        ["6/5", "0", "4/3", "1/5", "2/3", "-5/4", "3/2"],
        ["1", "-2", "-8/5", "7/2", "-1", "-1", "0"],
        ["3", "-1", "1/7", "-1/6", "1/4", "-3", "1/2"],
        ["4/3", "7/8", "2/5", "-4", "4", "4", "2/7"],
    ]
    A = RectMatrix([[Fraction(v) for v in row] for row in entries])
    eigs = solve_eigenvalue_locus(PencilSpec(A, standard_diagonal_basis(4, 7)), SolverConfig(seed=0))
    assert sum(e.multiplicity for e in eigs) == math.comb(7, 3)
    assert all(e.residual <= 1e-8 for e in eigs)


# -- one Newton batch -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_triangular_solve_skips_hyperplane(monkeypatch, seed):
    # the bordered minors of an upper-triangular pencil share the factor
    # a11 + l1, so the Newton batch falls short; the Delta eigenproblem has no
    # such component, and the solve runs no second batch
    calls = []
    newton = locus.newton_system

    def counted_newton(*args, **kwargs):
        calls.append(None)
        return newton(*args, **kwargs)

    monkeypatch.setattr(locus, "newton_system", counted_newton)
    spec = PencilSpec(RectMatrix([[1, 2, 3, 4], [0, 5, 6, 7]]), standard_diagonal_basis(2, 4))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=seed))
    assert sum(e.multiplicity for e in eigs) == 4
    assert len(calls) == 1


# -- stopping at the count ------------------------------------------------------


def test_newton_batch_stops_at_full_count(monkeypatch):
    # without a stop test the bordered batch of this 3x5 pencil runs all
    # NEWTON_MAX_ITER iterations: starts that drift along the spurious curves
    # of the bordered minors never meet the step test.  Its ten eigenvalues are
    # certified simple long before that, which stops the batch.
    calls = []
    steps = locus._solve_steps

    def counted(J, F):
        calls.append(None)
        return steps(J, F)

    monkeypatch.setattr(locus, "_solve_steps", counted)
    spec = PencilSpec(rand_rational_matrix(make_gen(101), 3, 5), standard_diagonal_basis(3, 5))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=101))
    assert len(calls) <= 30
    assert [e.multiplicity for e in eigs] == [1] * math.comb(5, 2)
    assert all(e.residual < 1e-8 for e in eigs)


@pytest.mark.parametrize("seed", range(4))
def test_nontransversal_line_plus_point_raises(seed):
    # the locus is the line lambda_1 = 1 and one isolated point: points on the
    # line never certify simple, so the Newton batch falls short, and the
    # exact det Delta_0 is 0
    A = RectMatrix([[1, 0, 0], [-1, 0, 0]])
    B1 = RectMatrix([[0, 1, 0], [1, 0, 0]])
    B2 = RectMatrix([[0, 0, 1], [0, 0, 0]])
    with pytest.raises(NumericFailure) as err:
        solve_eigenvalue_locus(PencilSpec(A, (B1, B2)), SolverConfig(seed=seed))
    assert err.value.details["expected"] == 3
