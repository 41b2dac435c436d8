"""Branch systems for upper-triangular pencils and their solutions."""

from fractions import Fraction

import pytest

from rectpencil import (
    MultiPoly,
    NumericFailure,
    PencilSpec,
    RectMatrix,
    SolverConfig,
    UsageError,
    build_branch_systems,
    check_heine_admissible,
    corank,
    heine_count,
    heine_solve,
    solve_eigenvalue_locus,
    standard_diagonal_basis,
)

from helpers import (
    lambda_multiset,
    make_gen,
    multisets_close,
    rand_admissible_upper,
)


def test_admissibility():
    assert check_heine_admissible(RectMatrix([[1, 0, 0], [0, 2, 0]]))
    assert not check_heine_admissible(RectMatrix([[1, 0, 0], [5, 2, 0]]))
    assert not check_heine_admissible(RectMatrix([[1, 0, 0], [0, 1, 0]]))


def test_heine_count_values():
    assert heine_count(2, 4) == (4, [3, 1])
    assert heine_count(2, 3) == (3, [2, 1])
    assert heine_count(1, 7) == (1, [1])
    assert heine_count(3, 5) == (10, [6, 3, 1])


def test_branch_systems_2x4_printed_forms():
    gen = make_gen(51)
    A = rand_admissible_upper(gen, 2, 4)
    a = {(i + 1, j + 1): A.entries[i][j] for i in range(2) for j in range(4)}
    b1, b2 = build_branch_systems(A)

    assert b1.lambda1 == -a[(1, 1)]
    lv = b1.equations[0].variables
    l2 = MultiPoly.variable(lv, "l2")
    l3 = MultiPoly.variable(lv, "l3")
    eq1 = (l2 + a[(1, 2)]) * (l2 + a[(2, 3)]) + (a[(1, 1)] - a[(2, 2)]) * (l3 + a[(1, 3)])
    eq2 = (l2 + a[(1, 2)]) * (l3 + a[(2, 4)]) + (a[(1, 1)] - a[(2, 2)]) * a[(1, 4)]
    assert b1.equations[0] == eq1
    assert b1.equations[1] == eq2
    # kernel coordinate: k2 = (a12 + l2) / (a11 - a22)
    assert b1.kernel_numerators[1] == l2 + a[(1, 2)]
    assert b1.kernel_denominators[1] == a[(1, 1)] - a[(2, 2)]

    # second branch is linear and fully forced
    assert b2.lambda1 == -a[(2, 2)]
    assert b2.equations[0] == l2 + a[(2, 3)]
    assert b2.equations[1] == l3 + a[(2, 4)]


def test_branch_system_shapes_and_denominators():
    gen = make_gen(53)
    for (m, n) in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        A = rand_admissible_upper(gen, m, n)
        systems = build_branch_systems(A)
        assert len(systems) == m
        for bs in systems:
            assert len(bs.equations) == n - m
            for eq in bs.equations:
                assert len(eq.variables) == n - m
            assert all(d != 0 for d in bs.kernel_denominators)


def test_single_row_matrix():
    A = RectMatrix([[3, -1, 4]])
    (bs,) = build_branch_systems(A)
    assert bs.lambda1 == -3
    assert len(bs.equations) == 2  # n - m linear tail equations
    eigs = heine_solve(A)
    assert len(eigs) == 1
    assert eigs[0].exact_lambdas == (Fraction(-3), Fraction(1), Fraction(-4))


def test_non_admissible_raises():
    with pytest.raises(UsageError):
        build_branch_systems(RectMatrix([[1, 0], [1, 1]]))
    with pytest.raises(UsageError):
        heine_solve(RectMatrix([[1, 0, 0], [0, 1, 0]]))


def test_heine_solve_degenerate_diagonal_case():
    # frozen by hand: branch 1 collapses to a double root at the origin
    A = RectMatrix([[1, 0, 0], [0, 2, 0]])
    eigs = heine_solve(A)
    found = sorted(
        (round(e.lambdas[0].real, 8), round(e.lambdas[1].real, 8), e.multiplicity)
        for e in eigs
    )
    assert found == [(-2.0, 0.0, 1), (-1.0, 0.0, 2)]
    assert sum(e.multiplicity for e in eigs) == 3


def test_heine_solve_2x4_counts_and_exact_branch():
    gen = make_gen(57)
    for trial in range(4):
        A = rand_admissible_upper(gen, 2, 4)
        eigs = heine_solve(A, config=SolverConfig(seed=trial))
        assert sum(e.multiplicity for e in eigs) == 4
        a22, a23, a24 = (A.entries[1][j] for j in (1, 2, 3))
        branch2 = [e for e in eigs if e.exact_lambdas is not None]
        assert len(branch2) == 1
        assert branch2[0].exact_lambdas == (-a22, -a23, -a24)
        assert branch2[0].lambdas == (
            complex(-a22),
            complex(-a23),
            complex(-a24),
        )


def test_swapped_diagonal_exchanges_branch_structure():
    # swapping a11 and a22 re-attaches the per-branch counts to the other
    # first-component value; the full multisets genuinely differ (checked
    # against the independent locus solver), so only the branch structure
    # is asserted here
    gen = make_gen(59)
    A = rand_admissible_upper(gen, 2, 4)
    entries = [list(row) for row in A.entries]
    entries[0][0], entries[1][1] = entries[1][1], entries[0][0]
    B = RectMatrix(entries)
    if not check_heine_admissible(B):
        pytest.skip("swap produced a repeated diagonal")

    def branch_counts(M):
        eigs = heine_solve(M, config=SolverConfig(seed=1))
        out = {}
        for e in eigs:
            key = round(e.lambdas[0].real, 8), round(e.lambdas[0].imag, 8)
            out[key] = out.get(key, 0) + e.multiplicity
        return out

    ca, cb = branch_counts(A), branch_counts(B)
    a11, a22 = A.entries[0][0], A.entries[1][1]
    key = lambda v: (round(float(-v), 8), -0.0 + 0.0)

    def lookup(counts, v):
        return counts[(round(float(-v), 8), 0.0)]

    assert lookup(ca, a11) == 3 and lookup(ca, a22) == 1
    assert lookup(cb, a22) == 3 and lookup(cb, a11) == 1
    # the count-1 branch keeps its closed form (-diag, -a23, -a24)
    closed_a = next(e for e in heine_solve(A) if e.exact_lambdas is not None)
    closed_b = next(e for e in heine_solve(B) if e.exact_lambdas is not None)
    assert closed_a.exact_lambdas[0] == -a22
    assert closed_b.exact_lambdas[0] == -a11
    assert closed_a.exact_lambdas[1:] == closed_b.exact_lambdas[1:]


def test_every_solution_is_rank_deficient():
    gen = make_gen(61)
    A = rand_admissible_upper(gen, 3, 4)
    for e in heine_solve(A, config=SolverConfig(seed=5)):
        member = PencilSpec(A, standard_diagonal_basis(3, 4)).member(e.lambdas)
        assert corank(member) >= 1


@pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 4)])
def test_heine_matches_locus(m, n):
    gen = make_gen(6300 + 10 * m + n)
    A = rand_admissible_upper(gen, m, n)
    hs = lambda_multiset(heine_solve(A, config=SolverConfig(seed=11)))
    spec = PencilSpec(A, standard_diagonal_basis(m, n))
    ls = lambda_multiset(solve_eigenvalue_locus(spec, SolverConfig(seed=12)))
    assert multisets_close(hs, ls, tol=1e-7)


# A triple eigenvalue traps branch 1 as it traps the general solver (see
# test_triple_eigenvalue_2x4 in tests/test_locus.py); same draws, with the
# solver seeds of their heine_solve operations.
@pytest.mark.xfail(strict=True, raises=NumericFailure, reason="triple eigenvalue")
@pytest.mark.parametrize(
    "entries,seed",
    [
        ([[-5, 6, 0, -1], [0, -6, 9, -3]], 686934272),
        ([[-2, -4, -2, 0], [0, -8, -4, -2]], 1804350436),
    ],
)
def test_heine_triple_eigenvalue_2x4(entries, seed):
    eigs = heine_solve(RectMatrix(entries), SolverConfig(seed=seed))
    assert sorted(e.multiplicity for e in eigs) == [1, 3]
