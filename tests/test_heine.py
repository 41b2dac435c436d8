"""Branch systems for upper-triangular pencils and their solutions."""

from fractions import Fraction

import pytest

from rectpencil import (
    MultiPoly,
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


def branch_of(A, e):
    """Zero-based branch of an eigenvalue: the row i with lambda_1 = -a_ii."""
    (i,) = [j for j in range(A.rows) if e.lambdas[0] == complex(-A.entries[j][j])]
    return i


def branch_counts(A, eigs):
    counts = [0] * A.rows
    for e in eigs:
        counts[branch_of(A, e)] += e.multiplicity
    return counts


@pytest.mark.parametrize("seed", range(3))
def test_heine_3x5_branch_with_triple_root(seed):
    # branch 2 is one triple root
    A = RectMatrix([[8, -6, 8, 4, 6], [0, 0, 8, -3, 0], [0, 0, 9, 8, -3]])
    eigs = heine_solve(A, SolverConfig(seed=seed))
    assert sum(e.multiplicity for e in eigs) == 10
    assert branch_counts(A, eigs) == [6, 3, 1]


def test_heine_4x7_full_branch_counts():
    # branch 1 alone carries C(6, 3) = 20 roots
    A = rand_admissible_upper(make_gen(0), 4, 7)
    eigs = heine_solve(A, SolverConfig(seed=0))
    assert sum(e.multiplicity for e in eigs) == 35
    assert branch_counts(A, eigs) == [20, 10, 4, 1]


@pytest.mark.parametrize("seed", range(4))
def test_heine_3x4_double_root_in_square_block(seed):
    # branch 2 is the square 2x2 block pencil, with a double eigenvalue
    A = RectMatrix([[-5, 9, 1, 7], [0, 1, -8, 0], [0, 0, 9, -8]])
    eigs = heine_solve(A, SolverConfig(seed=seed))
    assert branch_counts(A, eigs) == [3, 2, 1]
    assert sorted(e.multiplicity for e in eigs) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("m,n", [(2, 4), (3, 5), (2, 6)])
def test_heine_solve_agrees_with_branch_systems(m, n):
    # every branch-i eigenvalue solves the branch-i system, and its kernel
    # vector vanishes on the rows above row i
    gen = make_gen(7000 + 10 * m + n)
    for trial in range(3):
        A = rand_admissible_upper(gen, m, n)
        systems = build_branch_systems(A)
        eigs = heine_solve(A, SolverConfig(seed=trial))
        assert branch_counts(A, eigs) == heine_count(m, n)[1]
        for e in eigs:
            i = branch_of(A, e)
            bs = systems[i]
            point = dict(zip(bs.variables, e.lambdas[1:]))
            for eq in bs.equations:
                assert abs(complex(eq.eval(point))) < 1e-9, (trial, i)
            assert all(abs(z) < 1e-9 for z in e.kappa[:i]), (trial, i)


# A triple eigenvalue is all of branch 1 here: the trailing block's
# eigenvalues coincide, and the block solve finds them (the general 2x4 solve
# of the same draws: test_triple_eigenvalue_2x4 in tests/test_locus.py).  The
# draws come from the triangular-heine benchmark workload, with the solver
# seeds of their heine_solve operations: 2x4 at (workload seed, round) =
# (5, 442) and (6, 321), 2x6 at (5, 840), (20, 272) and (32, 826).
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


@pytest.mark.parametrize(
    "entries,seed",
    [
        ([[2, 1, -8, -6, 5, 0], [0, 0, -8, -9, -6, 5]], 442277255),
        ([[9, -6, 0, -9, 9, 0], [0, 4, 6, -4, -9, 9]], 1318381827),
        ([[7, 6, -2, 2, 9, 0], [0, 2, 6, 0, 2, 9]], 990828281),
    ],
)
def test_heine_triple_eigenvalue_2x6(entries, seed):
    eigs = heine_solve(RectMatrix(entries), SolverConfig(seed=seed))
    assert sorted(e.multiplicity for e in eigs) == [1, 1, 1, 3]
