"""Property tests: the locus solver's output does not depend on its seed."""

from hypothesis import given, settings, strategies as st

from rectpencil import PencilSpec, RectMatrix, SolverConfig, solve_eigenvalue_locus, standard_diagonal_basis

from helpers import make_gen, rand_rational_matrix

seeds = st.integers(0, 2**31 - 1)


def rand_rational_upper(gen, m, n):
    """Rational upper-triangular matrix with distinct diagonal."""
    while True:
        A = rand_rational_matrix(gen, m, n)
        entries = [[v if j >= i else 0 for j, v in enumerate(row)] for i, row in enumerate(A.entries)]
        if len({entries[i][i] for i in range(m)}) == m:
            return RectMatrix(entries)


# Hypothesis draws the seed of the pencil generator, not the entries one by
# one, and the triangular entries are rational, not small integers: both kinds
# of draw reach pencils with triple eigenvalues, where Newton stalls and the
# solve depends on the seed (test_triple_eigenvalue_2x4_stalls).
FAMILIES = {
    "generic 2x4": lambda gen: rand_rational_matrix(gen, 2, 4),
    "generic 3x5": lambda gen: rand_rational_matrix(gen, 3, 5),
    "generic 4x5": lambda gen: rand_rational_matrix(gen, 4, 5),
    "triangular 2x4": lambda gen: rand_rational_upper(gen, 2, 4),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FAMILIES)), seeds, seeds, seeds)
def test_solution_is_seed_invariant(family, draw, seed_a, seed_b):
    A = FAMILIES[family](make_gen(draw))
    spec = PencilSpec(A, standard_diagonal_basis(A.rows, A.cols))
    one = solve_eigenvalue_locus(spec, SolverConfig(seed=seed_a))
    two = [(e.lambdas, e.multiplicity) for e in solve_eigenvalue_locus(spec, SolverConfig(seed=seed_b))]
    assert len(one) == len(two)
    # pair each eigenvalue with a distinct nearest one of the other solve
    for e in one:
        gap = [max(abs(a - b) for a, b in zip(e.lambdas, lam)) for lam, _ in two]
        lam, mult = two.pop(gap.index(min(gap)))
        assert min(gap) <= 1e-8 and mult == e.multiplicity, (e, lam, mult)
