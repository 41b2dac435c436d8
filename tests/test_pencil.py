"""Matrices, diagonal basis, corank, minors, chart map, transversality, JSON."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rectpencil import (
    COMPLEX,
    GAUSSIAN,
    GaussianRational,
    MultiPoly,
    PencilSpec,
    PolyMatrix,
    RATIONAL,
    RectMatrix,
    ResolutionPoint,
    SolverConfig,
    UsageError,
    corank,
    matrix_from_json,
    matrix_to_json,
    maximal_minors,
    resolution_nu,
    solve_eigenvalue_locus,
    standard_diagonal_basis,
    transversality_check,
    sym_det,
    unit_diagonal_matrix,
)
from rectpencil.critical import build_T, kappa_variables
from rectpencil.pencil import linear_forms, minor_coefficient_matrix, row_echelon

from helpers import (
    det_bareiss,
    make_gen,
    non_transversal_basis,
    rand_fraction,
    rand_rational_matrix,
    transformed_diagonal_basis,
)


def test_unit_diagonal_2x3():
    J1 = unit_diagonal_matrix(2, 3, 1)
    J2 = unit_diagonal_matrix(2, 3, 2)
    assert [[int(v) for v in row] for row in J1.entries] == [[1, 0, 0], [0, 1, 0]]
    assert [[int(v) for v in row] for row in J2.entries] == [[0, 1, 0], [0, 0, 1]]
    with pytest.raises(UsageError):
        unit_diagonal_matrix(2, 3, 3)


def test_unit_diagonal_rows_match_banded_matrix():
    # stacking kappa * J_s rows for (3,4) gives the banded structure
    kvars = kappa_variables(3)
    T = build_T(3, 2)
    for s in (1, 2):
        J = unit_diagonal_matrix(3, 4, s)
        row = []
        for c in range(4):
            terms = {}
            for r in range(3):
                if J.entries[r][c] != 0:
                    exp = tuple(1 if i == r else 0 for i in range(3))
                    terms[exp] = J.entries[r][c]
            row.append(MultiPoly(kvars, terms))
        assert list(T.entries[s - 1]) == row


def test_unit_diagonal_rank_and_support():
    for (m, n) in [(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]:
        for s in range(1, n - m + 2):
            J = unit_diagonal_matrix(m, n, s)
            nonzero = sum(1 for row in J.entries for v in row if v != 0)
            assert nonzero == m
            assert J.rank() == m


def test_standard_diagonal_basis():
    basis = standard_diagonal_basis(2, 3)
    assert len(basis) == 2
    assert basis[0] == unit_diagonal_matrix(2, 3, 1)
    assert basis[1] == unit_diagonal_matrix(2, 3, 2)
    one = standard_diagonal_basis(1, 1)
    assert len(one) == 1 and one[0].entries[0][0] == 1


def test_nonzero_diagonal_combinations_have_full_rank():
    gen = make_gen(3)
    basis = standard_diagonal_basis(2, 3)
    for _ in range(20):
        c1, c2 = rand_fraction(gen), rand_fraction(gen)
        if c1 == 0 and c2 == 0:
            continue
        combo = basis[0].scale(c1) + basis[1].scale(c2)
        assert combo.rank() == 2


def test_corank_basics():
    assert corank(unit_diagonal_matrix(2, 3, 1)) == 0
    assert corank(RectMatrix.zeros(2, 3)) == 2


def test_corank_at_solved_eigenvalue():
    gen = make_gen(9)
    A = rand_rational_matrix(gen, 2, 3)
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=2))
    for e in eigs:
        member = spec.member(e.lambdas)
        assert corank(member) >= 1


def test_maximal_minors_scalar():
    M = RectMatrix([[1, 0, 0], [0, 1, 0]])
    assert [int(v) for v in maximal_minors(M)] == [1, 0, 0]


def test_maximal_minors_symbolic_matches_eigen_equation():
    # the {2,3} minor of A - l1 J1 - l2 J2 is the first eigenvalue equation
    from rectpencil import eigen_equations

    variables = ("l1", "l2") + tuple(
        f"a{i}{j}" for i in (1, 2) for j in (1, 2, 3)
    )

    def v(name):
        return MultiPoly.variable(variables, name)

    grid = [
        [v("a11") - v("l1"), v("a12") - v("l2"), v("a13")],
        [v("a21"), v("a22") - v("l1"), v("a23") - v("l2")],
    ]
    minors = maximal_minors(PolyMatrix(grid))
    minor23, minor13 = eigen_equations()
    assert minors[2] == minor23.with_variables(variables)
    assert minors[1] == minor13.with_variables(variables)


def test_maximal_minors_banded():
    T = build_T(3, 2)
    kvars = kappa_variables(3)

    def mono(**powers):
        exp = tuple(powers.get(v, 0) for v in kvars)
        return MultiPoly(kvars, {exp: 1})

    expected = [
        mono(k1=2),
        mono(k1=1, k2=1),
        mono(k1=1, k3=1),
        mono(k2=2) - mono(k1=1, k3=1),
        mono(k2=1, k3=1),
        mono(k3=2),
    ]
    assert maximal_minors(T) == expected


def _laplace_reference(M):
    """Division-free expansion of one square submatrix on its own columns,
    term by term through MultiPoly arithmetic: the shared expansion must
    reproduce it bit for bit in floating point."""
    n = M.rows
    level = {0: MultiPoly.constant(M.variables, 1, M.domain)}
    for r in range(n):
        nxt = {}
        for mask, minor in level.items():
            for c in range(n):
                bit = 1 << c
                e = M.entries[r][c]
                if mask & bit or e.is_zero:
                    continue
                term = e * minor
                if (r + bin(mask & (bit - 1)).count("1")) & 1:
                    term = -term
                acc = nxt.get(mask | bit)
                nxt[mask | bit] = term if acc is None else acc + term
        level = nxt
        if not level:
            return MultiPoly.zero(M.variables, M.domain)
    return level[(1 << n) - 1]


def _locus_style_pencils(gen, domain):
    """Pencil matrices A + sum(l_i L_i) over the diagonal basis, 2x3 to 5x8
    in floating point and to 4x6 in exact domains, and over a dense random
    basis to 3x5 (the reference expansion takes seconds beyond these)."""
    sizes = ((2, 3), (2, 5), (3, 5), (4, 6), (5, 8))
    for m, n in sizes if domain is COMPLEX else sizes[:-1]:
        k = n - m + 1

        def scalar():
            if domain is COMPLEX:
                return complex(gen.standard_normal(), gen.standard_normal())
            re = rand_fraction(gen, maxden=99)
            if domain is RATIONAL:
                return re
            return GaussianRational(re, rand_fraction(gen, maxden=99))

        base = RectMatrix([[scalar() for _ in range(n)] for _ in range(m)], domain)
        lvars = tuple(f"l{i + 1}" for i in range(k))
        diagonal = standard_diagonal_basis(m, n, domain)
        yield m, n, linear_forms([L.entries for L in diagonal], lvars, domain, base.entries)
        if n <= 5:
            dense = [[[scalar() for _ in range(n)] for _ in range(m)] for _ in range(k)]
            yield m, n, linear_forms(dense, lvars, domain, base.entries)


@pytest.mark.parametrize("domain", [COMPLEX, RATIONAL, GAUSSIAN], ids=lambda d: d.tag)
def test_batched_minors_match_per_subset_reference(domain):
    # COMPLEX minors must round exactly as the per-subset expansion did
    # (terms compare with float ==); exact domains must simply be equal
    gen = make_gen(53)
    for m, n, M in _locus_style_pencils(gen, domain):
        subsets = list(combinations(range(n), m))
        for cols, minor in zip(subsets, maximal_minors(M)):
            assert minor.terms == _laplace_reference(M.submatrix(range(m), cols)).terms
        # the locus solver's Newton system: the bordered minors (columns
        # 1..m-1 plus one) lead the lexicographic order
        bordered = [tuple(range(m - 1)) + (j,) for j in range(m - 1, n)]
        assert subsets[: n - m + 1] == bordered


@pytest.mark.parametrize("domain", [RATIONAL, GAUSSIAN], ids=lambda d: d.tag)
def test_scalar_maximal_minors_match_elimination(domain):
    gen = make_gen(59)
    for m, n in ((1, 3), (2, 2), (2, 4), (3, 5), (4, 7)):
        for _ in range(3):
            entries = [[rand_fraction(gen, maxden=99) for _ in range(n)] for _ in range(m)]
            if domain is GAUSSIAN:
                entries = [[GaussianRational(v, rand_fraction(gen)) for v in row]
                           for row in entries]
            entries[0][0] = 0  # an exact zero entry
            M = RectMatrix(entries, domain)
            subsets = combinations(range(n), m)
            assert maximal_minors(M) == [M.submatrix(range(m), cols).det() for cols in subsets]


def test_linear_forms_layout():
    variables = ("x", "y", "z")
    x, y = (MultiPoly.variable(variables, v) for v in "xy")
    zero = MultiPoly.zero(variables)
    constant = [[1, 0], [Fraction(1, 2), 3]]
    # two grids for three variables: z appears nowhere
    grids = [[[2, 0], [0, -1]], [[0, 0], [5, Fraction(1, 3)]]]
    M = linear_forms(grids, variables, RATIONAL, constant)
    assert M.variables == variables and M.domain is RATIONAL
    assert M == PolyMatrix([[x * 2 + 1, zero], [y * 5 + Fraction(1, 2), y * Fraction(1, 3) - x + 3]])
    # zero coefficients are dropped, not stored
    assert M.entries[0][1].terms == {}
    assert set(M.entries[0][0].terms) == {(0, 0, 0), (1, 0, 0)}
    # no constant: the grids alone
    linear = linear_forms(grids, variables, RATIONAL)
    assert linear == PolyMatrix([[x * 2, zero], [y * 5, y * Fraction(1, 3) - x]])
    assert linear_forms([], variables, RATIONAL, constant).entries[1][0].terms == {
        (0, 0, 0): Fraction(1, 2)
    }
    with pytest.raises(UsageError):
        linear_forms(grids * 2, variables, RATIONAL)
    with pytest.raises(UsageError):
        linear_forms([], variables, RATIONAL)


@pytest.mark.parametrize("domain", [RATIONAL, GAUSSIAN], ids=lambda d: d.tag)
def test_linear_forms_complex_terms_match_converted_exact_build(domain):
    # building straight into COMPLEX rounds every term as an exact build
    # converted with with_domain(COMPLEX) does, bit for bit and in term order
    gen = make_gen(67)
    lvars = ("l1", "l2", "l3")

    def grid():
        entries = [[rand_fraction(gen, maxden=99) for _ in range(5)] for _ in range(3)]
        entries[1][2] = 0
        if domain is GAUSSIAN:
            entries[0] = [GaussianRational(v, rand_fraction(gen)) for v in entries[0]]
        return entries

    for ngrids in (1, 3):
        constant, grids = grid(), [grid() for _ in range(ngrids)]
        exact = linear_forms(grids, lvars, domain, constant)
        direct = linear_forms(grids, lvars, COMPLEX, constant)
        assert direct.domain is COMPLEX
        for exact_row, direct_row in zip(exact.entries, direct.entries):
            for p, q in zip(exact_row, direct_row):
                assert list(q.terms.items()) == list(p.with_domain(COMPLEX).terms.items())


def test_minors_on_column_sets_reject_bad_sets():
    T = build_T(2, 2)
    minors = maximal_minors(T)
    assert sym_det(T, columns=[(0, 2), (0, 1)]) == [minors[1], minors[0]]
    for bad in ((1, 0), (0, 0), (0, 3), (0,)):
        with pytest.raises(UsageError):
            sym_det(T, columns=[bad])


def test_resolution_nu_examples():
    p = ResolutionPoint(RectMatrix([[1, 0, 0]]), (Fraction(2),))
    out = resolution_nu(p)
    assert [[int(v) for v in row] for row in out.entries] == [[1, 0, 0], [-2, 0, 0]]
    # defining property: (k, 1) annihilates the output exactly
    gen = make_gen(21)
    for _ in range(10):
        ahat = rand_rational_matrix(gen, 2, 4)
        ks = (rand_fraction(gen), rand_fraction(gen))
        out = resolution_nu(ResolutionPoint(ahat, ks))
        kernel = list(ks) + [Fraction(1)]
        for c in range(4):
            value = sum(kernel[r] * out.entries[r][c] for r in range(3))
            assert value == 0


def test_resolution_nu_generic_corank_one():
    gen = make_gen(33)
    hits = 0
    for _ in range(100):
        ahat = rand_rational_matrix(gen, 2, 4)
        ks = (rand_fraction(gen), rand_fraction(gen))
        M = resolution_nu(ResolutionPoint(ahat, ks))
        assert corank(M) >= 1
        hits += corank(M) == 1
    assert hits >= 95  # corank 2 needs a nongeneric chart point


def test_resolution_nu_right_inverse():
    gen = make_gen(35)
    for _ in range(10):
        ahat = rand_rational_matrix(gen, 1, 3)
        if all(v == 0 for v in ahat.entries[0]):
            continue
        k = (rand_fraction(gen),)
        M = resolution_nu(ResolutionPoint(ahat, k))
        # recover the kernel coefficient from the appended row
        pivot = next(j for j in range(3) if ahat.entries[0][j] != 0)
        recovered = -M.entries[1][pivot] / ahat.entries[0][pivot]
        assert recovered == k[0]


def test_minors_vanish_iff_corank_positive():
    gen = make_gen(37)
    for _ in range(10):
        ahat = rand_rational_matrix(gen, 1, 3)
        M = resolution_nu(ResolutionPoint(ahat, (rand_fraction(gen),)))
        assert all(v == 0 for v in maximal_minors(M))
        full = rand_rational_matrix(gen, 2, 3)
        if corank(full) == 0:
            assert any(v != 0 for v in maximal_minors(full))


@pytest.mark.parametrize("domain", [RATIONAL, GAUSSIAN])
def test_exact_elimination_matches_symbolic_determinants(domain):
    gen = make_gen(43)

    def scalar():
        # few small values, so that singular draws are common
        re = Fraction(int(gen.integers(-2, 3)), int(gen.integers(1, 3)))
        if domain is RATIONAL:
            return re
        return GaussianRational(re, Fraction(int(gen.integers(-1, 2))))

    singular = 0
    for trial in range(40):
        size = 1 + trial % 6
        A = RectMatrix([[scalar() for _ in range(size)] for _ in range(size)], domain)
        det = A.det()
        constant = PolyMatrix(
            [[MultiPoly.constant((), v, domain) for v in row] for row in A.entries]
        )
        assert det_bareiss(constant).eval({}) == det
        assert sym_det(constant).eval({}) == det
        assert (A.rank() == size) == (det != 0)
        b = [scalar() for _ in range(size)]
        _, _, rows = row_echelon([list(row) + [bi] for row, bi in zip(A.entries, b)])
        if det == 0:
            singular += 1
            continue
        # back-substitution on the echelon rows of [A | b] solves A x = b exactly
        x = [None] * size
        for r in reversed(range(size)):
            acc = sum((rows[r][j] * x[j] for j in range(r + 1, size)), domain.zero())
            x[r] = (rows[r][size] - acc) / rows[r][r]
        for row, bi in zip(A.entries, b):
            assert sum((a * xj for a, xj in zip(row, x)), domain.zero()) == bi
    assert 0 < singular < 40

    # rank-deficient rectangular draws: X * Y with a zeroed column, small
    # integers, the rank checked against numpy's
    def small():
        re = int(gen.integers(-2, 3))
        return re if domain is RATIONAL else GaussianRational(re, int(gen.integers(-1, 2)))

    for trial in range(60):
        rows, cols = int(gen.integers(1, 7)), int(gen.integers(1, 8))
        inner = int(gen.integers(1, min(rows, cols) + 1))
        X = [[small() for _ in range(inner)] for _ in range(rows)]
        Y = [[small() for _ in range(cols)] for _ in range(inner)]
        zeroed = int(gen.integers(0, cols))
        grid = [
            [0 if j == zeroed else sum((X[i][t] * Y[t][j] for t in range(inner)), 0) for j in range(cols)]
            for i in range(rows)
        ]
        expected = int(np.linalg.matrix_rank(np.array([[complex(v) for v in row] for row in grid])))
        # dividing each row by its own integer leaves the rank alone and gives
        # every row a denominator to clear
        scaled = [[domain.coerce(v) / (i + 2) for v in row] for i, row in enumerate(grid)]
        assert RectMatrix(scaled, domain).rank() == expected


def test_row_echelon_of_integer_rows_stays_exact():
    rank, det, rows = row_echelon([[1, 2], [3, 4]])
    assert rank == 2
    assert type(det) is Fraction and det == -2
    assert rows == [[1, 2], [0, -2]]
    assert all(type(v) is int for row in rows for v in row)


def test_row_echelon_determinant_of_singular_matrix_is_zero():
    # the elimination stops at rank 3; its last pivot over the row scales,
    # -5, is no determinant
    grid = [[1, 2, 0, 0], [0, 0, 0, 0], [3, 1, 2, 0], [0, 0, 1, 4]]
    rank, det, _ = row_echelon([list(row) for row in grid])
    assert (rank, det) == (3, 0)
    assert RectMatrix(grid).det() == 0
    gaussian = [[GaussianRational(v, v) for v in row] for row in grid]
    assert row_echelon(gaussian)[1] == 0


def test_cross_domain_corank_agreement():
    gen = make_gen(39)
    for _ in range(10):
        entries = [[int(gen.integers(-5, 6)) for _ in range(4)] for _ in range(3)]
        exact = RectMatrix(entries)
        approx = RectMatrix([[float(v) for v in row] for row in entries], COMPLEX)
        assert corank(exact) == corank(approx)


def test_transversality_diagonal_2x3():
    assert transversality_check(standard_diagonal_basis(2, 3)) == "transversal"


def test_transversality_dependent_basis():
    J1 = unit_diagonal_matrix(2, 3, 1)
    with pytest.raises(UsageError):
        transversality_check([J1, J1])


def test_transversality_single_row_subspace():
    E11 = RectMatrix([[1, 0, 0], [0, 0, 0]])
    E12 = RectMatrix([[0, 1, 0], [0, 0, 0]])
    assert transversality_check([E11, E12]) == "non-transversal"


def test_transversality_probabilistic_k3():
    assert transversality_check(standard_diagonal_basis(2, 4)) == "transversal"
    bad = [
        RectMatrix([[1 if (r == 0 and c == i) else 0 for c in range(5)] for r in range(3)])
        for i in range(3)
    ]
    assert transversality_check(bad) == "non-transversal"


TRANSVERSALITY_SHAPES = [(2, 3), (3, 4), (4, 5), (5, 6), (2, 4), (2, 5), (3, 5), (3, 6)]


@pytest.mark.parametrize("m,n", TRANSVERSALITY_SHAPES)
def test_transversality_transformed_diagonal(m, n):
    gen = make_gen(10 * m + n)
    for _ in range(5):
        assert transversality_check(transformed_diagonal_basis(gen, m, n)) == "transversal"


@pytest.mark.parametrize("m,n", TRANSVERSALITY_SHAPES)
def test_transversality_constructed_non_transversal(m, n):
    gen = make_gen(100 + 10 * m + n)
    for _ in range(5):
        assert transversality_check(non_transversal_basis(gen, m, n)) == "non-transversal"


@pytest.mark.parametrize(
    "shapes", [[(2, 3), (3, 2)], [(2, 4), (2, 3), (2, 4)]], ids=["2x3-3x2", "2x4-2x3-2x4"]
)
def test_transversality_mixed_shapes(shapes):
    basis = [RectMatrix.zeros(*shape) for shape in shapes]
    with pytest.raises(UsageError, match="shape"):
        transversality_check(basis)


def test_minor_coefficient_matrix_of_linear_rows():
    # k1 + 2 k2 and 3 k2 are the two 1 x 1 minors: columns (1, 2) and (0, 3)
    k = kappa_variables(2)
    M = PolyMatrix([[MultiPoly(k, {(1, 0): 1, (0, 1): 2}), MultiPoly(k, {(0, 1): 3})]])
    assert minor_coefficient_matrix(M) == RectMatrix([[1, 0], [2, 3]])
    with pytest.raises(UsageError):
        minor_coefficient_matrix(PolyMatrix([[MultiPoly(k, {(1, 0): 1})] * 3]))


def test_transversality_square_case():
    assert transversality_check([RectMatrix([[2]])]) == "transversal"
    assert transversality_check([RectMatrix([[1, 0], [0, 0]])]) == "non-transversal"


def test_pencil_spec_validation():
    A = RectMatrix.zeros(2, 3)
    with pytest.raises(UsageError):
        PencilSpec(A, [unit_diagonal_matrix(2, 3, 1)])
    J1 = unit_diagonal_matrix(2, 3, 1)
    with pytest.raises(UsageError):
        PencilSpec(A, [J1, J1])
    with pytest.raises(UsageError):
        PencilSpec(RectMatrix.zeros(3, 2), standard_diagonal_basis(2, 3))


def test_matrix_json_round_trip_rational():
    gen = make_gen(43)
    M = rand_rational_matrix(gen, 2, 3)
    assert matrix_from_json(matrix_to_json(M)) == M


def test_matrix_json_round_trip_gaussian():
    M = RectMatrix(
        [[GaussianRational(Fraction(1, 2), Fraction(-3)), GaussianRational(2)]],
        GAUSSIAN,
    )
    back = matrix_from_json(matrix_to_json(M))
    assert back == M
    assert back.domain.tag == "gaussian"


def test_matrix_json_round_trip_complex():
    M = RectMatrix([[1.5 + 2j, -0.25], [0j, 3.0]], COMPLEX)
    back = matrix_from_json(matrix_to_json(M))
    assert back == M


def test_matrix_json_malformed():
    with pytest.raises(UsageError):
        matrix_from_json({"rows": 1, "cols": 2, "domain": "weird", "entries": [[1, 2]]})
    with pytest.raises(UsageError):
        matrix_from_json({"rows": 2, "cols": 1, "domain": "rational", "entries": [["1"]]})


def test_entry_bounds_checked():
    M = RectMatrix.zeros(2, 3)
    with pytest.raises(UsageError):
        M.entry(2, 0)
    with pytest.raises(UsageError):
        M.entry(0, 3)
