"""Branch decomposition of the eigenvalue locus for upper-triangular pencils.

For an upper-triangular base matrix with distinct first-diagonal entries and
the standard diagonal shift subspace, the locus splits into one branch per
matrix row: on branch i the first parameter is the negated diagonal entry
-a_ii, the left kernel vector vanishes on rows 1..i-1, and the remaining
parameters are the eigenvalues of the (m-i+1) x (n-i) trailing block
A[i-1:, i:] with -a_ii on its sub-diagonal, a smaller instance of the same
problem that :func:`heine_solve` hands to the general locus solver.  Branch i
carries binom(n-i, m-i) solutions, and the branch counts add up to the
classical Heine count binom(n, m-1).  :func:`build_branch_systems` writes
each branch out as a complete intersection in the remaining parameters, the
kernel coordinates eliminated by a triangular recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, UsageError
from .locus import (
    Eigenvalue,
    SolverConfig,
    newton_system,  # noqa: F401  bench/test_bench.py reads heine.newton_system
    solve_eigenvalue_locus,
)
from .pencil import (
    PencilSpec,
    RectMatrix,
    member_array,
    minor_residual,
    normalize_at_largest,
    standard_diagonal_basis,
)
from .polycore import MultiPoly, domain_of


@dataclass(frozen=True)
class BranchSystem:
    """One complete intersection: fixed first parameter, square tail system.

    ``kernel_numerators[t]`` over ``kernel_denominators[t]`` expresses the
    (t+1)-th kernel coordinate of the trailing block as a polynomial in the
    free parameters divided by a nonzero constant.
    """

    branch_index: int
    lambda1: object
    equations: tuple
    kernel_numerators: tuple
    kernel_denominators: tuple

    @property
    def variables(self):
        return self.equations[0].variables if self.equations else ()


def check_heine_admissible(A: RectMatrix) -> bool:
    """Upper-triangular with pairwise distinct first-diagonal entries."""
    m, n = A.rows, A.cols
    if m > n:
        return False
    zero = A.domain.zero()
    for i in range(m):
        for j in range(min(i, n)):
            if A.entries[i][j] != zero:
                return False
    diag = [A.entries[i][i] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if diag[i] == diag[j]:
                return False
    return True


def heine_count(m: int, n: int):
    """Total count binom(n, m-1) and the per-branch counts binom(n-i, m-i)."""
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    per_branch = [math.comb(n - i, m - i) for i in range(1, m + 1)]
    total = math.comb(n, m - 1)
    assert total == sum(per_branch)
    return total, per_branch


def _lambda_poly(variables, domain, const, index: int, k: int) -> MultiPoly:
    """The affine form const + lambda_index, with lambda_j = 0 for j > k."""
    terms = {(0,) * len(variables): const}
    if 2 <= index <= k:
        exp = tuple(1 if v == f"l{index}" else 0 for v in variables)
        terms[exp] = terms.get(exp, domain.zero()) + domain.one()
    return MultiPoly(variables, terms, domain)


def build_branch_systems(A: RectMatrix):
    """The m branch systems of an admissible upper-triangular base matrix.

    Branch i works on the trailing block with the first i-1 rows and columns
    removed; the kernel recurrence there starts from 1 and divides only by
    differences of distinct diagonal entries, so the substituted tail
    equations are polynomial once cleared of those constant denominators.
    """
    if not check_heine_admissible(A):
        raise UsageError("matrix is not upper-triangular with distinct diagonal")
    m, n = A.rows, A.cols
    k = n - m + 1
    domain = A.domain
    lvars = tuple(f"l{j}" for j in range(2, k + 1))
    systems = []
    for i in range(1, m + 1):
        sub = [row[i - 1 :] for row in A.entries[i - 1 :]]
        msub, nsub = len(sub), n - i + 1
        a11 = sub[0][0]
        lambda1 = -a11
        # kernel recurrence on the trailing block: k_t = N_t / d_t with
        # d_t = prod_{j<=t} (a'_11 - a'_jj), all denominators nonzero constants
        numerators = [MultiPoly.constant(lvars, 1, domain)]
        denominators = [domain.one()]
        for t in range(2, msub + 1):
            d_prev = denominators[-1]
            acc = MultiPoly.zero(lvars, domain)
            for s in range(1, t):
                ratio = d_prev / denominators[s - 1]
                factor = _lambda_poly(lvars, domain, sub[s - 1][t - 1], t - s + 1, k)
                acc = acc + numerators[s - 1] * ratio * factor
            numerators.append(acc)
            denominators.append(d_prev * (a11 - sub[t - 1][t - 1]))
        equations = []
        dm = denominators[-1]
        for c in range(msub + 1, nsub + 1):
            eq = MultiPoly.zero(lvars, domain)
            for s in range(1, msub + 1):
                factor = _lambda_poly(lvars, domain, sub[s - 1][c - 1], c - s + 1, k)
                eq = eq + numerators[s - 1] * (dm / denominators[s - 1]) * factor
            equations.append(eq)
        systems.append(
            BranchSystem(
                branch_index=i,
                lambda1=lambda1,
                equations=tuple(equations),
                kernel_numerators=tuple(numerators),
                kernel_denominators=tuple(denominators),
            )
        )
    return systems


def heine_solve(A: RectMatrix, config: SolverConfig | None = None):
    """All eigenvalues, branch by branch, as eigenvalues of trailing blocks.

    Branch i is the pencil of the (m-i+1) x (n-i) block A[i-1:, i:] with
    lambda_1 = -a_ii added on its sub-diagonal and the standard diagonal
    subspace.  Those sub-diagonal entries a_jj - a_ii are nonzero, so every
    eigenvalue of the block has a kernel vector with nonzero first entry, and
    the block count binom(n-i, m-i) is the branch count.  A one-row block, and
    the empty tail of a square matrix, is solved in closed form (exactly for
    exact matrices); every other block goes through
    :func:`solve_eigenvalue_locus` with ``config``, which also gives the
    multiplicities.  Kernel vectors and residuals are those of the full
    member.  The output is ordered by branch, then by lambda.  A branch whose
    solve fails raises NumericFailure with the branch's own diagnostics in
    ``details["branches"]``.
    """
    if not check_heine_admissible(A):
        raise UsageError("matrix is not upper-triangular with distinct diagonal")
    config = config or SolverConfig()
    m, n = A.rows, A.cols
    base_np = A.to_numpy()
    basis_np = [L.to_numpy() for L in standard_diagonal_basis(m, n, A.domain)]
    out = []
    failures = {}
    for i in range(1, m + 1):
        lambda1 = -A.entries[i - 1][i - 1]
        try:
            tails = _branch_tails(A, i, lambda1, config)
        except NumericFailure as exc:
            failures[i] = exc
            continue
        # the block solver returns its eigenvalues sorted by lambda
        for tail, mult, flags in tails:
            lambdas = (lambda1,) + tuple(tail)
            numeric = tuple(complex(z) for z in lambdas)
            member = member_array(base_np, basis_np, numeric)
            out.append(
                Eigenvalue(
                    lambdas=numeric,
                    kappa=normalize_at_largest(np.linalg.svd(member)[0][:, -1].conj()),
                    residual=minor_residual(member),
                    multiplicity=mult,
                    flags=flags,
                    exact_lambdas=lambdas if domain_of(lambdas).is_exact else None,
                )
            )
    if failures:
        raise NumericFailure(
            "; ".join(f"branch {i}: {exc}" for i, exc in failures.items()),
            details={"branches": {i: exc.details for i, exc in failures.items()}},
        )
    return out


def _branch_tails(A: RectMatrix, i: int, lambda1, config: SolverConfig):
    """(lambda_2..lambda_k, multiplicity, flags) of every branch-i eigenvalue."""
    m, n = A.rows, A.cols
    if n == m:
        return [((), 1, ())]
    block = [list(row[i:]) for row in A.entries[i - 1 :]]
    if len(block) == 1:
        return [(tuple(-v for v in block[0]), 1, ())]
    for r in range(1, len(block)):
        block[r][r - 1] += lambda1
    spec = PencilSpec(
        RectMatrix(block, A.domain),
        standard_diagonal_basis(len(block), n - i, A.domain),
    )
    return [
        (e.lambdas, e.multiplicity, e.flags)
        for e in solve_eigenvalue_locus(spec, config)
    ]
