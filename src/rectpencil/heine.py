"""Branch decomposition of the eigenvalue locus for upper-triangular pencils.

For an upper-triangular base matrix with distinct first-diagonal entries and
the standard diagonal shift subspace, the locus splits into one complete
intersection per matrix row: branch i fixes the first parameter to the negated
diagonal entry, eliminates the kernel coordinates by a triangular recurrence,
and leaves n-m polynomial equations in the remaining parameters.  Branch i
carries binom(n-i, m-i) solutions, and the branch counts add up to the
classical Heine count binom(n, m-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import NumericFailure, UsageError
from .locus import (
    Eigenvalue,
    SolverConfig,
    _is_exact_scalar,
    newton_system,
    system_local_multiplicity,
)
from .pencil import (
    RectMatrix,
    member_array,
    minor_residual,
    normalize_at_largest,
    solve_exact,
    standard_diagonal_basis,
)
from .polycore import MultiPoly


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


def _is_linear(poly: MultiPoly) -> bool:
    return all(sum(e) <= 1 for e in poly.terms)


def _augmented_rows(equations, nvars: int):
    """Rows [A | b] of a linear system written as A x = b."""
    rows = []
    for eq in equations:
        row = [eq.domain.zero()] * (nvars + 1)
        for exp, c in eq.terms.items():
            if any(exp):
                row[exp.index(1)] = c
            else:
                row[nvars] = -c
        rows.append(row)
    return rows


def heine_solve(A: RectMatrix, config: SolverConfig | None = None):
    """Solve every branch system and reassemble full eigenvalues.

    Linear branches of exact matrices are solved exactly; the rest go through
    the seeded Newton solver.  Each branch must reach its count binom(n-i,
    m-i) with multiplicity, and every returned point is validated against all
    maximal minors of the assembled pencil member.
    """
    if not check_heine_admissible(A):
        raise UsageError("matrix is not upper-triangular with distinct diagonal")
    config = config or SolverConfig()
    m, n = A.rows, A.cols
    base_np = A.to_numpy()
    basis_np = [L.to_numpy() for L in standard_diagonal_basis(m, n, A.domain)]
    systems = build_branch_systems(A)
    _, per_branch = heine_count(m, n)
    scale = 1.0 + A.frobenius()
    out = []
    shortfalls = {}
    for bs, expected in zip(systems, per_branch):
        found = _solve_branch(bs, expected, config, scale)
        if sum(mult for _, mult in found) != expected:
            shortfalls[bs.branch_index] = {
                "expected": expected,
                "found": sum(mult for _, mult in found),
            }
            continue
        for tail, mult in found:
            eig = _assemble_eigenvalue(A, base_np, basis_np, bs, tail, mult, config.tol)
            out.append((bs.branch_index, eig))
    if shortfalls:
        raise NumericFailure(
            f"branch solution counts incomplete: {shortfalls}",
            details={"branches": shortfalls},
        )
    out.sort(
        key=lambda pair: (
            pair[0],
            tuple((z.real, z.imag) for z in pair[1].lambdas),
        )
    )
    return [eig for _, eig in out]


def _solve_branch(bs: BranchSystem, expected: int, config: SolverConfig,
                  scale: float):
    """Roots of one branch system with multiplicities: list of (tail, mult)."""
    if not bs.equations:
        return [((), 1)]
    exact_linear = (
        expected == 1
        and all(_is_linear(eq) for eq in bs.equations)
        and bs.equations[0].domain.is_exact
    )
    if exact_linear:
        sol = solve_exact(_augmented_rows(bs.equations, len(bs.variables)))
        if sol is not None:
            return [(sol, 1)]
    for factor, seed_shift in ((1, 0), (4, 1)):
        cfg = replace(
            config,
            starts=(config.starts or 40 * expected) * factor,
            seed=config.seed + seed_shift,
        )
        roots = newton_system(list(bs.equations), cfg, scale=scale)
        found = []
        total = 0
        for root in roots:
            if root.possibly_multiple or root.cluster_size > 1:
                mult = system_local_multiplicity(list(bs.equations), root.point)
                if mult is None:
                    mult = root.cluster_size
            else:
                mult = 1
            found.append((root.point, mult))
            total += mult
        if total == expected:
            return found
    return found


def _assemble_eigenvalue(A, base_np, basis_np, bs: BranchSystem, tail, mult, tol):
    exact = A.domain.is_exact and all(_is_exact_scalar(v) for v in tail)
    if exact:
        exact_lambdas = (bs.lambda1,) + tuple(tail)
        lambdas = tuple(complex(v) for v in exact_lambdas)
    else:
        exact_lambdas = None
        lambdas = (complex(bs.lambda1),) + tuple(complex(v) for v in tail)
    point = dict(zip(bs.variables, tail))
    kappa_tail = [
        complex(num.eval(point)) / complex(den)
        for num, den in zip(bs.kernel_numerators, bs.kernel_denominators)
    ]
    kappa = normalize_at_largest([0j] * (bs.branch_index - 1) + kappa_tail)
    residual = minor_residual(member_array(base_np, basis_np, lambdas))
    if residual > 10 * tol:
        raise NumericFailure(
            f"branch {bs.branch_index} produced a point with residual {residual:.3e}",
            details={"branch": bs.branch_index, "residual": residual},
        )
    flags = ()
    if mult is not None and mult > 1:
        flags = ("possibly-multiple",)
    return Eigenvalue(
        lambdas=lambdas,
        kappa=kappa,
        residual=residual,
        multiplicity=mult,
        flags=flags,
        exact_lambdas=exact_lambdas,
    )
