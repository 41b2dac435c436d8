"""Numeric eigenvalue locus computation and local multiplicities.

The solver runs seeded multi-start Newton iteration on a square subsystem of
maximal minors (columns {1..m-1} plus one varying column), filters candidates
by the residual over all maximal minors, clusters coincident roots, recovers
the left kernel vector from the singular value decomposition, and attaches
multiplicities computed from the dimension of the local algebra (stabilized
corank of truncated Macaulay matrices of the minor ideal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import NumericFailure, UsageError
from .pencil import (
    PencilSpec,
    RectMatrix,
    maximal_minors,
    member_array,
    minor_residual,
    normalize_at_largest,
    row_echelon,
)
from .polycore import (
    COMPLEX,
    GAUSSIAN,
    GaussianRational,
    MultiPoly,
    PolyMatrix,
    join_domains,
    sym_det,
)

JACOBIAN_SINGULAR_RTOL = 1e-8
MACAULAY_RANK_RTOL = 1e-8
NEWTON_MAX_ITER = 100
# max-norm distance under which Newton endpoints count as one root
CLUSTER_RADIUS = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the multi-start Newton solver.

    ``starts=None`` resolves to 40 times the expected root count of the
    problem at hand.  The seed fixes the start set, hence the whole output.
    """

    tol: float = 1e-8
    starts: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise UsageError("solver tolerance must be positive")
        if self.starts is not None and self.starts <= 0:
            raise UsageError("start count must be positive")


@dataclass(frozen=True)
class NewtonRoot:
    point: tuple
    possibly_multiple: bool
    cluster_size: int = 1


@dataclass(frozen=True)
class Eigenvalue:
    """One point of the eigenvalue locus with its left kernel vector."""

    lambdas: tuple
    kappa: tuple
    residual: float
    multiplicity: int | None
    flags: tuple = ()
    exact_lambdas: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "lambda": [[z.real, z.imag] for z in self.lambdas],
            "kappa": [[z.real, z.imag] for z in self.kappa],
            "residual": self.residual,
            "multiplicity": "unknown" if self.multiplicity is None else self.multiplicity,
            "flags": list(self.flags),
        }


class _CompiledSystem:
    """Batched numpy evaluation of a list of polynomials and their Jacobian."""

    def __init__(self, polys, variables=None):
        if not polys:
            raise UsageError("empty polynomial system")
        self.variables = tuple(variables or polys[0].variables)
        for p in polys:
            if p.variables != self.variables:
                raise UsageError("system polynomials must share one variable list")
        self.polys = list(polys)
        self.dim = len(self.variables)
        self._tabs = [self._compile(p) for p in self.polys]
        self._jac_tabs = None

    def _compile(self, poly):
        if poly.is_zero:
            return np.zeros((1, self.dim), dtype=np.int64), np.zeros(1, dtype=complex)
        exps = np.array(sorted(poly.terms), dtype=np.int64)
        coeffs = np.array(
            [complex(poly.terms[tuple(e)]) for e in exps], dtype=complex
        )
        return exps, coeffs

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Values at a batch of points; X is (S, dim), result (S, neq)."""
        out = np.empty((X.shape[0], len(self._tabs)), dtype=complex)
        for j, (exps, coeffs) in enumerate(self._tabs):
            out[:, j] = np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ coeffs
        return out

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        if self._jac_tabs is None:
            self._jac_tabs = [
                [self._compile(p.derivative(v)) for v in self.variables]
                for p in self.polys
            ]
        S = X.shape[0]
        out = np.empty((S, len(self.polys), self.dim), dtype=complex)
        for i, row in enumerate(self._jac_tabs):
            for j, (exps, coeffs) in enumerate(row):
                out[:, i, j] = np.prod(X[:, None, :] ** exps[None, :, :], axis=2) @ coeffs
        return out


def pencil_matrix_poly(base: RectMatrix, basis, varnames) -> PolyMatrix:
    """Affine matrix base + sum(var_i * L_i) as polynomial entries."""
    basis = list(basis)
    varnames = tuple(varnames)
    if len(basis) != len(varnames):
        raise UsageError("one variable per basis matrix required")
    domain = join_domains(base.domain, *[L.domain for L in basis])
    m, n = base.rows, base.cols
    nvars = len(varnames)
    grid = []
    for r in range(m):
        row = []
        for c in range(n):
            terms = {(0,) * nvars: base.entries[r][c]}
            for i, L in enumerate(basis):
                v = L.entries[r][c]
                if v != L.domain.zero():
                    exp = tuple(1 if t == i else 0 for t in range(nvars))
                    terms[exp] = v
            row.append(MultiPoly(varnames, terms, domain))
        grid.append(row)
    return PolyMatrix(grid)


def _cluster(points, radius):
    """Greedy clustering of solution vectors under the max-norm metric."""
    order = sorted(points, key=lambda p: tuple((z.real, z.imag) for z in p))
    clusters = []
    for p in order:
        for cl in clusters:
            rep = cl[0]
            if max(abs(a - b) for a, b in zip(p, rep)) <= radius:
                cl.append(p)
                break
        else:
            clusters.append([p])
    return clusters


def newton_system(equations, config: SolverConfig, scale: float = 1.0):
    """Solve a square polynomial system from seeded random complex starts.

    Returns de-duplicated roots; a root whose Jacobian is numerically singular
    is retained and flagged possibly multiple.  Output is deterministic for a
    fixed config.
    """
    equations = list(equations)
    if not equations:
        raise UsageError("empty system")
    system = _CompiledSystem(equations)
    d = system.dim
    if len(equations) != d:
        raise UsageError(
            f"square system required: {len(equations)} equations in {d} variables"
        )
    rng = np.random.default_rng(config.seed)
    nstarts = config.starts if config.starts is not None else 40 * d
    X = (rng.standard_normal((nstarts, d)) + 1j * rng.standard_normal((nstarts, d)))
    X *= scale
    active = np.ones(nstarts, dtype=bool)
    converged = np.zeros(nstarts, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        F = system.eval(Xa)
        J = system.jacobian(Xa)
        delta = _solve_steps(J, F)
        bad = ~np.isfinite(delta).all(axis=1)
        if bad.any():
            active[idx[bad]] = False
            idx = idx[~bad]
            Xa, F, delta = Xa[~bad], F[~bad], delta[~bad]
            if idx.size == 0:
                continue
        Xn = Xa - delta
        X[idx] = Xn
        step = np.abs(delta).max(axis=1)
        res = np.abs(F).max(axis=1)
        done = (step < config.tol) & (res < config.tol)
        converged[idx[done]] = True
        active[idx[done]] = False
        diverged = np.abs(Xn).max(axis=1) > 1e8 * max(1.0, scale)
        active[idx[diverged]] = False
    pts = X[converged]
    if pts.size == 0:
        return []
    final_res = np.abs(system.eval(pts)).max(axis=1)
    keep = final_res < config.tol
    pts = pts[keep]
    if pts.size == 0:
        return []
    clusters = _cluster([tuple(p) for p in pts], CLUSTER_RADIUS)
    roots = []
    for cl in clusters:
        rep = tuple(np.mean(np.array(cl, dtype=complex), axis=0))
        J = system.jacobian(np.array([rep], dtype=complex))[0]
        s = np.linalg.svd(J, compute_uv=False)
        singular = s[0] == 0.0 or s[-1] <= JACOBIAN_SINGULAR_RTOL * s[0]
        roots.append(NewtonRoot(rep, bool(singular), len(cl)))
    roots.sort(key=lambda r: tuple((z.real, z.imag) for z in r.point))
    return roots


def _solve_steps(J, F):
    try:
        return np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(F)
        for i in range(J.shape[0]):
            try:
                out[i] = np.linalg.solve(J[i], F[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(J[i], F[i], rcond=None)[0]
        return out


def _deflate_polish(eqs_system: _CompiledSystem, detj_system: _CompiledSystem,
                    point, iters: int = 30):
    """Gauss-Newton on the system augmented with det(Jacobian); regular at a
    simple fold, so multiple roots sharpen to near machine precision."""
    x = np.array(point, dtype=complex)
    for _ in range(iters):
        X = x[None, :]
        F = np.concatenate([eqs_system.eval(X)[0], detj_system.eval(X)[0]])
        J = np.vstack([eqs_system.jacobian(X)[0], detj_system.jacobian(X)[0]])
        step, *_ = np.linalg.lstsq(J, F, rcond=None)
        x = x - step
        if np.abs(step).max() < 1e-14 * max(1.0, np.abs(x).max()):
            break
    return tuple(x)


def _bordered_minors(Mpoly: PolyMatrix, m: int, n: int):
    return [
        sym_det(Mpoly.submatrix(range(m), sorted(set(range(m - 1)) | {j})))
        for j in range(m - 1, n)
    ]


def solve_eigenvalue_locus(spec: PencilSpec, config: SolverConfig | None = None):
    """All eigenvalues of the pencil, with kernel vectors and multiplicities.

    The total multiplicity must reach binom(n, m-1); the solver retries with
    four times the starts and then with a random unitary column mixing before
    giving up with a diagnostic error.
    """
    config = config or SolverConfig()
    m, n, k = spec.m, spec.n, spec.k
    expected = spec.expected_count()
    lvars = tuple(f"l{i + 1}" for i in range(k))
    Mpoly = pencil_matrix_poly(spec.base, spec.basis, lvars)
    base_np = spec.base.to_numpy()
    basis_np = [L.to_numpy() for L in spec.basis]
    data_scale = 1.0 + spec.base.frobenius()
    nstarts = config.starts if config.starts is not None else 40 * expected

    def residual(lam):
        return minor_residual(member_array(base_np, basis_np, lam))

    attempts = [
        (nstarts, False, config.seed),
        (4 * nstarts, False, config.seed + 1),
        (4 * nstarts, True, config.seed + 2),
    ]
    last = []
    for starts, mix, seed in attempts:
        eqs = _attempt_equations(Mpoly, m, n, mix, seed)
        roots = newton_system(eqs, replace(config, starts=starts, seed=seed), scale=data_scale)
        eqs_system = _CompiledSystem(eqs, lvars)
        detj = sym_det(
            PolyMatrix([[p.derivative(v) for v in lvars] for p in eqs])
        )
        detj_system = _CompiledSystem([detj], lvars)
        candidates = []
        for root in roots:
            point = root.point
            if root.possibly_multiple:
                polished = _deflate_polish(eqs_system, detj_system, point)
                if residual(polished) <= residual(point):
                    point = polished
            if residual(point) <= config.tol:
                candidates.append((point, root))
        merged = _cluster([p for p, _ in candidates], CLUSTER_RADIUS)
        flags_by_point = {p: r for p, r in candidates}
        eigenvalues = []
        total = 0
        for cl in merged:
            rep = cl[0] if len(cl) == 1 else tuple(
                np.mean(np.array(cl, dtype=complex), axis=0)
            )
            root = flags_by_point[cl[0]]
            multiple_hint = root.possibly_multiple or root.cluster_size > 1 or len(cl) > 1
            mult = local_multiplicity(spec, rep) if multiple_hint else 1
            member = member_array(base_np, basis_np, rep)
            eigenvalues.append(
                Eigenvalue(
                    lambdas=tuple(complex(z) for z in rep),
                    kappa=normalize_at_largest(np.linalg.svd(member)[0][:, -1].conj()),
                    residual=minor_residual(member),
                    multiplicity=mult,
                    flags=() if mult == 1 else ("possibly-multiple", "numerical"),
                )
            )
            total += mult if mult is not None else 0
        eigenvalues.sort(key=lambda e: tuple((z.real, z.imag) for z in e.lambdas))
        last = eigenvalues
        if total == expected and all(e.multiplicity is not None for e in eigenvalues):
            return eigenvalues
    raise NumericFailure(
        f"found total multiplicity "
        f"{sum(e.multiplicity or 0 for e in last)} of expected {expected}",
        details={
            "expected": expected,
            "found": [e.as_dict() for e in last],
        },
    )


def _attempt_equations(Mpoly: PolyMatrix, m: int, n: int, mix: bool, seed: int):
    if not mix:
        return _bordered_minors(Mpoly, m, n)
    rng = np.random.default_rng(seed + 1000)
    q, _ = np.linalg.qr(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    mixed_rows = []
    for r in range(m):
        row = []
        for c in range(n):
            acc = MultiPoly.zero(Mpoly.variables, COMPLEX)
            for j in range(n):
                entry = Mpoly.entries[r][j].with_domain(COMPLEX)
                acc = acc + entry * complex(q[j, c])
            row.append(acc)
        mixed_rows.append(row)
    return _bordered_minors(PolyMatrix(mixed_rows), m, n)


# -- local multiplicity ------------------------------------------------------


def _is_exact_scalar(v) -> bool:
    return isinstance(v, (int, Fraction, GaussianRational))


def _translate(poly: MultiPoly, point, tvars):
    """Shifted polynomial p(point + t) over the translation variables."""
    domain = poly.domain
    if any(not _is_exact_scalar(v) for v in point):
        domain = COMPLEX
    elif domain.tag == "rational" and any(
        isinstance(v, GaussianRational) for v in point
    ):
        domain = GAUSSIAN
    values = [domain.coerce(v) for v in point]
    nvars = len(tvars)
    one = MultiPoly.constant(tvars, 1, domain)
    shifted_vars = [
        MultiPoly.variable(tvars, tvars[i], domain) + values[i] for i in range(nvars)
    ]
    total = MultiPoly.zero(tvars, domain)
    for exp, c in poly.terms.items():
        term = one * domain.coerce(c)
        for i, e in enumerate(exp):
            if e:
                term = term * shifted_vars[i] ** e
        total = total + term
    return total


def _monomials_upto(nvars: int, degree: int):
    out = [(0,) * nvars]
    frontier = [(0,) * nvars]
    for _ in range(degree):
        nxt = []
        seen = set()
        for exp in frontier:
            for i in range(nvars):
                ne = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                if ne not in seen:
                    seen.add(ne)
                    nxt.append(ne)
        nxt.sort()
        out.extend(nxt)
        frontier = nxt
    return out


def macaulay_multiplicity(generators, degree_cap: int = 8, exact: bool = False):
    """Dimension of the local algebra of the ideal at the origin, computed as
    the stabilized corank of degree-truncated Macaulay matrices.  Returns None
    when the cap is reached without stabilization (non-isolated or too deep).
    """
    generators = [g for g in generators if not g.is_zero]
    if not generators:
        return None
    tvars = generators[0].variables
    nvars = len(tvars)
    if exact:
        gens = generators
    else:
        # the origin is a root by contract: drop the residual constant term
        gens = []
        for g in generators:
            terms = {e: c for e, c in g.terms.items() if any(e)}
            gens.append(MultiPoly(tvars, terms, g.domain))
        scales = []
        for g in gens:
            mx = max((abs(complex(c)) for c in g.terms.values()), default=0.0)
            scales.append(mx if mx > 0 else 1.0)
    if any(not any(e) for g in gens for e in g.terms):
        return 0  # a unit in the ideal: empty local algebra
    prev = 1
    for cap in range(1, degree_cap + 1):
        monos = _monomials_upto(nvars, cap)
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for gi, g in enumerate(gens):
            if not g.terms:
                continue
            mindeg = min(sum(e) for e in g.terms)
            for gamma in _monomials_upto(nvars, max(0, cap - mindeg)):
                if exact:
                    row = [Fraction(0)] * len(monos)
                    nonzero = False
                    for e, c in g.terms.items():
                        ne = tuple(a + b for a, b in zip(e, gamma))
                        if sum(ne) <= cap:
                            row[index[ne]] = c
                            nonzero = True
                    if nonzero:
                        rows.append(row)
                else:
                    row = np.zeros(len(monos), dtype=complex)
                    nonzero = False
                    for e, c in g.terms.items():
                        ne = tuple(a + b for a, b in zip(e, gamma))
                        if sum(ne) <= cap:
                            row[index[ne]] = complex(c) / scales[gi]
                            nonzero = True
                    if nonzero:
                        rows.append(row)
        if not rows:
            rank = 0
        elif exact:
            rank = row_echelon(rows)[0]
        else:
            # generators are normalized to unit sup-coefficient, so residual
            # noise rows (a truncation level whose true block is zero) must
            # not promote sigma_max itself: threshold against max(sigma, 1)
            a = np.array(rows, dtype=complex)
            s = np.linalg.svd(a, compute_uv=False)
            rank = int(np.sum(s > MACAULAY_RANK_RTOL * max(float(s[0]), 1.0))) if s.size else 0
        dim = len(monos) - rank
        if dim == prev:
            return dim
        prev = dim
    return None


def system_local_multiplicity(equations, point, degree_cap: int = 8):
    """Local multiplicity of a polynomial system at a computed root."""
    equations = list(equations)
    if not equations:
        raise UsageError("empty system")
    point = tuple(point)
    tvars = tuple(f"t{i + 1}" for i in range(len(equations[0].variables)))
    if len(point) != len(tvars):
        raise UsageError("point dimension does not match the system variables")
    exact = all(_is_exact_scalar(v) for v in point) and all(
        e.domain.is_exact for e in equations
    )
    gens = [_translate(e, point, tvars) for e in equations]
    return macaulay_multiplicity(gens, degree_cap=degree_cap, exact=exact)


def local_multiplicity(spec: PencilSpec, at, degree_cap: int = 8):
    """Multiplicity of an eigenvalue: dimension of the quotient of the power
    series ring by the ideal of all maximal minors of the translated pencil.

    Exact data (exact pencil, exact eigenvalue components) is handled with
    exact arithmetic; otherwise the computation runs in floating point with a
    relative rank threshold of 1e-8.
    """
    if isinstance(at, Eigenvalue):
        point = at.exact_lambdas if at.exact_lambdas is not None else at.lambdas
    else:
        point = tuple(at)
    if len(point) != spec.k:
        raise UsageError(f"expected {spec.k} eigenvalue components")
    exact = (
        all(_is_exact_scalar(v) for v in point)
        and spec.base.domain.is_exact
        and all(L.domain.is_exact for L in spec.basis)
    )
    tvars = tuple(f"t{i + 1}" for i in range(spec.k))
    # complex parameters make the member a complex matrix
    shifted = spec.member(point if exact else [complex(z) for z in point])
    gens = maximal_minors(pencil_matrix_poly(shifted, spec.basis, tvars))
    return macaulay_multiplicity(gens, degree_cap=degree_cap, exact=exact)
