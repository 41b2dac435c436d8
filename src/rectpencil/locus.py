"""Numeric eigenvalue locus computation and local multiplicities.

The solver runs seeded multi-start Newton iteration on a square subsystem of
maximal minors (columns {1..m-1} plus one varying column), filters candidates
by the residual over all maximal minors, clusters coincident roots and
recovers the left kernel vector from the singular value decomposition.  A
root is certified simple, multiplicity 1, when the Jacobian of all maximal
minors has full column rank there (one batched SVD over all roots); every other
root gets its multiplicity from the dimension of the local algebra
(stabilized corank of truncated Macaulay matrices of the minor ideal).
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

JACOBIAN_SINGULAR_RTOL = 1e-6
# a root is certified simple when sigma_min of the Jacobian of all maximal
# minors is at least this times max(1, ||M||_F)^(m-1) * max(1, max ||B_i||_F)
CERTIFY_RTOL = 1e-6
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
    """Batched numpy evaluation of a list of polynomials and their Jacobian.

    Every polynomial and every first partial derivative is one coefficient
    column over a shared monomial table, so one power table, one gather of
    products and one matrix product give all values and the whole Jacobian.
    """

    def __init__(self, polys, variables=None):
        if not polys:
            raise UsageError("empty polynomial system")
        self.variables = tuple(variables or polys[0].variables)
        for p in polys:
            if p.variables != self.variables:
                raise UsageError("system polynomials must share one variable list")
        self.neq = len(polys)
        self.dim = len(self.variables)
        # column j * (dim + 1) holds poly j, the next dim columns its partials
        columns = [
            q.terms
            for p in polys
            for q in (p, *(p.derivative(v) for v in self.variables))
        ]
        monomials = sorted({e for terms in columns for e in terms} | {(0,) * self.dim})
        index = {e: t for t, e in enumerate(monomials)}
        self._coeffs = np.zeros((len(monomials), len(columns)), dtype=complex)
        for c, terms in enumerate(columns):
            for e, v in terms.items():
                self._coeffs[index[e], c] = complex(v)
        self._exps = np.array(monomials, dtype=np.intp)
        self._vars = np.arange(self.dim)
        self._degree = int(self._exps.max(initial=0))

    def values_and_jacobian(self, X: np.ndarray):
        """Values (S, neq) and Jacobians (S, neq, dim) at a batch X of (S, dim)."""
        powers = np.ones(X.shape + (self._degree + 1,), dtype=complex)
        for d in range(1, self._degree + 1):
            powers[..., d] = powers[..., d - 1] * X
        table = powers[:, self._vars, self._exps].prod(axis=2)
        out = (table @ self._coeffs).reshape(X.shape[0], self.neq, self.dim + 1)
        return out[..., 0], out[..., 1:]


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


def _cluster(points: np.ndarray, radius: float):
    """Greedy clustering of the rows of ``points`` under the max-norm metric.

    Points are visited in lexicographic (re, im) order; each joins the first
    cluster whose first member lies within ``radius``, or opens a new one.
    Returns the clusters in opening order as index arrays into ``points``,
    each in visiting order.
    """
    keys = [part(points[:, j]) for j in reversed(range(points.shape[1]))
            for part in (np.imag, np.real)]
    order = np.lexsort(keys)
    pts = points[order]
    label = np.full(len(pts), -1)
    opened = 0
    free = np.arange(len(pts))
    while free.size:
        # the first free point opens a cluster; every free point within the
        # radius of it has no earlier cluster in reach, so it joins this one
        near = np.abs(pts[free] - pts[free[0]]).max(axis=1) <= radius
        label[free[near]] = opened
        opened += 1
        free = free[~near]
    by_label = np.argsort(label, kind="stable")
    return np.split(order[by_label], np.cumsum(np.bincount(label))[:-1])


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
        F, J = system.values_and_jacobian(Xa)
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
    pts = pts[np.abs(system.values_and_jacobian(pts)[0]).max(axis=1) < config.tol]
    if pts.size == 0:
        return []
    clusters = _cluster(pts, CLUSTER_RADIUS)
    reps = np.array([pts[cl].mean(axis=0) for cl in clusters])
    s = np.linalg.svd(system.values_and_jacobian(reps)[1], compute_uv=False)
    singular = (s[:, 0] == 0.0) | (s[:, -1] <= JACOBIAN_SINGULAR_RTOL * s[:, 0])
    roots = [
        NewtonRoot(tuple(rep), bool(flag), len(cl))
        for rep, flag, cl in zip(reps, singular, clusters)
    ]
    roots.sort(key=lambda r: tuple((z.real, z.imag) for z in r.point))
    return roots


def _solve_steps(J, F):
    """Newton steps J^-1 F for a batch; exactly singular Jacobians get the
    minimum-norm least-squares step instead."""
    try:
        return np.linalg.solve(J, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        singular = np.linalg.det(J) == 0
        out = np.empty_like(F)
        out[~singular] = np.linalg.solve(J[~singular], F[~singular][..., None])[..., 0]
        rcond = max(J.shape[1:]) * np.finfo(float).eps
        pinv = np.linalg.pinv(J[singular], rcond=rcond)
        out[singular] = (pinv @ F[singular][..., None])[..., 0]
        return out


def _deflate_polish(system: _CompiledSystem, point, iters: int = 30):
    """Gauss-Newton on a square system augmented with det(Jacobian), compiled
    together as ``system``; regular at a simple fold, so multiple roots
    sharpen to near machine precision."""
    x = np.array(point, dtype=complex)
    for _ in range(iters):
        F, J = system.values_and_jacobian(x[None, :])
        step, *_ = np.linalg.lstsq(J[0], F[0], rcond=None)
        x = x - step
        if np.abs(step).max() < 1e-14 * max(1.0, np.abs(x).max()):
            break
    return tuple(x)


def _bordered_minors(Mpoly: PolyMatrix, m: int, n: int):
    return [
        sym_det(Mpoly.submatrix(range(m), sorted(set(range(m - 1)) | {j})))
        for j in range(m - 1, n)
    ]


def _deflated_system(eqs, lvars):
    """The square system ``eqs`` with det of its Jacobian appended."""
    detj = sym_det(PolyMatrix([[p.derivative(v) for v in lvars] for p in eqs]))
    return _CompiledSystem(list(eqs) + [detj], lvars)


def solve_eigenvalue_locus(spec: PencilSpec, config: SolverConfig | None = None):
    """All eigenvalues of the pencil, with kernel vectors and multiplicities.

    A root that Newton did not flag, that no other root merged into, and at
    which the Jacobian of all maximal minors keeps full column rank (smallest
    singular value above ``CERTIFY_RTOL`` times the scale of that Jacobian)
    is simple: its multiplicity is 1.  Every other root gets its multiplicity
    from :func:`local_multiplicity`.  The total multiplicity must reach
    binom(n, m-1); the solver retries with four times the starts and then
    with a random unitary column mixing before giving up with a diagnostic
    error.
    """
    config = config or SolverConfig()
    m, n, k = spec.m, spec.n, spec.k
    expected = spec.expected_count()
    lvars = tuple(f"l{i + 1}" for i in range(k))
    Mpoly = pencil_matrix_poly(spec.base, spec.basis, lvars)
    minors = maximal_minors(Mpoly)
    minors_system = _CompiledSystem(minors, lvars)
    base_np = spec.base.to_numpy()
    basis_np = [L.to_numpy() for L in spec.basis]
    basis_scale = max(1.0, max(np.linalg.norm(L) for L in basis_np))
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
        # the bordered minors (columns 1..m-1 plus one) lead the lexicographic order
        eqs = _mixed_bordered_minors(Mpoly, m, n, seed) if mix else minors[:k]
        roots = newton_system(eqs, replace(config, starts=starts, seed=seed), scale=data_scale)
        deflated = None
        candidates = []
        for root in roots:
            point = root.point
            if root.possibly_multiple:
                deflated = deflated or _deflated_system(eqs, lvars)
                polished = _deflate_polish(deflated, point)
                if residual(polished) <= config.tol:
                    point = polished
            if residual(point) <= config.tol:
                candidates.append((point, root.possibly_multiple))
        if not candidates:
            last = []
            continue
        points = np.array([p for p, _ in candidates], dtype=complex)
        merged = _cluster(points, CLUSTER_RADIUS)
        reps = np.array([points[cl].mean(axis=0) for cl in merged])
        members = np.array([member_array(base_np, basis_np, rep) for rep in reps])
        sigma = np.linalg.svd(
            minors_system.values_and_jacobian(reps)[1], compute_uv=False
        )[:, -1]
        jac_scale = np.maximum(1.0, np.linalg.norm(members, axis=(1, 2))) ** (m - 1)
        simple = sigma >= CERTIFY_RTOL * jac_scale * basis_scale
        eigenvalues = []
        total = 0
        for cl, rep, member, certified in zip(merged, reps, members, simple):
            flagged = candidates[cl[0]][1]
            if certified and not flagged and len(cl) == 1:
                mult = 1
            else:
                mult = local_multiplicity(spec, tuple(rep))
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


def _mixed_bordered_minors(Mpoly: PolyMatrix, m: int, n: int, seed: int):
    """Bordered minors after a seeded random unitary mixing of the columns."""
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
