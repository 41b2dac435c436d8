"""Numeric eigenvalue locus computation and local multiplicities.

The locus of a transversal pencil is the joint spectrum of the commuting
matrices X_j = Delta_0^-1 Delta_j, where Delta_0 is the coefficient matrix of
the maximal minors of the rows kappa^T B_1, ..., kappa^T B_k and Delta_j the
same with row j replaced by kappa^T A; both have binom(n, m-1) rows, the
eigenvalue count.  The solver first runs one seeded multi-start Newton batch
on the bordered maximal minors (columns {1..m-1} plus one varying column) and
keeps its answer when it holds binom(n, m-1) distinct roots that pass the
residual over all maximal minors and are certified simple by the full column
rank of the Jacobian of all maximal minors; that is the generic case.  Every
other pencil takes one eigendecomposition of a random combination of the X_j:
clusters of coincident eigenvalues give the multiplicities, and the mean of
each cluster over its invariant subspace gives lambda.  Kernel vectors come
from the singular value decomposition of the member.  Local multiplicities at
a given point come from the dimension of the local algebra (stabilized corank
of truncated Macaulay matrices of the minor ideal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import NumericFailure, UsageError
from .pencil import (
    PencilSpec,
    kappa_rows,
    linear_forms,
    maximal_minors,
    member_array,
    minor_coefficient_matrix,
    minor_residuals,
    monomial_exponents,
    normalize_at_largest,
    row_echelon,
)
from .polycore import (
    COMPLEX,
    MultiPoly,
    PolyMatrix,
    domain_of,
    join_domains,
)

# Newton convergence (step and residual) and the full-minor residual gate
SOLVER_TOL = 1e-8
JACOBIAN_SINGULAR_RTOL = 1e-6
# a root is certified simple when sigma_min of the Jacobian of all maximal
# minors is at least this times max(1, ||M||_F)^(m-1) * max(1, max ||B_i||_F)
CERTIFY_RTOL = 1e-6
MACAULAY_RANK_RTOL = 1e-8
# the highest truncation degree of the Macaulay matrices
MACAULAY_DEGREE_CAP = 8
NEWTON_MAX_ITER = 100
# max-norm distance under which Newton endpoints count as one root
CLUSTER_RADIUS = 1e-6
# two Delta eigenvalues are one cluster within this times eps ||M||_F times
# the smaller condition number; copies of multiple ones were seen at <= 2.4
DELTA_CLUSTER_FACTOR = 100
# trapezoid nodes on the circle whose integral gives a cluster's projector
CONTOUR_NODES = 32


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the solver.

    ``starts`` sizes the Newton batch; ``None`` resolves to 40 times the
    expected root count of the problem at hand.  The seed fixes the start set
    and the random combination of the Delta matrices, hence the whole output.
    """

    starts: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.starts is not None and self.starts <= 0:
            raise UsageError("start count must be positive")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class NewtonRoot:
    point: tuple
    possibly_multiple: bool


@dataclass(frozen=True)
class Eigenvalue:
    """One point of the eigenvalue locus with its left kernel vector."""

    lambdas: tuple
    kappa: tuple
    residual: float
    multiplicity: int
    flags: tuple = ()
    exact_lambdas: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "lambda": [[z.real, z.imag] for z in self.lambdas],
            "kappa": [[z.real, z.imag] for z in self.kappa],
            "residual": self.residual,
            "multiplicity": self.multiplicity,
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
    clusters = []
    free = np.arange(len(pts))
    while free.size:
        # the first free point opens a cluster; every free point within the
        # radius of it has no earlier cluster in reach, so it joins this one
        near = np.abs(pts[free] - pts[free[0]]).max(axis=1) <= radius
        clusters.append(order[free[near]])
        free = free[~near]
    return clusters


def newton_system(equations, config: SolverConfig, scale: float = 1.0, enough=None):
    """Solve a square polynomial system from seeded random complex starts.

    Returns de-duplicated roots; a root whose Jacobian is numerically singular
    is retained and flagged possibly multiple.  Output is deterministic for a
    fixed config.  After each iteration, ``enough`` (when given) receives the
    endpoints that converged in it as an (S, dim) array; a true answer stops
    the whole batch, and the endpoints converged so far are returned as usual.
    Without it the batch runs until every start has converged or diverged, or
    for ``NEWTON_MAX_ITER`` iterations.
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
        done = (step < SOLVER_TOL) & (res < SOLVER_TOL)
        converged[idx[done]] = True
        active[idx[done]] = False
        diverged = np.abs(Xn).max(axis=1) > 1e8 * max(1.0, scale)
        active[idx[diverged]] = False
        if enough is not None and done.any() and enough(Xn[done]):
            break
    pts = X[converged]
    if pts.size == 0:
        return []
    pts = pts[np.abs(system.values_and_jacobian(pts)[0]).max(axis=1) < SOLVER_TOL]
    if pts.size == 0:
        return []
    clusters = _cluster(pts, CLUSTER_RADIUS)
    reps = np.array([pts[cl].mean(axis=0) for cl in clusters])
    s = np.linalg.svd(system.values_and_jacobian(reps)[1], compute_uv=False)
    # an absolute floor, as in macaulay_multiplicity: a 1x1 Jacobian has
    # sigma_min == sigma_max, so a purely relative test never fires there
    singular = s[:, -1] <= JACOBIAN_SINGULAR_RTOL * np.maximum(s[:, 0], 1.0)
    roots = [NewtonRoot(tuple(rep), bool(flag)) for rep, flag in zip(reps, singular)]
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


def solve_eigenvalue_locus(spec: PencilSpec, config: SolverConfig | None = None):
    """All eigenvalues of the pencil, with kernel vectors and multiplicities.

    One seeded Newton batch on the bordered minors (columns 1..m-1 plus one)
    comes first; it stops once binom(n, m-1) distinct eigenvalues pass the
    full-minor residual ``SOLVER_TOL`` and are certified simple (see
    :func:`_count_stop`): the Jacobian of all maximal minors keeps full column
    rank there, its smallest singular value above ``CERTIFY_RTOL`` times its
    scale.  A transversal pencil has exactly binom(n, m-1) eigenvalues with
    multiplicity, so a batch that ends with that many is the whole locus, all
    simple.  Every other pencil goes to :func:`_delta_solve`, which also gives
    multiplicities and rejects a non-transversal subspace with
    :class:`NumericFailure` and ``details["expected"]``.
    """
    config = config or SolverConfig()
    m, k = spec.m, spec.k
    expected = spec.expected_count()
    lvars = tuple(f"l{i + 1}" for i in range(k))
    # the minors are only ever evaluated in floating point
    minors = maximal_minors(
        linear_forms([L.entries for L in spec.basis], lvars, COMPLEX, spec.base.entries)
    )
    minors_system = _CompiledSystem(minors, lvars)
    base_np = spec.base.to_numpy()
    basis_np = np.array([L.to_numpy() for L in spec.basis])
    basis_scale = max(1.0, max(np.linalg.norm(L) for L in basis_np))

    def certify_simple(reps, members):
        # full column rank of the all-minor Jacobian at a batch of eigenvalues
        sigma = np.linalg.svd(
            minors_system.values_and_jacobian(reps)[1], compute_uv=False
        )[:, -1]
        jac_scale = np.maximum(1.0, np.linalg.norm(members, axis=(1, 2))) ** (m - 1)
        return sigma >= CERTIFY_RTOL * jac_scale * basis_scale

    nstarts = config.starts if config.starts is not None else 40 * expected
    # the bordered minors lead the lexicographic order of maximal_minors
    roots = newton_system(
        minors[:k], replace(config, starts=nstarts), scale=1.0 + spec.base.frobenius(),
        enough=_count_stop(k, expected, base_np, basis_np, certify_simple),
    )
    points = np.array([r.point for r in roots], dtype=complex).reshape(-1, k)
    members = member_array(base_np, basis_np, points)
    keep = minor_residuals(members) <= SOLVER_TOL
    points, members = points[keep], members[keep]
    if (
        len(points) == expected == len(_cluster(points, CLUSTER_RADIUS))
        and not any(r.possibly_multiple for r, kept in zip(roots, keep) if kept)
        and certify_simple(points, members).all()
    ):
        return _eigenvalues(points, members, [1] * expected)
    return _delta_solve(spec, config.seed, base_np, basis_np)


def _eigenvalues(reps, members, multiplicities):
    """Eigenvalues at the rows of ``reps``, sorted by lambda, with kernel
    vectors from the SVD of their ``members``."""
    kernels = np.linalg.svd(members)[0][..., -1].conj()
    eigenvalues = [
        Eigenvalue(
            lambdas=tuple(complex(z) for z in rep),
            kappa=normalize_at_largest(kappa),
            residual=float(res),
            multiplicity=mult,
            flags=() if mult == 1 else ("possibly-multiple", "numerical"),
        )
        for rep, kappa, res, mult in zip(reps, kernels, minor_residuals(members), multiplicities)
    ]
    eigenvalues.sort(key=lambda e: tuple((z.real, z.imag) for z in e.lambdas))
    return eigenvalues


def _delta_solve(spec: PencilSpec, seed: int, base_np, basis_np):
    """The eigenvalues as the joint spectrum of X_j = Delta_0^-1 Delta_j.

    Delta_0 is the coefficient matrix of the maximal minors of the rows
    kappa^T B_1, ..., kappa^T B_k, and Delta_j the same with row j replaced by
    kappa^T A (:func:`minor_coefficient_matrix`), built in the pencil's own
    domain.  At an eigenvalue, X_j v = -lambda_j v for the vector v of the
    degree-k monomials of kappa, and both sides have binom(n, m-1) rows
    (Atkinson, *Multiparameter Eigenvalue Problems*, 1972).  Exact data with
    det Delta_0 = 0 (a non-transversal subspace) fails at once.

    One eigendecomposition of sum c_j X_j, c drawn from ``seed``, gives the
    spectrum.  Two eigenvalues join one cluster when their distance is within
    ``DELTA_CLUSTER_FACTOR`` times eps ||M||_F times the smaller of their
    condition numbers: the copies of a multiple eigenvalue spread by about
    that much, and a simple one is far better conditioned.  The cluster size
    is the multiplicity.  Every mean must pass the full-minor residual.
    """
    expected = spec.expected_count()
    domain = join_domains(spec.base.domain, *(L.domain for L in spec.basis))
    kvars = tuple(f"k{r + 1}" for r in range(spec.m))
    a_row, *rows = kappa_rows([spec.base.entries] + [L.entries for L in spec.basis], kvars, domain)
    deltas = [minor_coefficient_matrix(PolyMatrix(rows))] + [
        minor_coefficient_matrix(PolyMatrix(rows[:j] + [a_row] + rows[j + 1:]))
        for j in range(spec.k)
    ]
    D = np.array([delta.to_numpy() for delta in deltas])
    try:
        if domain.is_exact and deltas[0].det() == 0:
            raise np.linalg.LinAlgError
        X = np.linalg.solve(D[0], D[1:])
    except np.linalg.LinAlgError:
        raise NumericFailure(
            "the shift subspace is not transversal: Delta_0 is singular",
            details={"expected": expected, "found": []},
        ) from None
    rng = np.random.default_rng(seed)
    M = np.tensordot(rng.standard_normal(spec.k) + 1j * rng.standard_normal(spec.k), X, axes=1)
    mu, V = np.linalg.eig(M)
    # the rows of V^-1 are the left eigenvectors y with y^H x = 1, |x| = 1
    cond = np.linalg.norm(np.linalg.pinv(V), axis=1)
    spread = DELTA_CLUSTER_FACTOR * np.finfo(float).eps * np.linalg.norm(M) * cond
    clusters = _components(np.abs(mu[:, None] - mu) <= np.minimum.outer(spread, spread))
    reps = [_cluster_mean(X, M, mu, V, cl) for cl in clusters]
    members = member_array(base_np, basis_np, reps)
    passed = minor_residuals(members) <= SOLVER_TOL
    eigenvalues = _eigenvalues(
        np.array(reps)[passed], members[passed], [len(cl) for cl, p in zip(clusters, passed) if p]
    )
    if not passed.all():
        raise NumericFailure(
            f"found total multiplicity {sum(e.multiplicity for e in eigenvalues)} "
            f"of expected {expected}",
            details={"expected": expected, "found": [e.as_dict() for e in eigenvalues]},
        )
    return eigenvalues


def _cluster_mean(X, M, mu, V, cl):
    """The mean lambda over the eigenvalues ``mu[cl]`` of M = sum c_j X_j.

    That is -trace(P X_j) / d for the spectral projector P of the cluster,
    well conditioned where its d copies are not (Kato, *Perturbation Theory
    for Linear Operators*, ch. II).  A single eigenvalue reads it from its
    unit eigenvector, the whole spectrum has P = I, and any other cluster
    takes P as the integral of (z - M)^-1 / (2 pi i) over a circle about the
    cluster, a quarter of the way to the nearest other eigenvalue, by the
    trapezoid rule.
    """
    d, N = len(cl), len(M)
    if d == 1:
        x = V[:, cl[0]]
        return -(X @ x) @ x.conj()
    if d == N:
        return -np.trace(X, axis1=1, axis2=2) / N
    center = mu[cl].mean()
    others = np.delete(mu, cl)
    nodes = np.abs(others - center).min() / 4 * np.exp(
        2j * np.pi * (np.arange(CONTOUR_NODES) + 0.5) / CONTOUR_NODES
    )
    resolvents = np.linalg.inv((center + nodes)[:, None, None] * np.eye(N) - M)
    # trace((z - M)^-1 X_j) for every node z and every j
    traces = np.einsum("qab,jba->jq", resolvents, X)
    return -(traces @ nodes) / (CONTOUR_NODES * d)


def _components(adjacent):
    """Connected components of a symmetric boolean adjacency matrix, as
    index arrays in order of their smallest index."""
    labels = np.arange(len(adjacent))
    while True:
        # every node takes the smallest label among its neighbours
        relabeled = np.where(adjacent, labels, len(labels)).min(axis=1)
        if (relabeled == labels).all():
            return [np.flatnonzero(labels == c) for c in np.unique(labels)]
        labels = relabeled


def _count_stop(k, expected, base_np, basis_np, certify_simple):
    """A stop test for :func:`newton_system`: true once the endpoints seen so
    far hold ``expected`` distinct eigenvalues (their last ``k`` coordinates)
    that pass the full-minor residual and the ``certify_simple`` test.

    One batched residual and one batched certificate per call; endpoints
    within ``CLUSTER_RADIUS`` of an accepted eigenvalue are not re-tested.
    """
    accepted = np.empty((0, k), dtype=complex)

    def enough(endpoints):
        nonlocal accepted
        lams = endpoints[:, -k:]
        if len(accepted):
            near = np.abs(lams[:, None, :] - accepted[None]).max(axis=2) <= CLUSTER_RADIUS
            lams = lams[~near.any(axis=1)]
        if not len(lams):
            return False
        members = member_array(base_np, basis_np, lams)
        passed = minor_residuals(members) <= SOLVER_TOL
        if not passed.any():
            return False
        lams, members = lams[passed], members[passed]
        first = [cl[0] for cl in _cluster(lams, CLUSTER_RADIUS)]
        simple = certify_simple(lams[first], members[first])
        accepted = np.concatenate([accepted, lams[first][simple]])
        return len(accepted) >= expected

    return enough



# -- local multiplicity ------------------------------------------------------


def _translate(poly: MultiPoly, point, tvars):
    """Shifted polynomial p(point + t) over the translation variables."""
    domain = domain_of(point, poly.domain)
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


def macaulay_multiplicity(generators):
    """Dimension of the local algebra of the ideal at the origin, computed as
    the stabilized corank of degree-truncated Macaulay matrices, in exact
    arithmetic when the generators' joined domain is exact.  Returns None
    when ``MACAULAY_DEGREE_CAP`` is reached without stabilization
    (non-isolated or too deep).
    """
    generators = [g for g in generators if not g.is_zero]
    if not generators:
        return None
    tvars = generators[0].variables
    nvars = len(tvars)
    exact = join_domains(*(g.domain for g in generators)).is_exact
    if exact:
        gens = generators
    else:
        # the origin is a root by contract: drop the residual constant term,
        # and scale each generator to unit sup-coefficient
        gens = []
        for g in generators:
            terms = {e: complex(c) for e, c in g.terms.items() if any(e)}
            scale = max(map(abs, terms.values()), default=0.0) or 1.0
            gens.append(MultiPoly(tvars, {e: c / scale for e, c in terms.items()}, COMPLEX))
    if any(not any(e) for g in gens for e in g.terms):
        return 0  # a unit in the ideal: empty local algebra

    def monomials_upto(degree):
        # degree by degree, each in ascending lexicographic order
        return [e for d in range(degree + 1) for e in reversed(monomial_exponents(nvars, d))]

    zero = Fraction(0) if exact else 0j
    prev = 1
    for cap in range(1, MACAULAY_DEGREE_CAP + 1):
        monos = monomials_upto(cap)
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in gens:
            if not g.terms:
                continue
            mindeg = min(sum(e) for e in g.terms)
            for gamma in monomials_upto(max(0, cap - mindeg)):
                # the shifted generator gamma * g, truncated at degree cap
                shifted = {}
                for e, c in g.terms.items():
                    ne = tuple(a + b for a, b in zip(e, gamma))
                    if sum(ne) <= cap:
                        shifted[index[ne]] = c
                if shifted:
                    row = [zero] * len(monos)
                    for col, c in shifted.items():
                        row[col] = c
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


def system_local_multiplicity(equations, point):
    """Local multiplicity of a polynomial system at a computed root."""
    equations = list(equations)
    if not equations:
        raise UsageError("empty system")
    point = tuple(point)
    tvars = tuple(f"t{i + 1}" for i in range(len(equations[0].variables)))
    if len(point) != len(tvars):
        raise UsageError("point dimension does not match the system variables")
    gens = [_translate(e, point, tvars) for e in equations]
    return macaulay_multiplicity(gens)


def local_multiplicity(spec: PencilSpec, at):
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
    data = join_domains(spec.base.domain, *(L.domain for L in spec.basis))
    exact = domain_of(point, data).is_exact
    tvars = tuple(f"t{i + 1}" for i in range(spec.k))
    # complex parameters make the member a complex matrix
    shifted = spec.member(point if exact else [complex(z) for z in point])
    domain = join_domains(shifted.domain, data)
    grids = [L.entries for L in spec.basis]
    gens = maximal_minors(linear_forms(grids, tvars, domain, shifted.entries))
    return macaulay_multiplicity(gens)
