"""The benchmark's four workloads: seeded inputs, operations and their checks.

A workload hands out rounds.  A round is a fixed list of operations (one
library call or one CLI command each) on fresh inputs drawn from the workload
seed, so every run attempts whole rounds of the same operations and the share
of failed operations is the same in every run.  Each operation carries the
check that its output must pass.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from rectpencil import cli, critical, heine, locus, pencil, polycore

import checks


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def rand_fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))


def rand_rational(rng, m: int, n: int) -> list:
    return [[rand_fraction(rng) for _ in range(n)] for _ in range(m)]


def rand_upper(rng, m: int, n: int) -> list:
    """Integer upper-triangular matrix with distinct diagonal, drawn the way
    the test suite draws its triangular pencils."""
    while True:
        entries = [[0] * n for _ in range(m)]
        for i in range(m):
            for j in range(i, n):
                entries[i][j] = int(rng.integers(-9, 10))
        if len({entries[i][i] for i in range(m)}) == m:
            return entries


def solver_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def locus_solve(entries, m: int, n: int, seed: int):
    spec = pencil.PencilSpec(pencil.RectMatrix(entries), pencil.standard_diagonal_basis(m, n))
    return locus.solve_eigenvalue_locus(spec, locus.SolverConfig(seed=seed))


class Workload:
    name = ""
    tail_pct = 90

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def round(self) -> list:
        """The next round's operations, on fresh inputs."""
        raise NotImplementedError

    def warm_up(self):
        """Fill the program's caches with seed-independent calls."""
        raise NotImplementedError


class GenericLadder(Workload):
    """solve_eigenvalue_locus on generic rational pencils, sizes in rotation."""

    name = "generic-ladder"
    # Sizes whose solve times stay within a factor of two of their median on
    # almost every input.  Three 3x5 and two 4x5 pencils per round: p50 falls
    # inside the 4x5 solves and p90 inside the 3x5 ones.
    sizes = ((2, 4), (3, 4), (4, 5), (4, 5), (3, 5), (3, 5), (3, 5))

    def round(self):
        return [self._op(m, n) for m, n in self.sizes]

    def _op(self, m, n):
        entries = rand_rational(self.rng, m, n)
        seed = solver_seed(self.rng)
        base, basis = checks.to_array(entries), checks.diagonal_basis(m, n)

        def check(eigs):
            checks.check_locus(base, basis, checks.eigen_points(eigs), m, n)

        return Op(f"locus {m}x{n}", lambda: locus_solve(entries, m, n, seed), check)

    def warm_up(self):
        locus_solve([[2, -1, 3], [1, 4, -2]], 2, 3, 0)


class TriangularHeine(Workload):
    """heine_solve on upper-triangular pencils; the 2x4 ones also go through
    the general solver, whose output must match the branch solutions."""

    name = "triangular-heine"
    # Per round: one 2x4 pencil through both solvers and one 2x6 pencil
    # through heine_solve.  p50 falls inside the 2x6 solves and p80 inside the
    # general solves, with at least ten samples beyond it in a run.
    tail_pct = 80

    def round(self):
        both, shared = rand_upper(self.rng, 2, 4), {}
        return [
            self._heine_op(both, solver_seed(self.rng), shared),
            self._locus_op(both, solver_seed(self.rng), shared),
            self._heine_op(rand_upper(self.rng, 2, 6), solver_seed(self.rng), {}),
        ]

    def _heine_op(self, entries, seed, shared):
        m, n = len(entries), len(entries[0])
        base, basis = checks.to_array(entries), checks.diagonal_basis(m, n)
        diagonal = [entries[i][i] for i in range(m)]

        def run():
            config = locus.SolverConfig(seed=seed)
            shared["heine"] = heine.heine_solve(pencil.RectMatrix(entries), config=config)
            return shared["heine"]

        def check(eigs):
            points = checks.eigen_points(eigs)
            checks.check_locus(base, basis, points, m, n)
            checks.check_heine_branches(diagonal, points, m, n)

        return Op(f"heine {m}x{n}", run, check)

    def _locus_op(self, entries, seed, shared):
        m, n = len(entries), len(entries[0])
        base, basis = checks.to_array(entries), checks.diagonal_basis(m, n)
        diagonal = [entries[i][i] for i in range(m)]

        def check(eigs):
            points = checks.eigen_points(eigs)
            checks.check_locus(base, basis, points, m, n)
            checks.check_heine_branches(diagonal, points, m, n)
            if "heine" in shared:
                checks.check_same_multiset(points, checks.eigen_points(shared["heine"]))

        return Op(f"locus-triangular {m}x{n}", lambda: locus_solve(entries, m, n, seed), check)

    def warm_up(self):
        heine.heine_solve(pencil.RectMatrix([[1, 2, 3, 4], [0, 5, 6, 7]]))


class Disc23Cli(Workload):
    """`rectpencil discriminant23 --matrix FILE` through cli.main, in-process."""

    name = "disc23-cli"
    # About 7 % of commands run the solver's retry ladder and take ten times
    # longer, a number that moves with the seed; p80 stays clear of that step.
    tail_pct = 80
    commands_per_round = 5

    def round(self):
        ops = []
        for i in range(self.commands_per_round):
            while True:
                entries = rand_rational(self.rng, 2, 3)
                # Criterion 8 draws need |a13| >= 1/4.  About one draw in 1100
                # lies exactly on the hypersurface D0 = 0, where the locus
                # solver fails now and then; those draws are skipped.
                if abs(entries[0][2]) >= Fraction(1, 4) and checks.d0_value(entries) != 0:
                    break
            path = self.workdir / f"d{i}.json"
            path.write_text(json.dumps(pencil.matrix_to_json(pencil.RectMatrix(entries))))
            ops.append(self._op(entries, path, solver_seed(self.rng)))
        return ops

    def _op(self, entries, path, seed):
        argv = ["discriminant23", "--matrix", str(path), "--seed", str(seed)]

        def run():
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            checks.check_discriminant23(entries, code, json.loads(text))

        return Op("discriminant23", run, check)

    def warm_up(self):
        path = self.workdir / "warm.json"
        path.write_text(json.dumps(pencil.matrix_to_json(pencil.RectMatrix([[2, -1, 3], [1, 4, -2]]))))
        with redirect_stdout(io.StringIO()):
            cli.main(["discriminant23", "--matrix", str(path)])


def rand_invertible(rng, k: int) -> list:
    while True:
        M = [[int(rng.integers(-2, 3)) for _ in range(k)] for _ in range(k)]
        if checks.exact_det(M) != 0:
            return M


def matmul(A, B) -> list:
    return [
        [sum((A[i][t] * B[t][j] for t in range(len(B))), Fraction(0)) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def transformed_diagonal_basis(rng, m: int, n: int) -> list:
    """P * J_s * Q for random invertible integer P, Q.  Rank is unchanged by
    P and Q, so the basis stays transversal and every count stays C(n, m-1)."""
    P, Q = rand_invertible(rng, m), rand_invertible(rng, n)
    return [
        matmul(matmul(P, [[int(v) for v in row] for row in J]), Q)
        for J in checks.diagonal_basis(m, n)
    ]


def non_transversal_pair(rng, m: int) -> list:
    """Two m x (m+1) matrices whose combination L1 + r*L2 has rank below m."""
    n = m + 1
    while True:
        X = [[int(rng.integers(-9, 10)) for _ in range(m - 1)] for _ in range(m)]
        Y = [[int(rng.integers(-9, 10)) for _ in range(n)] for _ in range(m - 1)]
        L2 = [[int(rng.integers(-9, 10)) for _ in range(n)] for _ in range(m)]
        r = rand_fraction(rng)
        deficient = matmul(X, Y)
        L1 = [[deficient[i][j] - r * L2[i][j] for j in range(n)] for i in range(m)]
        flat1 = [v for row in L1 for v in row]
        flat2 = [v for row in L2 for v in row]
        pivot = next((t for t, v in enumerate(flat2) if v != 0), None)
        if pivot is None:
            continue
        ratio = flat1[pivot] / flat2[pivot]
        if any(a != ratio * b for a, b in zip(flat1, flat2)):  # independent
            return [L1, L2]


class ExactIdentities(Workload):
    """Exact rational kernels: critical-set polynomials two ways, the T(i,d)
    basis change, multiplicity of zero pencils at 0, transversality."""

    name = "exact-identities"
    # Fifteen kinds of comparable cost per round: with equal counts per kind,
    # p50 and p90 fall on the middle of one kind's samples, not between two.
    critical_numeric = ((3, 5), (4, 6), (4, 7), (5, 8))
    critical_symbolic = ((3, 5), (4, 5), (3, 6))
    basis_change = ((3, 5), (4, 4), (5, 3))
    zero_multiplicity = ((3, 5), (2, 6), (4, 5))
    transversality = ((4, "transversal"), (5, "non-transversal"))

    def round(self):
        ops = [self._critical_numeric(m, n) for m, n in self.critical_numeric]
        ops += [self._critical_symbolic(m, n) for m, n in self.critical_symbolic]
        ops += [self._basis_change(i, d) for i, d in self.basis_change]
        ops += [self._zero_multiplicity(m, n) for m, n in self.zero_multiplicity]
        ops += [self._transversality(m, verdict) for m, verdict in self.transversality]
        return ops

    def _kappa_point(self, m):
        return {f"k{i + 1}": rand_fraction(self.rng) for i in range(m)}

    def _critical_numeric(self, m, n):
        ahat = rand_rational(self.rng, m - 1, n)
        point = self._kappa_point(m)

        def run():
            top = pencil.RectMatrix(ahat)
            direct = critical.critical_det_poly(top, pencil.standard_diagonal_basis(m, n))
            return direct.poly, critical.sds_poly(top, m, n).poly

        def check(result):
            checks.check_critical(*result, ahat, False, point, m, n)

        return Op(f"critical numeric {m}x{n}", run, check)

    def _critical_symbolic(self, m, n):
        names = [[f"a{i + 1}{j + 1}" for j in range(n)] for i in range(m - 1)]
        point = self._kappa_point(m)
        point.update({v: rand_fraction(self.rng) for row in names for v in row})

        def run():
            top = polycore.symbolic_matrix(m - 1, n)
            direct = critical.critical_det_poly(top, pencil.standard_diagonal_basis(m, n))
            return direct.poly, critical.sds_poly(top, m, n).poly

        def check(result):
            checks.check_critical(*result, names, True, point, m, n)

        return Op(f"critical symbolic {m}x{n}", run, check)

    def _basis_change(self, i, d):
        def check(matrix):
            checks.check_basis_change(matrix.entries, i, d)

        return Op(f"basis-change ({i},{d})", lambda: critical.basis_change_matrix(i, d), check)

    def _zero_multiplicity(self, m, n):
        basis = transformed_diagonal_basis(self.rng, m, n)

        def run():
            spec = pencil.PencilSpec(
                pencil.RectMatrix.zeros(m, n), [pencil.RectMatrix(L) for L in basis]
            )
            return locus.local_multiplicity(spec, (Fraction(0),) * (n - m + 1))

        return Op(
            f"zero-multiplicity {m}x{n}", run, lambda v: checks.check_multiplicity(v, m, n)
        )

    def _transversality(self, m, expected):
        if expected == "transversal":
            basis = transformed_diagonal_basis(self.rng, m, m + 1)
        else:
            basis = non_transversal_pair(self.rng, m)

        def run():
            return pencil.transversality_check([pencil.RectMatrix(L) for L in basis])

        return Op(
            f"transversality {m}x{m + 1} {expected}",
            run,
            lambda v: checks.check_transversality(v, expected),
        )

    def warm_up(self):
        critical.sds_poly(polycore.symbolic_matrix(1, 3), 2, 3)
        critical.basis_change_matrix(2, 2)
        zero = pencil.PencilSpec(pencil.RectMatrix.zeros(2, 3), pencil.standard_diagonal_basis(2, 3))
        locus.local_multiplicity(zero, (Fraction(0), Fraction(0)))
        pencil.transversality_check(pencil.standard_diagonal_basis(2, 3))


WORKLOADS = {w.name: w for w in (GenericLadder, TriangularHeine, Disc23Cli, ExactIdentities)}
