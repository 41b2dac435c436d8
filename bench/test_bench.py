"""Tests of the benchmark's own checks and a quick run of every workload.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from rectpencil import RectMatrix, disc23, polycore  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

from run import END_TO_END, WORKLOADS  # noqa: E402


def first_round(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    return workload.round()


def run_op(op):
    result = op.run()
    op.check(result)
    return result


def perturbed(eig, delta):
    lambdas = (eig.lambdas[0] + delta,) + tuple(eig.lambdas[1:])
    return type(eig)(lambdas, eig.kappa, eig.residual, eig.multiplicity, eig.flags)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_check_passes_current_outputs(name, tmp_path):
    for op in first_round(name, tmp_path):
        run_op(op)


def test_locus_check_rejects_perturbed_and_dropped_points(tmp_path):
    op = first_round("generic-ladder", tmp_path)[0]
    eigs = run_op(op)
    with pytest.raises(checks.CheckFailure, match="singular value"):
        op.check([perturbed(eigs[0], 1e-3)] + eigs[1:])
    with pytest.raises(checks.CheckFailure, match="total multiplicity"):
        op.check(eigs[1:])


def test_heine_checks_reject_wrong_branches_and_mismatched_solvers(tmp_path):
    ops = first_round("triangular-heine", tmp_path)
    heine_op, locus_op = ops[0], ops[1]
    eigs = run_op(heine_op)
    with pytest.raises(checks.CheckFailure):
        heine_op.check(eigs[1:])
    points = checks.eigen_points(eigs)
    moved = [(tuple(z + 1e-3 for z in lam), kap, mult) for lam, kap, mult in points]
    with pytest.raises(checks.CheckFailure, match="no partner"):
        checks.check_same_multiset(points, moved)
    run_op(locus_op)


def test_discriminant_check_rejects_flipped_flag_and_wrong_values(tmp_path):
    ops = first_round("disc23-cli", tmp_path)
    for op in ops[:2]:
        code, text = run_op(op)
        payload = json.loads(text)
        flipped = dict(payload, multiple=not payload["multiple"])
        with pytest.raises(checks.CheckFailure, match="multiple"):
            op.check((code, json.dumps(flipped)))
        dropped = dict(payload, eigenvalues=payload["eigenvalues"][1:])
        with pytest.raises(checks.CheckFailure):
            op.check((code, json.dumps(dropped)))
        with pytest.raises(checks.CheckFailure, match="exit code"):
            op.check((3, text))
        shifted = json.loads(text)
        shifted["eigenvalues"][0]["lambda"][0][0] += 1e-3
        with pytest.raises(checks.CheckFailure, match="singular value"):
            op.check((code, json.dumps(shifted)))
    changed = dict(json.loads(run_op(ops[0])[1]), D0_value="1/7")
    with pytest.raises(checks.CheckFailure, match="D0"):
        ops[0].check((0, json.dumps(changed)))


def test_d0_closed_form_matches_the_program():
    rng = np.random.default_rng(8)
    for _ in range(20):
        entries = workloads.rand_rational(rng, 2, 3)
        assert checks.d0_value(entries) == disc23.d0_value(RectMatrix(entries))


def test_critical_check_rejects_a_changed_coefficient(tmp_path):
    ops = [op for op in first_round("exact-identities", tmp_path) if op.kind.startswith("critical")]
    for op in (ops[0], ops[-1]):
        direct, expansion = run_op(op)
        exps = next(iter(direct.terms))
        terms = dict(direct.terms)
        terms[exps] = terms[exps] + 1
        changed = polycore.MultiPoly(direct.variables, terms, direct.domain)
        with pytest.raises(checks.CheckFailure, match="!="):
            op.check((changed, expansion))
        with pytest.raises(checks.CheckFailure, match="determinant"):
            op.check((changed, changed))


def test_exact_kernel_checks_reject_wrong_answers():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    checks.check_basis_change(identity, 2, 2)
    singular = [row[:2] + [Fraction(0)] for row in identity]
    with pytest.raises(checks.CheckFailure, match="singular"):
        checks.check_basis_change(singular, 2, 2)
    with pytest.raises(checks.CheckFailure, match="not"):
        checks.check_basis_change(identity, 3, 2)
    checks.check_multiplicity(10, 3, 5)
    with pytest.raises(checks.CheckFailure):
        checks.check_multiplicity(9, 3, 5)
    checks.check_transversality("transversal", "transversal")
    with pytest.raises(checks.CheckFailure):
        checks.check_transversality("inconclusive", "non-transversal")


def test_tracer_restores_every_function(tmp_path):
    from rectpencil import heine, locus

    def current():
        return (locus.solve_eigenvalue_locus, locus.newton_system,
                disc23.solve_eigenvalue_locus, heine.newton_system)

    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert locus.newton_system is not before[1]
        span = tracer.open_op("solve")
        run_op(first_round("generic-ladder", tmp_path)[0])
        tracer.close_op(span)
    finally:
        tracer.uninstall()
    assert current() == before
    names = {span[0] for span in tracer.spans}
    assert {"op", "locus.solve", "locus.newton", "pencil.maximal_minors", "polycore.sym_det"} <= names


def bench_run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170, check=False,
    )


def test_command_line_names_every_workload():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_run(name):
    proc = bench_run("--workload", name, "--seed", "2", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_traced_run():
    proc = bench_run("--workload", "disc23-cli", "--seed", "2", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert metrics["cli.solves_per_command"]["value"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_*", "__pycache__"))
    proc = bench_run("--workload", "generic-ladder", "--seconds", "1", cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
