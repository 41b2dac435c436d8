"""CLI dispatch, canonical output, exit codes."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rectpencil import GaussianRational, matrix_to_json, RectMatrix, standard_diagonal_basis
from rectpencil.cli import (
    EXIT_IDENTITY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    canonical_json,
    main,
)
from rectpencil.disc23 import discriminant_D0
from rectpencil.pencil import scalar_to_json
from rectpencil.polycore import DOMAINS, GAUSSIAN


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def matrix_file(tmp_path):
    A = RectMatrix([[1, 2, 3], [0, 4, 5]])
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    return str(path)


def test_canonical_json_is_sorted_and_fixed_width():
    text = canonical_json({"b": 1.0, "a": [0.1, True, None, "x"]})
    assert text == '{"a":[0.10000000000000001,true,null,"x"],"b":1}'


def test_eigenvalues_command_deterministic(matrix_file):
    code1, out1, _ = run_cli(
        ["eigenvalues", "--matrix", matrix_file, "--basis", "diagonal", "--seed", "5"]
    )
    code2, out2, _ = run_cli(
        ["eigenvalues", "--matrix", matrix_file, "--basis", "diagonal", "--seed", "5"]
    )
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "ok"
    assert payload["expected"] == 3
    assert payload["total_multiplicity"] == 3
    assert len(payload["eigenvalues"]) == 3
    for e in payload["eigenvalues"]:
        assert e["residual"] < 1e-8


def test_eigenvalues_golden_matches_library(matrix_file):
    from rectpencil import PencilSpec, SolverConfig, solve_eigenvalue_locus
    from rectpencil import matrix_from_json, standard_diagonal_basis

    code, out, _ = run_cli(
        ["eigenvalues", "--matrix", matrix_file, "--seed", "5"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    A = matrix_from_json(json.loads(Path(matrix_file).read_text()))
    spec = PencilSpec(A, standard_diagonal_basis(2, 3))
    eigs = solve_eigenvalue_locus(spec, SolverConfig(seed=5))
    expected = [e.as_dict() for e in eigs]
    got = payload["eigenvalues"]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for (gr, gi), (er, ei) in zip(g["lambda"], e["lambda"]):
            assert abs(complex(gr, gi) - complex(er, ei)) < 1e-12


def test_critical_poly_text_output():
    code, out, _ = run_cli(["critical-poly", "--m", "2", "--n", "3", "--format", "text"])
    assert code == EXIT_OK
    assert out.strip() == "k1^2*a13 - k1*k2*a12 + k2^2*a11"


def test_critical_poly_3x4_six_term_structure():
    code, out, _ = run_cli(["critical-poly", "--m", "3", "--n", "4"])
    assert code == EXIT_OK
    payload = json.loads(out)
    from rectpencil import MultiPoly, standard_diagonal_basis, symbolic_matrix
    from rectpencil import critical_det_poly

    expected = critical_det_poly(symbolic_matrix(2, 4), standard_diagonal_basis(3, 4))
    assert payload["poly"] == expected.poly.to_text()


def test_sds_equals_critical_via_cli():
    code1, out1, _ = run_cli(["critical-poly", "--m", "2", "--n", "4", "--format", "text"])
    code2, out2, _ = run_cli(["sds-poly", "--m", "2", "--n", "4", "--format", "text"])
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_basis_check():
    code, out, _ = run_cli(["basis-check", "--i", "3", "--d", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 6
    assert payload["independent"] is True


def test_discriminant23_symbolic_text():
    code, out, _ = run_cli(["discriminant23", "--symbolic", "--format", "text"])
    assert code == EXIT_OK
    from rectpencil import discriminant_D0

    assert out.strip() == discriminant_D0().to_text()


def test_discriminant23_numeric(matrix_file):
    code, out, _ = run_cli(["discriminant23", "--matrix", matrix_file])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["multiple"] is False
    assert len(payload["eigenvalues"]) == 3
    assert payload["D0_value"] != "0"


def test_discriminant23_gaussian_matrix(tmp_path):
    A = RectMatrix(
        [[GaussianRational(1, 1), 2, GaussianRational(0, 3)], [GaussianRational(1, -1), 4, 5]],
        GAUSSIAN,
    )
    path = tmp_path / "A.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    code, out, _ = run_cli(["discriminant23", "--matrix", str(path)])
    assert code == EXIT_OK
    # D0 term by term, each power as a product of factors
    d0 = discriminant_D0()
    point = [A.entries[int(v[1]) - 1][int(v[2]) - 1] for v in d0.variables]
    value = sum(
        (c * math.prod((x for x, e in zip(point, exp) for _ in range(e)), start=GaussianRational(1))
         for exp, c in d0.terms.items()),
        start=GaussianRational(0),
    )
    assert json.loads(out)["D0_value"] == scalar_to_json(value)


@pytest.mark.parametrize("command", ["eigenvalues", "multiplicity", "discriminant23"])
def test_one_locus_solve_per_command(matrix_file, monkeypatch, command):
    from rectpencil import disc23, locus

    calls = []
    solve = locus.solve_eigenvalue_locus

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(locus, "solve_eigenvalue_locus", counted)
    monkeypatch.setattr(disc23, "solve_eigenvalue_locus", counted)
    code, _, _ = run_cli([command, "--matrix", matrix_file, "--seed", "3"])
    assert code == EXIT_OK
    assert len(calls) == 1


# every solving subcommand, and its paths that run no solver
SOLVING_COMMANDS = [
    pytest.param(["eigenvalues"], id="eigenvalues"),
    pytest.param(["heine"], id="heine"),
    pytest.param(["heine", "--systems-only"], id="heine-systems-only"),
    pytest.param(["discriminant23"], id="discriminant23"),
    pytest.param(["multiplicity"], id="multiplicity"),
    pytest.param(["multiplicity", "--at", '["0","0"]'], id="multiplicity-at"),
]


@pytest.mark.parametrize("command", SOLVING_COMMANDS)
def test_negative_seed_exits_two(matrix_file, command):
    code, out, err = run_cli([*command, "--matrix", matrix_file, "--seed", "-1"])
    assert code == EXIT_USAGE
    assert json.loads(out)["status"] == "usage-error"
    assert "seed" in err


@pytest.mark.parametrize("command", SOLVING_COMMANDS)
def test_zero_starts_exits_two(matrix_file, command):
    code, out, err = run_cli([*command, "--matrix", matrix_file, "--starts", "0"])
    assert code == EXIT_USAGE
    assert json.loads(out)["status"] == "usage-error"
    assert "start count" in err


def test_transversality_command():
    code, out, _ = run_cli(["transversality", "--basis", "diagonal", "--m", "2", "--n", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["certificate"] == "transversal"


def test_transversality_mixed_shapes_exits_two(tmp_path):
    path = tmp_path / "basis.json"
    basis = [RectMatrix.zeros(2, 3), RectMatrix.zeros(3, 2)]
    path.write_text(json.dumps([matrix_to_json(L) for L in basis]))
    code, out, _ = run_cli(["transversality", "--basis", str(path)])
    assert code == EXIT_USAGE
    assert json.loads(out)["status"] == "usage-error"


@pytest.mark.parametrize(
    "domain,entry,error",
    [
        ("rational", True, "boolean"),
        ("gaussian", False, "boolean"),
        ("gaussian", {"re": True, "im": "0"}, "boolean"),
        ("complex", True, "boolean"),
        ("complex", [1.0, False], "boolean"),
        ("rational", "abc", "malformed number"),
        ("rational", "1/0", "malformed number"),
        ("gaussian", {"re": "x"}, "malformed number"),
        ("complex", ["a", 0], "malformed number"),
        ("complex", [math.nan, 0], "non-finite number"),
    ],
    ids=[
        "rational", "gaussian", "gaussian-re", "complex", "complex-pair",
        "rational-text", "rational-zero-denominator", "gaussian-text", "complex-text", "complex-nan",
    ],
)
def test_json_booleans_in_matrix_file_exit_two(tmp_path, domain, entry, error):
    # bool is a subclass of int, so true/false used to read as 1/0; the
    # malformed numbers used to escape the reader as ValueError or
    # ZeroDivisionError, or load as NaN
    basis = [matrix_to_json(J) for J in standard_diagonal_basis(2, 3, DOMAINS[domain])]
    basis[0]["entries"][0][0] = entry
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    code, out, _ = run_cli(["transversality", "--basis", str(path)])
    assert code == EXIT_USAGE
    assert error in json.loads(out)["error"]


@pytest.mark.parametrize(
    "field,value",
    [
        ("entries", 5), ("entries", [5, 5]), ("rows", "two"), ("domain", []),
        ("rows", 2.5), ("rows", 2.0), ("cols", True),
    ],
    ids=["entries", "entries-rows", "rows", "domain", "rows-fraction", "rows-float", "cols-bool"],
)
def test_malformed_matrix_object_exits_two(tmp_path, field, value):
    # rows and cols are JSON integers: 2.5 and 2.0 used to read as 2
    obj = matrix_to_json(RectMatrix([[1, 2, 3], [0, 4, 5]]))
    obj[field] = value
    path = tmp_path / "A.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["eigenvalues", "--matrix", str(path)])
    assert code == EXIT_USAGE
    assert json.loads(out)["status"] == "usage-error"


_MALFORMED_AT = [
    ('[true, "0"]', "boolean"),
    ('["0", false]', "boolean"),
    ('[[true, 0], "0"]', "boolean"),
    ('["x", "0"]', "malformed number"),
    ('["1/0", "0"]', "malformed number"),
    ("[NaN, 0]", "non-finite number"),
]


@pytest.mark.parametrize("at,error", _MALFORMED_AT, ids=[at for at, _ in _MALFORMED_AT])
def test_json_booleans_in_at_exit_two(matrix_file, at, error):
    code, out, _ = run_cli(["multiplicity", "--matrix", matrix_file, "--at", at])
    assert code == EXIT_USAGE
    assert error in json.loads(out)["error"]


@pytest.mark.parametrize(
    "args",
    [
        ["critical-poly", "--m", "2", "--n", "3"],
        ["sds-poly", "--m", "2", "--n", "3"],
        ["basis-check", "--i", "2", "--d", "2"],
        ["transversality", "--basis", "diagonal", "--m", "2", "--n", "3"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("flag", ["--seed", "--tol"])
def test_exact_subcommands_take_no_solver_flags(args, flag):
    code, _, _ = run_cli(args + [flag, "1"])
    assert code == EXIT_USAGE


def test_multiplicity_at_exact_zero(tmp_path):
    A = RectMatrix.zeros(2, 3)
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(matrix_to_json(A)))
    code, out, _ = run_cli(
        ["multiplicity", "--matrix", str(path), "--at", '["0", "0"]']
    )
    assert code == EXIT_OK
    assert json.loads(out)["multiplicity"] == 3


def test_heine_systems_only(matrix_file):
    code, out, _ = run_cli(["heine", "--matrix", matrix_file, "--systems-only"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total_expected"] == 3
    assert [b["expected_count"] for b in payload["branches"]] == [2, 1]


def test_heine_solve_via_cli(matrix_file):
    code, out, _ = run_cli(["heine", "--matrix", matrix_file])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total_multiplicity"] == 3


def test_unknown_flag_exits_two(matrix_file):
    code, _, err = run_cli(["eigenvalues", "--matrix", matrix_file, "--bogus"])
    assert code == EXIT_USAGE
    assert "usage" in err.lower() or "unrecognized" in err.lower()


def test_missing_file_exits_two():
    code, out, err = run_cli(["eigenvalues", "--matrix", "/nonexistent.json"])
    assert code == EXIT_USAGE
    assert json.loads(out)["status"] == "usage-error"


def test_numeric_failure_exit_code(tmp_path):
    # a pencil whose members all keep a zero second row never reaches the
    # expected count: the solver reports a numeric failure
    A = RectMatrix.zeros(2, 3)
    basis = [
        RectMatrix([[1, 0, 0], [0, 0, 0]]),
        RectMatrix([[0, 1, 0], [0, 0, 0]]),
    ]
    apath = tmp_path / "A.json"
    apath.write_text(json.dumps(matrix_to_json(A)))
    bpath = tmp_path / "basis.json"
    bpath.write_text(json.dumps([matrix_to_json(L) for L in basis]))
    code, out, _ = run_cli(
        ["eigenvalues", "--matrix", str(apath), "--basis", str(bpath), "--starts", "16"]
    )
    assert code == EXIT_NUMERIC
    assert json.loads(out)["status"] == "numeric-failure"


def test_every_subcommand_has_help():
    from rectpencil.cli import build_parser

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    names = set(subparsers.choices)
    assert names == {
        "eigenvalues",
        "heine",
        "critical-poly",
        "sds-poly",
        "basis-check",
        "discriminant23",
        "transversality",
        "multiplicity",
    }
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        assert len(text) > 0
