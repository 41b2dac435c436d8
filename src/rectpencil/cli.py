"""Command-line frontend: JSON in, canonical JSON out, deterministic bytes.

Exit codes: 0 ok, 2 usage error, 3 numeric failure, 4 identity violation.
Floats are rendered with 17 significant digits and dictionary keys are sorted,
so identical inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import critical, disc23, heine, locus, pencil
from .errors import IdentityViolation, NumericFailure, UsageError
from .polycore import COMPLEX, RATIONAL, symbolic_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IDENTITY = 4


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericFailure(f"non-finite value {x!r} in output")
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    out = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise UsageError(f"cannot serialize {type(obj).__name__} to JSON")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix(path: str) -> pencil.RectMatrix:
    return pencil.matrix_from_json(_load_json(path))


def _load_basis(arg: str, m: int, n: int, domain) -> list:
    if arg == "diagonal":
        return pencil.standard_diagonal_basis(m, n, domain)
    obj = _load_json(arg)
    if isinstance(obj, dict) and "matrices" in obj:
        obj = obj["matrices"]
    if not isinstance(obj, list):
        raise UsageError("basis file must hold a JSON array of matrix objects")
    return [pencil.matrix_from_json(item) for item in obj]


def _solver_config(args) -> locus.SolverConfig:
    # built first in every solving handler, also on its paths that run no
    # solver, so a bad --seed or --starts is a usage error wherever it is given
    return locus.SolverConfig(starts=args.starts, seed=args.seed)


def _parse_at(text: str, k: int):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--at must be JSON: {exc}") from exc
    if not isinstance(raw, list) or len(raw) != k:
        raise UsageError(f"--at must be a JSON list of {k} components")
    # a string component is an exact rational, anything else a complex number
    return tuple(
        pencil.scalar_from_json(item, RATIONAL if isinstance(item, str) else COMPLEX)
        for item in raw
    )


# -- subcommand handlers ------------------------------------------------------


def _cmd_eigenvalues(args):
    config = _solver_config(args)
    A = _load_matrix(args.matrix)
    basis = _load_basis(args.basis, A.rows, A.cols, A.domain)
    spec = pencil.PencilSpec(A, basis)
    eigs = locus.solve_eigenvalue_locus(spec, config)
    payload = {
        "status": "ok",
        "m": spec.m,
        "n": spec.n,
        "expected": spec.expected_count(),
        "total_multiplicity": sum(e.multiplicity for e in eigs),
        "eigenvalues": [e.as_dict() for e in eigs],
    }
    return payload, None


def _cmd_heine(args):
    config = _solver_config(args)
    A = _load_matrix(args.matrix)
    systems = heine.build_branch_systems(A)
    total, per_branch = heine.heine_count(A.rows, A.cols)
    branches = []
    for bs, count in zip(systems, per_branch):
        branches.append(
            {
                "index": bs.branch_index,
                "lambda1": pencil.scalar_to_json(bs.lambda1),
                "expected_count": count,
                "equations": [eq.to_text() for eq in bs.equations],
                "kernel_numerators": [p.to_text() for p in bs.kernel_numerators],
                "kernel_denominators": [
                    pencil.scalar_to_json(d) for d in bs.kernel_denominators
                ],
            }
        )
    payload = {
        "status": "ok",
        "m": A.rows,
        "n": A.cols,
        "total_expected": total,
        "branches": branches,
    }
    if not args.systems_only:
        eigs = heine.heine_solve(A, config=config)
        payload["eigenvalues"] = [e.as_dict() for e in eigs]
        payload["total_multiplicity"] = sum(e.multiplicity for e in eigs)
    return payload, None


def _cmd_critical_poly(args):
    m, n = args.m, args.n
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    ahat = _load_matrix(args.ahat) if args.ahat else symbolic_matrix(m - 1, n)
    basis = _load_basis(args.basis, m, n, ahat.domain)
    result = critical.critical_det_poly(ahat, basis)
    payload = {
        "status": "ok",
        "m": m,
        "n": n,
        "variables": list(result.poly.variables),
        "poly": result.poly.to_text(),
    }
    return payload, result.poly.to_text()


def _cmd_sds_poly(args):
    m, n = args.m, args.n
    if m > n:
        raise UsageError(f"need m <= n, got {m}x{n}")
    ahat = _load_matrix(args.ahat) if args.ahat else symbolic_matrix(m - 1, n)
    result = critical.sds_poly(ahat, m, n)
    payload = {
        "status": "ok",
        "m": m,
        "n": n,
        "variables": list(result.poly.variables),
        "poly": result.poly.to_text(),
    }
    return payload, result.poly.to_text()


def _cmd_basis_check(args):
    change = critical.basis_change_matrix(args.i, args.d)
    det = change.det()
    payload = {
        "status": "ok",
        "i": args.i,
        "d": args.d,
        "dimension": change.rows,
        "independent": det != 0,
        "determinant": str(det),
    }
    return payload, None


def _cmd_discriminant23(args):
    config = _solver_config(args)
    if args.symbolic:
        d0 = disc23.discriminant_D0()
        payload = {"status": "ok", "D0": d0.to_text()}
        return payload, d0.to_text()
    if not args.matrix:
        raise UsageError("discriminant23 needs --matrix FILE or --symbolic")
    A = _load_matrix(args.matrix)
    value = disc23.d0_value(A)
    eigs = locus.solve_eigenvalue_locus(
        pencil.PencilSpec(A, pencil.standard_diagonal_basis(2, 3, A.domain)), config
    )
    multiple = disc23.has_multiple_eigenvalue(eigs)
    payload = {
        "status": "ok",
        "D0_value": pencil.scalar_to_json(value),
        "eigenvalues": [e.as_dict() for e in eigs],
        "multiple": multiple,
    }
    return payload, None


def _cmd_transversality(args):
    if args.basis == "diagonal":
        if not (args.m and args.n):
            raise UsageError("--basis diagonal needs --m and --n")
        basis = pencil.standard_diagonal_basis(args.m, args.n)
    else:
        basis = _load_basis(args.basis, 0, 0, RATIONAL)
    certificate = pencil.transversality_check(basis)
    payload = {"status": "ok", "certificate": certificate}
    return payload, certificate


def _cmd_multiplicity(args):
    config = _solver_config(args)
    A = _load_matrix(args.matrix)
    basis = _load_basis(args.basis, A.rows, A.cols, A.domain)
    spec = pencil.PencilSpec(A, basis)
    if args.at:
        point = _parse_at(args.at, spec.k)
        mult = locus.local_multiplicity(spec, point)
        payload = {
            "status": "ok",
            "multiplicity": "unknown" if mult is None else mult,
        }
        return payload, None
    eigs = locus.solve_eigenvalue_locus(spec, config)
    payload = {
        "status": "ok",
        "eigenvalues": [e.as_dict() for e in eigs],
        "total_multiplicity": sum(e.multiplicity for e in eigs),
    }
    return payload, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rectpencil",
        description=(
            "Eigenvalue loci of rectangular matrix pencils: locus solving, "
            "Heine branch systems, critical-set polynomials, and the 2x3 "
            "multiple-eigenvalue discriminant."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=False):
        p.add_argument("--format", choices=("text", "json"), default="json")
        if solver:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--starts", type=int, default=None)

    p = sub.add_parser(
        "eigenvalues",
        help="solve the eigenvalue locus of a pencil: binom(n, m-1) points "
        "with multiplicity for a transversal subspace",
    )
    p.add_argument("--matrix", required=True, help="base matrix JSON file")
    p.add_argument("--basis", default="diagonal",
                   help="'diagonal' or a JSON file with basis matrices")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_eigenvalues)

    p = sub.add_parser(
        "heine",
        help="Heine branch decomposition of an upper-triangular pencil into "
        "m complete intersections (branch counts binom(n-i, m-i))",
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--systems-only", action="store_true",
                   help="emit the branch systems without solving them")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_heine)

    p = sub.add_parser(
        "critical-poly",
        help="determinantal polynomial of the critical value set in "
        "resolution-chart coordinates (stacked-matrix determinant)",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ahat", help="optional (m-1) x n matrix JSON; symbolic if absent")
    p.add_argument("--basis", default="diagonal")
    add_common(p)
    p.set_defaults(func=_cmd_critical_poly)

    p = sub.add_parser(
        "sds-poly",
        help="column-subset (Pluecker) expansion of the critical polynomial "
        "for the standard diagonal subspace; equals critical-poly exactly",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ahat")
    add_common(p)
    p.set_defaults(func=_cmd_sds_poly)

    p = sub.add_parser(
        "basis-check",
        help="verify the maximal minors of the banded matrix T(i,d) form a "
        "basis of the degree-d forms in i variables",
    )
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_basis_check)

    p = sub.add_parser(
        "discriminant23",
        help="2x3 multiple-eigenvalue discriminant: D = -a13^6 * D0; value, "
        "eigenvalues and the coincidence oracle at a numeric matrix",
    )
    p.add_argument("--matrix")
    p.add_argument("--symbolic", action="store_true",
                   help="print the 22-monomial D0 in canonical text")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_discriminant23)

    p = sub.add_parser(
        "transversality",
        help="certify that a shift subspace meets the rank-deficient variety "
        "only at zero (an exact certificate for any number of basis matrices)",
    )
    p.add_argument("--basis", required=True,
                   help="'diagonal' (with --m/--n) or a JSON basis file")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    add_common(p)
    p.set_defaults(func=_cmd_transversality)

    p = sub.add_parser(
        "multiplicity",
        help="eigenvalue multiplicity as the local algebra dimension of the "
        "maximal-minor ideal (truncated Macaulay matrices)",
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--basis", default="diagonal")
    p.add_argument("--at", help="JSON eigenvalue: components 'p/q', number, or [re,im]")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_multiplicity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already wrote usage to stderr; exit code 2 for usage errors
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        payload, text = args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        print(canonical_json({"status": "usage-error", "error": str(exc)}))
        return EXIT_USAGE
    except NumericFailure as exc:
        print(str(exc), file=sys.stderr)
        print(canonical_json({"status": "numeric-failure", "error": str(exc)}))
        return EXIT_NUMERIC
    except IdentityViolation as exc:
        print(str(exc), file=sys.stderr)
        print(canonical_json({"status": "identity-violation", "error": str(exc)}))
        return EXIT_IDENTITY
    if args.format == "text" and text is not None:
        print(text)
    else:
        print(canonical_json(payload))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
