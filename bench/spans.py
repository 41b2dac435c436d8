"""Spans at the layer boundaries of rectpencil, recorded from outside it.

A traced run replaces each public function below, in every rectpencil module
that holds it, with a wrapper that records a span (name, start, end, parent)
around the call.  Calls between modules and the module's own calls through its
globals both pass the wrapper.  Untraced runs install nothing.  Spans stay in
memory and are written out when the run ends; the per-layer metrics are
computed from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# span name -> (defining module, function)
TARGETS = {
    "polycore.sym_det": ("polycore", "sym_det"),
    "pencil.maximal_minors": ("pencil", "maximal_minors"),
    "pencil.transversality": ("pencil", "transversality_check"),
    "critical.det_poly": ("critical", "critical_det_poly"),
    "critical.sds_poly": ("critical", "sds_poly"),
    "critical.basis_change": ("critical", "basis_change_matrix"),
    "heine.solve": ("heine", "heine_solve"),
    "heine.branch_systems": ("heine", "build_branch_systems"),
    "locus.solve": ("locus", "solve_eigenvalue_locus"),
    "locus.newton": ("locus", "newton_system"),
    "locus.multiplicity": ("locus", "local_multiplicity"),
    "locus.system_multiplicity": ("locus", "system_local_multiplicity"),
    "disc23.d0_value": ("disc23", "d0_value"),
    "disc23.oracle": ("disc23", "multiple_eigenvalue_oracle"),
    "cli.main": ("cli", "main"),
}

# per-layer metric -> (unit, better)
PER_LAYER = {
    "locus.solve_s": ("s", "lower"),
    "locus.self_s": ("s", "lower"),
    "locus.newton_calls": ("calls/op", "lower"),
    "locus.attempts_per_solve": ("attempts/solve", "lower"),
    "locus.newton_starts": ("starts/call", "lower"),
    "locus.newton_s": ("s", "lower"),
    "locus.roots_per_start": ("roots/start", "higher"),
    "locus.multiplicity_calls": ("calls/op", "lower"),
    "locus.multiplicity_s": ("s", "lower"),
    "polycore.sym_det_calls": ("calls/op", "lower"),
    "polycore.sym_det_s": ("s", "lower"),
    "pencil.maximal_minors_calls": ("calls/op", "lower"),
    "pencil.maximal_minors_s": ("s", "lower"),
    "pencil.transversality_s": ("s", "lower"),
    "heine.solve_s": ("s", "lower"),
    "heine.branch_systems_s": ("s", "lower"),
    "heine.branch_newton_calls": ("calls/solve", "lower"),
    "heine.branch_newton_s": ("s", "lower"),
    "heine.branch_multiplicity_s": ("s", "lower"),
    "heine.failed_branches": ("branches/solve", "lower"),
    "critical.det_poly_s": ("s", "lower"),
    "critical.sds_poly_s": ("s", "lower"),
    "critical.basis_change_s": ("s", "lower"),
    "disc23.d0_value_s": ("s", "lower"),
    "disc23.oracle_s": ("s", "lower"),
    "cli.solves_per_command": ("solves/command", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes/command", "lower"),
}

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Records spans while installed; ``open_op`` marks one benchmark operation."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._restore = []

    def install(self):
        package = importlib.import_module("rectpencil")
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("rectpencil.")
        ]
        for span_name, (module, attr) in TARGETS.items():
            original = getattr(importlib.import_module(f"rectpencil.{module}"), attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def _open(self, name) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(index)
        return index

    def _close(self, index, info=None):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[INFO] = info
        self._stack.pop()

    def _wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            info = None
            written = sys.stdout.tell() if name == "cli.main" else 0
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                details = getattr(exc, "details", None) or {}
                info = {"error": type(exc).__name__, "failed_branches": len(details.get("branches", {}))}
                raise
            else:
                if name == "locus.newton":
                    config = args[1] if len(args) > 1 else kwargs["config"]
                    info = {"starts": config.starts, "roots": len(result)}
                elif name == "cli.main":
                    # the benchmark captures the command's output in a StringIO
                    info = {"bytes_out": sys.stdout.tell() - written}
                return result
            finally:
                self._close(index, info)

        return wrapper

    def open_op(self, kind: str) -> int:
        """Start the root span of one benchmark operation."""
        index = self._open("op")
        self.spans[index][INFO] = {"kind": kind}
        return index

    def close_op(self, index: int):
        self._close(index, self.spans[index][INFO])

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, info]) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics from a finished run's spans."""
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]

    def select(name, parent=None):
        return [
            i for i, s in enumerate(spans)
            if s[NAME] == name
            and (parent is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent))
        ]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_s(indices):
        return mean([duration[i] for i in indices])

    ops = select("op")
    solves = select("locus.solve")
    newton = select("locus.newton", "locus.solve")
    starts = sum(spans[i][INFO]["starts"] for i in newton)
    roots = sum(spans[i][INFO]["roots"] for i in newton)
    multiplicity = select("locus.multiplicity")
    sym_det = select("polycore.sym_det")
    minors = select("pencil.maximal_minors")
    heine_solves = select("heine.solve")
    branch_newton = select("locus.newton", "heine.solve")
    commands = select("cli.main")
    failed_branches = sum(
        (spans[i][INFO] or {}).get("failed_branches", 0) for i in heine_solves
    )
    out = {
        "locus.solve_s": mean_s(solves),
        "locus.self_s": mean([duration[i] - child_time[i] for i in solves]),
        "locus.newton_calls": ratio(len(newton), len(ops)),
        "locus.attempts_per_solve": ratio(len(newton), len(solves)),
        "locus.newton_starts": ratio(starts, len(newton)),
        "locus.newton_s": mean_s(newton),
        "locus.roots_per_start": ratio(roots, starts),
        "locus.multiplicity_calls": ratio(len(multiplicity), len(ops)),
        "locus.multiplicity_s": mean_s(multiplicity),
        "polycore.sym_det_calls": ratio(len(sym_det), len(ops)),
        "polycore.sym_det_s": mean_s(sym_det),
        "pencil.maximal_minors_calls": ratio(len(minors), len(ops)),
        "pencil.maximal_minors_s": mean_s(minors),
        "pencil.transversality_s": mean_s(select("pencil.transversality")),
        "heine.solve_s": mean_s(heine_solves),
        "heine.branch_systems_s": mean_s(select("heine.branch_systems")),
        "heine.branch_newton_calls": ratio(len(branch_newton), len(heine_solves)),
        "heine.branch_newton_s": mean_s(branch_newton),
        "heine.branch_multiplicity_s": mean_s(select("locus.system_multiplicity", "heine.solve")),
        "heine.failed_branches": ratio(failed_branches, len(heine_solves)),
        "critical.det_poly_s": mean_s(select("critical.det_poly")),
        "critical.sds_poly_s": mean_s(select("critical.sds_poly")),
        "critical.basis_change_s": mean_s(select("critical.basis_change")),
        "disc23.d0_value_s": mean_s(select("disc23.d0_value")),
        "disc23.oracle_s": mean_s(select("disc23.oracle")),
        "cli.solves_per_command": ratio(
            sum(1 for i in solves if _under(spans, i, "cli.main")), len(commands)
        ),
        "cli.self_s": mean([duration[i] - child_time[i] for i in commands]),
        "cli.bytes_out": mean([spans[i][INFO]["bytes_out"] for i in commands]),
    }
    assert set(out) == set(PER_LAYER)
    return out


def _under(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
