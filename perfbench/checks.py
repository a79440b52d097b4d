"""Correctness checks on the reports the CLI writes.

Every op must exit 0, every ``status`` and ``*_check`` field of its report
must read ``pass``, and the report must have the shape its command promises.
Where ``reference.json`` holds a digest for the op's inputs, the report's
sha256 must equal it: reports are required to be byte-identical across
versions of the program.
"""

from __future__ import annotations

import hashlib
import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def input_key(op: dict) -> str:
    """Digest of everything an op feeds the program, independent of paths."""
    argv = op["argv"]
    parts = [op["command"], str(op["nmax"])]
    for flag in ("--config", "--custom-s"):
        if flag in argv:
            with open(argv[argv.index(flag) + 1], encoding="utf-8") as fh:
                parts.append(fh.read())
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _pass_fields(node, path=""):
    """Yield (path, value) for every status-like field anywhere in the report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, str) and (key == "status" or key.endswith("_check")):
                yield f"{path}.{key}", value
            else:
                yield from _pass_fields(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _pass_fields(value, f"{path}[{i}]")


def _shape_problem(op: dict, report: dict):
    nmax = op["nmax"]
    command = op["command"]
    if command == "construct":
        polys = report.get("polynomials", [])
        if report.get("n_max") != nmax or len(polys) != nmax + 1:
            return "wrong number of polynomials"
        for n, entry in enumerate(polys):
            if entry["n"] != n or len(entry["coeffs"]) != n + 1 or entry["lambda_n"] == "0":
                return f"bad q_{n}"
    elif command == "operator":
        if report.get("eigen_checked_to") != nmax:
            return "eigen check did not reach nmax"
        if report.get("order") != report.get("predicted_order"):
            return "operator order differs from the prediction"
        if len(report["operator"]["coeffs"]) != report["order"] + 1:
            return "operator coefficient count differs from its order"
        if not all(report.get("assumptions", {}).values()):
            return "an assumption failed"
    elif command == "verify":
        if report.get("lambda_nonzero_checked_to") != nmax or "degenerate_at" in report:
            return "degenerate configuration"
        if len(report.get("eigenvalues", [])) != nmax + 1:
            return "missing eigenvalues"
        if not all(report.get("assumption_status", {}).values()):
            return "an assumption failed"
        if op["family"] != "random" and report["measured_order"] > 2 * op["shape"][0] + 2:
            return "custom S did not lower the order to at most 2a+2"
    return None


def check_op(op: dict, code: int, report_path: str):
    """Return (digest, problem); problem is None when the op is correct."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        with open(report_path, "rb") as fh:
            data = fh.read()
        report = json.loads(data)
    except (OSError, ValueError) as exc:
        return None, f"unreadable report: {exc}"
    digest = hashlib.sha256(data).hexdigest()
    for path, value in _pass_fields(report):
        if value != "pass":
            return digest, f"{path} reads {value!r}"
    return digest, _shape_problem(op, report)
