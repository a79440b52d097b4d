"""Batch command-line front end.

Four subcommands share one JSON configuration format:

- ``construct``: build the orthogonal polynomials q_0..q_nmax and write their
  coefficients with the certifying determinant value for each degree.
- ``verify``: run the whole pipeline (orthogonality, eigenoperator, order
  prediction) and emit a deterministic report.
- ``operator``: build the differential operator and export its coefficients.
- ``rank``: compute a gamma-weighted rank with its full audit trail.

Exit codes: 0 success, 1 malformed input, 2 degenerate configuration
(vanishing determinant in range), 3 verification failure (including an
internal identity check that did not hold).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Tuple

from .construct import DegenerateConfigError, build_z, casorati_lambda, sobolev_poly
from .diffop import ASSUMPTIONS, AssumptionFailed, EigenMismatch, _omega, build_bundle, operator_order, verify_eigen
from .exactmath import IdentityCheckFailed, Poly, RationalFunction, _digit_limit, rat, rat_rows, rat_str
from .rank import predicted_order, weighted_rank
from .sobolev import SobolevConfig, bilinear, bilinear_monomials

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_VERIFY = 3


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _parse(what: str, read):
    """read(), with any failure to read or parse the input as one exit-1 line. A JSONDecodeError
    is a ValueError, and JSON nested past the recursion limit raises RecursionError."""
    try:
        return read()
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=rat)


def _read_custom_s(path: Optional[str]) -> Optional[Tuple[Poly, object]]:
    """The (num, den) of a {num: coeffs, den: "auto-omega" | coeffs} file, den a Poly or
    "auto-omega"; None without a file."""
    if path is None:
        return None

    def read():
        data = _read_json(path)
        unknown = sorted(set(data) - {"num", "den"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        den = data["den"]
        return Poly.from_json(data["num"]), den if den == "auto-omega" else Poly.from_json(den)

    return _parse(f"custom S {path}", read)


def _load_custom_s(path: Optional[str], parts, cfg: SobolevConfig, sys_z) -> Optional[RationalFunction]:
    """S = num / den from `_read_custom_s`; "auto-omega" puts the Casorati determinant in
    the denominator, which users cannot easily precompute themselves. S must be nonzero."""
    if parts is None:
        return None
    num, den = parts
    if den == "auto-omega":
        custom_s = RationalFunction(num) / _omega(cfg, sys_z)
    else:
        try:
            custom_s = RationalFunction(num, den)
        except ZeroDivisionError as exc:
            raise InputError(f"bad custom S denominator: {exc}") from exc
    if custom_s.is_zero:
        raise InputError(f"bad custom S {path}: S must be nonzero")
    return custom_s


def _set_digit_limit(limit: int) -> None:
    """Set the interpreter's int-string digit limit (0: off), where it has one."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(limit)


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not out:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # fd 1 goes to the null device, so that the interpreter's final flush of what stdout
            # still buffers cannot fail again and make the exit code 120 (the signal module's
            # recipe for SIGPIPE)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InputError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _first_degenerate(system, cfg: SobolevConfig, n_max: int) -> Optional[int]:
    """The first n <= n_max with Lambda(n) = 0, or None."""
    return next((n for n in range(n_max + 1) if casorati_lambda(system, cfg, n) == 0), None)


def _orthogonality_failure(cfg: SobolevConfig, qs) -> Optional[dict]:
    """The first failed check: B(q_n, x^j) != 0 for j < n, or B(q_n, q_n) = 0 (j None),
    at the lowest such n and the smallest j there. The degrees are walked from the top
    down, so the first request sizes the configuration's Gram table."""
    failure = None
    for n in reversed(range(len(qs))):
        j = next((j for j, value in enumerate(bilinear_monomials(cfg, qs[n], n)) if value), None)
        if j is not None or bilinear(cfg, qs[n], qs[n]) == 0:
            failure = {"n": n, "j": j}
    return failure


def cmd_construct(cfg: SobolevConfig, system, n_max: int) -> Tuple[int, dict]:
    polys = []
    for n in range(n_max + 1):
        lam = casorati_lambda(system, cfg, n)
        qn = sobolev_poly(system, cfg, n)
        polys.append({"n": n, "lambda_n": rat_str(lam), "coeffs": qn.to_json()})
    return EXIT_OK, {"config": cfg.to_json(), "n_max": n_max, "polynomials": polys}


def cmd_verify(cfg: SobolevConfig, system, n_max: int, custom_s) -> Tuple[int, dict]:
    report: dict = {"config": cfg.to_json(), "lambda_nonzero_checked_to": n_max}
    degenerate_at = _first_degenerate(system, cfg, n_max)
    if degenerate_at is not None:
        report["degenerate_at"] = degenerate_at
        return EXIT_DEGENERATE, report

    first_failure = _orthogonality_failure(cfg, [sobolev_poly(system, cfg, n) for n in range(n_max + 1)])
    failed = first_failure is not None
    report["orthogonality"] = {"status": "fail" if failed else "pass", "first_failure": first_failure}

    try:
        bundle = build_bundle(cfg, system, custom_s)
    except AssumptionFailed as exc:
        # the checks after the failed one never ran: null, not passed
        k = ASSUMPTIONS.index(exc.which)
        report["assumption_status"] = {a: None if i > k else i < k for i, a in enumerate(ASSUMPTIONS)}
        report["eigen"] = {"status": "fail", "reason": str(exc)}
        return EXIT_VERIFY, report
    report["assumption_status"] = dict.fromkeys(ASSUMPTIONS, True)

    try:
        eigenvalues = verify_eigen(bundle, cfg, system, n_max)
        report["eigen"] = {"status": "pass"}
        report["eigenvalues"] = [rat_str(v) for v in eigenvalues]
    except EigenMismatch as exc:
        report["eigen"] = {"status": "fail", "first_failure": exc.n}
        failed = True

    report["measured_order"] = operator_order(bundle)
    report["predicted_order"] = predicted_order(cfg)
    if custom_s is None and report["measured_order"] != report["predicted_order"]:
        report["order_check"] = "fail"
        failed = True
    else:
        report["order_check"] = "pass"
    return (EXIT_VERIFY if failed else EXIT_OK), report


def cmd_operator(cfg: SobolevConfig, system, n_max: int, custom_s) -> Tuple[int, dict]:
    degenerate_at = _first_degenerate(system, cfg, n_max)
    if degenerate_at is not None:
        return EXIT_DEGENERATE, {"config": cfg.to_json(), "degenerate_at": degenerate_at}
    try:
        bundle = build_bundle(cfg, system, custom_s)
    except AssumptionFailed as exc:
        return EXIT_VERIFY, {"config": cfg.to_json(), "assumption_failed": exc.which}
    try:
        verify_eigen(bundle, cfg, system, n_max)
    except EigenMismatch as exc:
        return EXIT_VERIFY, {"config": cfg.to_json(), "eigen_failed_at": exc.n}
    return EXIT_OK, {
        "config": cfg.to_json(),
        "operator": bundle.D.to_json(),
        "order": operator_order(bundle),
        "predicted_order": predicted_order(cfg),
        "assumptions": dict.fromkeys(ASSUMPTIONS, True),
        "eigen_checked_to": n_max,
    }


def _read_rank_input(gamma: str, matrix_json: str):
    """gamma and the weighted-rank trace of the matrix; a non-square matrix is malformed input."""

    def read():
        gamma_value = rat(gamma)
        return gamma_value, weighted_rank(gamma_value, rat_rows(json.loads(matrix_json, parse_float=rat)))

    return _parse("rank input", read)


def cmd_rank(gamma_value, trace) -> Tuple[int, dict]:
    return EXIT_OK, {
        "gamma": rat_str(gamma_value),
        "eta": [rat_str(e) for e in trace.eta],
        "tau": list(trace.tau),
        "reduced_columns": list(trace.reduced_columns),
        "value": rat_str(trace.value),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="jacobisobolev",
        description="Sobolev-orthogonal Jacobi-type polynomials and their eigenoperators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("construct", "verify", "operator"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--nmax", type=int, default=8)
        p.add_argument("--out", default=None)
        if name in ("verify", "operator"):
            p.add_argument("--custom-s", dest="custom_s", default=None)
    p = sub.add_parser("rank")
    p.add_argument("--gamma", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default=None)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command. Its inputs are parsed under the interpreter's int-string digit limit;
    the command and its report run without it, so every report is written whatever the size
    of its numbers, and the limit is left as it was found."""
    limit = _digit_limit()
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "rank":
            rank_input = _read_rank_input(args.gamma, args.matrix)
            _set_digit_limit(0)
            code, payload = cmd_rank(*rank_input)
        else:
            cfg = _parse(f"config {args.config}", lambda: SobolevConfig.from_json(_read_json(args.config)))
            if args.nmax < 0:
                raise InputError("--nmax must be nonnegative")
            custom_path = getattr(args, "custom_s", None)
            custom_parts = _read_custom_s(custom_path)
            _set_digit_limit(0)
            system = build_z(cfg)
            if args.command == "construct":
                code, payload = cmd_construct(cfg, system, args.nmax)
            else:
                custom_s = _load_custom_s(custom_path, custom_parts, cfg, system)
                command = cmd_verify if args.command == "verify" else cmd_operator
                code, payload = command(cfg, system, args.nmax, custom_s)
        _emit(payload, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateConfigError as exc:
        print(f"degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except IdentityCheckFailed as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    finally:
        _set_digit_limit(limit)
    return code
