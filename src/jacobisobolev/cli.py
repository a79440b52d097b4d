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
import sys
from fractions import Fraction
from typing import Optional, Tuple

from .construct import DegenerateConfigError, build_z, casorati_lambda, sobolev_poly
from .diffop import AssumptionFailed, EigenMismatch, _omega, build_bundle, operator_order, verify_eigen
from .exactmath import IdentityCheckFailed, Poly, RationalFunction, rat, rat_rows, rat_str
from .rank import predicted_order, weighted_rank
from .sobolev import SobolevConfig, bilinear, bilinear_monomials

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_VERIFY = 3

# the three structural assumptions that build_bundle checks
ASSUMPTIONS = ("s_omega_polynomial", "sigma_factorization", "eigenvalue_generator")


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _load_config(path: str) -> SobolevConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=Fraction)
        return SobolevConfig.from_json(data)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad config {path}: {exc}") from exc


def _load_custom_s(path: Optional[str], cfg: SobolevConfig, sys_z) -> Optional[RationalFunction]:
    """Parse {num: coeffs, den: "auto-omega" | coeffs}; "auto-omega" puts the
    Casorati determinant in the denominator, which users cannot easily
    precompute themselves. S must be nonzero."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=Fraction)
        unknown = sorted(set(data) - {"num", "den"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        num = Poly.from_json(data["num"])
        den = data["den"]
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad custom S {path}: {exc}") from exc
    if den == "auto-omega":
        custom_s = RationalFunction(num) / _omega(cfg, sys_z)
    else:
        try:
            custom_s = RationalFunction(num, Poly.from_json(den))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise InputError(f"bad custom S denominator: {exc}") from exc
    if custom_s.is_zero:
        raise InputError(f"bad custom S {path}: S must be nonzero")
    return custom_s


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
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

    assumption_status = dict.fromkeys(ASSUMPTIONS, True)
    try:
        bundle = build_bundle(cfg, system, custom_s)
    except AssumptionFailed as exc:
        assumption_status[exc.which] = False
        report["assumption_status"] = assumption_status
        report["eigen"] = {"status": "fail", "reason": str(exc)}
        return EXIT_VERIFY, report
    report["assumption_status"] = assumption_status

    try:
        eigenvalues = verify_eigen(bundle, cfg, system, n_max)
        report["eigen"] = {"status": "pass"}
        report["eigenvalues"] = [rat_str(v) for v in eigenvalues]
    except EigenMismatch as exc:
        report["eigen"] = {"status": "fail", "first_failure": exc.n}
        failed = True

    report["measured_order"] = operator_order(bundle)
    report["predicted_order"] = bundle.predicted_order
    if custom_s is None and report["measured_order"] != bundle.predicted_order:
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
        "predicted_order": bundle.predicted_order,
        "assumptions": dict.fromkeys(ASSUMPTIONS, True),
        "eigen_checked_to": n_max,
    }


def cmd_rank(gamma: str, matrix_json: str) -> Tuple[int, dict]:
    try:
        gamma_value = rat(gamma)
        trace = weighted_rank(gamma_value, rat_rows(json.loads(matrix_json, parse_float=Fraction)))
    except (ValueError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(f"bad rank input: {exc}") from exc
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
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "rank":
            code, payload = cmd_rank(args.gamma, args.matrix)
        else:
            cfg = _load_config(args.config)
            if args.nmax < 0:
                raise InputError("--nmax must be nonnegative")
            system = build_z(cfg)
            if args.command == "construct":
                code, payload = cmd_construct(cfg, system, args.nmax)
            else:
                custom_s = _load_custom_s(args.custom_s, cfg, system)
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
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
