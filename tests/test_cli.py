"""Command-line front end: subcommands, exit codes, determinism."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import reference_omega_entries, reference_orthogonality_failure

import jacobisobolev
from jacobisobolev import _linalg, cli, construct, diffop
from jacobisobolev.cli import main
from jacobisobolev.diffop import DiffOp
from jacobisobolev.exactmath import ONE, Poly, RationalFunction, X, pochhammer
from jacobisobolev.sobolev import SobolevConfig, bilinear_monomials

EXAMPLE_CONFIG = {
    "alpha": 1, "beta": 1, "m1": 1, "m2": 1,
    "M": [["1"]], "N": [["1"]],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# the (3,3,2,1) baseline masses M[i][j] = (i+2j)%3-1, N[i][j] = (2i+j)%3-1
GOLDEN_OPERATOR_CONFIG = {
    "alpha": 3, "beta": 3, "m1": 2, "m2": 1, "M": [["-1", "1"], ["0", "-1"]], "N": [["-1"]],
}
GOLDEN_OPERATOR_SHA256 = "1dd3be8b66c0133f926e894cce7dc1154190926c29a0ea9dcca437784c3aa8da"
# construct --nmax 32 on the same config, recorded from the Fraction-tuple kernel
GOLDEN_CONSTRUCT_SHA256 = "a7fa935be586995d068eff41a31bc02616051b74047b42730882cfb0811dde37"

# equal scalar masses at alpha = beta = 2, with S = sigma R / Omega of criterion 6
GOLDEN_VERIFY_CONFIG = {"alpha": 2, "beta": 2, "m1": 1, "m2": 1, "M": [["1"]], "N": [["1"]]}
GOLDEN_VERIFY_S = {"num": ["8", "5", "-5/2", "5/2", "5/2", "1/2"], "den": "auto-omega"}
GOLDEN_VERIFY_SHA256 = "4f7762663b700424a4f49c56bf1a2109132376614ced84b5612cc017a5099b07"

# weight exponents a = 2 < b = 3 (the benchmark's verify inputs all have a >= b); order 22
GOLDEN_WEIGHT_CONFIG = {"alpha": 2, "beta": 5, "m1": 2, "m2": 0, "M": [["-1", "1"], ["0", "-1"]]}
GOLDEN_WEIGHT_SHA256 = "11e854892941518c3bf2a42257acb1efa79342f891f6c27cb53e358620df0387"


@pytest.fixture
def config_path(tmp_path):
    return write_json(tmp_path / "config.json", EXAMPLE_CONFIG)


class TestConstruct:
    def test_emits_all_degrees(self, config_path, tmp_path, capsys):
        out = tmp_path / "polys.json"
        code = main(["construct", "--config", config_path, "--nmax", "10", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["polynomials"]) == 11
        for n, entry in enumerate(data["polynomials"]):
            assert entry["n"] == n
            assert len(entry["coeffs"]) == n + 1  # degree exactly n

    def test_zero_mass_matches_classical_family(self, tmp_path, capsys):
        from fractions import Fraction

        from jacobisobolev.jacobi import JacobiContext, jacobi_poly

        cfg = dict(EXAMPLE_CONFIG, M=[["0"]], N=[["0"]])
        path = write_json(tmp_path / "c.json", cfg)
        code = main(["construct", "--config", path, "--nmax", "5"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        ctx = JacobiContext(Fraction(0), Fraction(0))
        for entry in data["polynomials"]:
            got = Poly.from_json(entry["coeffs"])
            want = jacobi_poly(ctx, entry["n"])
            assert got * want.lead == want * got.lead  # equal up to scalar

    def test_golden_report(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", GOLDEN_OPERATOR_CONFIG)
        assert main(["construct", "--config", path, "--nmax", "32"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_CONSTRUCT_SHA256

    def test_degenerate_config_exits_2(self, tmp_path, capsys):
        cfg = {"alpha": 2, "beta": 1, "m1": 1, "m2": 1, "M": [["-1"]], "N": [["-1"]]}
        path = write_json(tmp_path / "c.json", cfg)
        assert main(["construct", "--config", path, "--nmax", "5"]) == 2


class TestOrthogonalityFailure:
    """The verify report's first failure against one bilinear form per x^j."""

    @pytest.mark.parametrize(
        "config",
        [
            EXAMPLE_CONFIG,
            GOLDEN_OPERATOR_CONFIG,
            {"alpha": 3, "beta": 0, "m1": 0, "m2": 2, "M": [], "N": [["1", "-1"], ["2", "1/3"]]},
        ],
    )
    def test_perturbed_q_n_matches_per_monomial_loop(self, config):
        cfg = SobolevConfig.from_json(config)
        system = construct.build_z(cfg)
        qs = [construct.sobolev_poly(system, cfg, n) for n in range(9)]
        assert cli._orthogonality_failure(cfg, qs) is None
        failures = []
        for n in range(1, 9):
            for j in range(n + 1):
                perturbed = list(qs)
                perturbed[n] = qs[n] + Poly.monomial(j, Fraction((-1) ** j, n + j + 1))
                want = reference_orthogonality_failure(cfg, perturbed)
                assert cli._orthogonality_failure(cfg, perturbed) == want
                failures.append(want)
        # a perturbation orthogonal to every lower x^i, by parity, reports none
        assert sum(f is not None for f in failures) > len(failures) // 2

    def test_lowest_degree_and_smallest_j_are_reported(self):
        # q_3 fails at j = 0 and j = 1, and q_6 fails too; the report names (3, 0)
        cfg = SobolevConfig.from_json(GOLDEN_OPERATOR_CONFIG)
        system = construct.build_z(cfg)
        qs = [construct.sobolev_poly(system, cfg, n) for n in range(9)]
        qs[3] = qs[3] + 1 + X
        qs[6] = qs[6] + X**2
        failing = [[j for j, v in enumerate(bilinear_monomials(cfg, qs[n], n)) if v] for n in (3, 6)]
        assert failing[0][:2] == [0, 1] and failing[1]
        assert cli._orthogonality_failure(cfg, qs) == {"n": 3, "j": 0} == reference_orthogonality_failure(cfg, qs)


class TestInputValidation:
    def test_missing_file(self, capsys):
        assert main(["construct", "--config", "/nonexistent.json", "--nmax", "2"]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["construct", "--config", str(path), "--nmax", "2"]) == 1

    def test_m_zero_rejected(self, tmp_path, capsys):
        cfg = {"alpha": 1, "beta": 1, "m1": 0, "m2": 0, "M": [], "N": []}
        path = write_json(tmp_path / "c.json", cfg)
        assert main(["construct", "--config", str(path), "--nmax", "2"]) == 1

    def test_negative_nmax_rejected(self, config_path, capsys):
        assert main(["construct", "--config", config_path, "--nmax", "-1"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--config", "c.json", "--nmax", "abc"],
            ["construct", "--nmax", "2"],
            ["bogus"],
            ["rank", "--gamma", "3"],
        ],
        ids=["bad-nmax", "missing-config", "unknown-subcommand", "rank-without-matrix"],
    )
    def test_malformed_command_line_exits_1(self, capsys, argv):
        # argparse itself would exit 2, the code of a degenerate configuration
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")

    @pytest.mark.parametrize("field", ["alpha", "beta", "m1", "m2"])
    @pytest.mark.parametrize("value", [2.7, 2.0, "2", True])
    def test_non_integer_parameter_rejected(self, tmp_path, capsys, field, value):
        # int() would silently turn 2.7 into 2 and true into 1
        cfg = dict(EXAMPLE_CONFIG, **{field: value})
        path = write_json(tmp_path / "c.json", cfg)
        assert main(["construct", "--config", path, "--nmax", "2"]) == 1
        assert field in capsys.readouterr().err

    # one check names the negative weight exponent, whether or not the masses are zero
    @pytest.mark.parametrize(
        "shape, masses, exponent",
        [
            ((0, 2, 1, 1), {"M": [["1"]], "N": [["1"]]}, "alpha - m2 = -1"),
            ((0, 2, 1, 1), {"M": [["1"]], "N": [["0"]]}, "alpha - m2 = -1"),
            ((2, 1, 2, 0), {"M": [["1", "0"], ["0", "1"]]}, "beta - m1 = -1"),
        ],
    )
    def test_negative_weight_exponent_exits_1(self, tmp_path, capsys, shape, masses, exponent):
        cfg = dict(zip(("alpha", "beta", "m1", "m2"), shape), **masses)
        assert main(["construct", "--config", write_json(tmp_path / "c.json", cfg), "--nmax", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: bad config")
        assert f"the weight exponent {exponent} is negative" in captured.err

    @pytest.mark.parametrize("command", ["construct", "verify", "operator"])
    @pytest.mark.parametrize("xi", [[], ["0"]])
    def test_zero_xi_rejected(self, tmp_path, capsys, command, xi):
        path = write_json(tmp_path / "c.json", dict(EXAMPLE_CONFIG, xi=xi))
        assert main([command, "--config", path, "--nmax", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "xi must be nonzero" in captured.err


    # a JSON string or object where a list is expected used to be split into
    # its digits or keys
    @pytest.mark.parametrize(
        "command, config, custom, prefix",
        [
            ("construct", dict(EXAMPLE_CONFIG, xi="10"), None, "error: bad config"),
            ("construct", dict(EXAMPLE_CONFIG, xi={"3": "1"}), None, "error: bad config"),
            ("construct", dict(EXAMPLE_CONFIG, M=["1"]), None, "error: bad config"),
            ("construct", dict(EXAMPLE_CONFIG, M=[{"1": "0"}]), None, "error: bad config"),
            ("construct", dict(EXAMPLE_CONFIG, N="1"), None, "error: bad config"),
            ("verify", EXAMPLE_CONFIG, {"num": "12", "den": ["1"]}, "error: bad custom S"),
            ("verify", EXAMPLE_CONFIG, {"num": ["1"], "den": "12"}, "error: bad custom S"),
        ],
        ids=["xi", "xi-object", "M-row", "M-row-object", "N", "S-num", "S-den"],
    )
    def test_string_for_list_rejected(self, tmp_path, capsys, command, config, custom, prefix):
        argv = [command, "--config", write_json(tmp_path / "c.json", config), "--nmax", "3"]
        if custom is not None:
            argv += ["--custom-s", write_json(tmp_path / "s.json", custom)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(prefix)

    # a JSON number with a fraction or an exponent went through a binary float:
    # 1e-400 was read as 0 and 12345678901234567891.0 as 12345678901234567000
    def test_json_number_read_exactly(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(
            '{"alpha": 1, "beta": 1, "m1": 1, "m2": 1, "M": [[1e-400]], "N": [[12345678901234567891.0]]}',
            encoding="utf-8",
        )
        assert main(["construct", "--config", str(path), "--nmax", "1"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["M"] == [["1/1" + "0" * 400]]
        assert config["N"] == [["12345678901234567891"]]

    def test_json_number_in_custom_s_and_rank(self, tmp_path, capsys, config_path):
        reports = []
        for custom in ('{"num": [0.5, 1.25e1], "den": [3]}', '{"num": ["1/2", "25/2"], "den": ["3"]}'):
            path = tmp_path / "s.json"
            path.write_text(custom, encoding="utf-8")
            main(["verify", "--config", config_path, "--nmax", "3", "--custom-s", str(path)])
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1] and reports[0].out
        assert main(["rank", "--gamma", "3", "--matrix", "[[1e-400]]"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "3"

    # a "p/0" rational used to escape as a ZeroDivisionError traceback
    @pytest.mark.parametrize(
        "config, custom, rank_args",
        [
            (dict(EXAMPLE_CONFIG, M=[["1/0"]]), None, None),
            (dict(EXAMPLE_CONFIG, xi=["1/0"]), None, None),
            (EXAMPLE_CONFIG, {"num": ["1/0"], "den": ["1"]}, None),
            (None, None, ["--gamma", "1/0", "--matrix", "[[1]]"]),
            (None, None, ["--gamma", "3", "--matrix", '[["1/0"]]']),
        ],
        ids=["M", "xi", "S-num", "rank-gamma", "rank-matrix"],
    )
    def test_zero_denominator_rejected(self, tmp_path, capsys, config, custom, rank_args):
        if rank_args is not None:
            argv = ["rank", *rank_args]
        else:
            argv = ["verify", "--config", write_json(tmp_path / "c.json", config), "--nmax", "3"]
            if custom is not None:
                argv += ["--custom-s", write_json(tmp_path / "s.json", custom)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "zero denominator" in captured.err

    # JSON true and false used to be read as the rationals 1 and 0
    @pytest.mark.parametrize(
        "config, custom, rank_matrix",
        [
            (dict(EXAMPLE_CONFIG, M=[[True]]), None, None),
            (dict(EXAMPLE_CONFIG, N=[[False]]), None, None),
            (dict(EXAMPLE_CONFIG, xi=[True]), None, None),
            (EXAMPLE_CONFIG, {"num": [True], "den": ["1"]}, None),
            (EXAMPLE_CONFIG, {"num": ["1"], "den": [True]}, None),
            (None, None, "[[true,false],[0,1]]"),
        ],
        ids=["M", "N", "xi", "S-num", "S-den", "rank-matrix"],
    )
    def test_boolean_rational_rejected(self, tmp_path, capsys, config, custom, rank_matrix):
        if rank_matrix is not None:
            argv = ["rank", "--gamma", "3", "--matrix", rank_matrix]
        else:
            argv = ["verify", "--config", write_json(tmp_path / "c.json", config), "--nmax", "3"]
            if custom is not None:
                argv += ["--custom-s", write_json(tmp_path / "s.json", custom)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "a rational must be" in captured.err

    # a misspelt key such as "Xi" used to be ignored, so the run went on with xi = 1
    @pytest.mark.parametrize("command", ["construct", "verify", "operator"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "c.json", dict(EXAMPLE_CONFIG, Xi=["2", "1", "1"]))
        assert main([command, "--config", path, "--nmax", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: bad config")
        assert "'Xi'" in captured.err

    @pytest.mark.parametrize("command", ["verify", "operator"])
    def test_unknown_custom_s_key_rejected(self, tmp_path, capsys, command):
        custom = {"num": ["1"], "den": ["1"], "denominator": ["2"]}
        argv = [command, "--config", write_json(tmp_path / "c.json", EXAMPLE_CONFIG), "--nmax", "3"]
        assert main(argv + ["--custom-s", write_json(tmp_path / "s.json", custom)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: bad custom S")
        assert "'denominator'" in captured.err

    # an unwritable --out used to escape as a FileNotFoundError or IsADirectoryError traceback
    @pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
    @pytest.mark.parametrize("command", ["construct", "rank"])
    def test_unwritable_out_exits_1(self, tmp_path, capsys, config_path, command, target):
        out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
        if command == "rank":
            argv = ["rank", "--gamma", "3", "--matrix", "[[1]]"]
        else:
            argv = ["construct", "--config", config_path, "--nmax", "2"]
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("matrix", ['["12","34"]', '"12"', '[[1,2],"34"]', '[{"1":0},{"2":0}]'])
    def test_rank_string_rows_rejected(self, capsys, matrix):
        assert main(["rank", "--gamma", "3", "--matrix", matrix]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: bad rank input")


class TestVerify:
    def test_full_report(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", config_path, "--nmax", "6", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["orthogonality"]["status"] == "pass"
        assert report["eigen"]["status"] == "pass"
        assert report["assumption_status"] == {"s_omega_polynomial": True, "sigma_factorization": True, "eigenvalue_generator": True}
        assert report["measured_order"] == report["predicted_order"] == 6
        assert report["order_check"] == "pass"
        assert len(report["eigenvalues"]) == 7

    def test_byte_determinism(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "--config", config_path, "--nmax", "5", "--out", str(out1)])
        main(["verify", "--config", config_path, "--nmax", "5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_custom_s_lowers_order(self, config_path, tmp_path):
        # equal scalar masses at alpha = beta = 1; the lowered-order numerator
        # is sigma * R with R = 1 + (x-1)_1 (x+1)_1 / 2
        alpha, mass = 1, 1
        r = Poly.constant(4 ** (alpha - 1) * math.factorial(alpha - 1)) + (
            mass * pochhammer(X - 1, alpha) * pochhammer(X + alpha, alpha)
        ) * Fraction(1, 2 * math.factorial(alpha))
        sigma_half = Poly([2 * alpha - 2, 2])
        custom = {"num": (sigma_half * r).to_json(), "den": "auto-omega"}
        s_path = write_json(tmp_path / "s.json", custom)
        out = tmp_path / "report.json"
        code = main([
            "verify", "--config", config_path, "--nmax", "6",
            "--custom-s", s_path, "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["measured_order"] == 2 * alpha + 2
        assert report["predicted_order"] == 4 * alpha + 2
        assert report["eigen"]["status"] == "pass"

    @pytest.mark.parametrize("command", ["verify", "operator"])
    @pytest.mark.parametrize(
        "custom",
        [
            {"num": [1], "den": [0]},
            {"num": [1], "den": []},
            {"num": [], "den": [1]},
            {"num": ["0"], "den": "auto-omega"},
        ],
    )
    def test_zero_custom_s_parts_exit_1(self, tmp_path, capsys, command, custom):
        cfg = {"alpha": 2, "beta": 1, "m1": 1, "m2": 1, "M": [[1]], "N": [[1]]}
        path = write_json(tmp_path / "c.json", cfg)
        s_path = write_json(tmp_path / "s.json", custom)
        code = main([command, "--config", path, "--nmax", "4", "--custom-s", s_path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: bad custom S")

    def test_golden_custom_s_report(self, tmp_path, capsys):
        # criterion 6 at a = 2 with its order-lowering S over auto-omega;
        # the digest is of the report before the n < m quotients were memoised
        path = write_json(tmp_path / "c.json", GOLDEN_VERIFY_CONFIG)
        s_path = write_json(tmp_path / "s.json", GOLDEN_VERIFY_S)
        assert main(["verify", "--config", path, "--nmax", "8", "--custom-s", s_path]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_VERIFY_SHA256

    def test_golden_report_with_a_below_b(self, tmp_path, capsys, monkeypatch):
        # cold, so the orthogonality check builds this config's first Gram table
        monkeypatch.setattr(construct, "_ZSYS_CACHE", {})
        path = write_json(tmp_path / "c.json", GOLDEN_WEIGHT_CONFIG)
        assert main(["verify", "--config", path, "--nmax", "8"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_WEIGHT_SHA256

    def test_auto_omega_takes_no_det_of_e(self, tmp_path, capsys, monkeypatch):
        # _load_custom_s and build_bundle share the system's Omega, and Omega
        # comes from the polynomial Casorati matrix, not from a det of E
        monkeypatch.setattr(construct, "_ZSYS_CACHE", {})
        cfg = SobolevConfig.from_json(GOLDEN_VERIFY_CONFIG)
        entries = reference_omega_entries(cfg, construct.build_z(cfg))
        real_det, real_omega = _linalg.det, diffop._omega
        dets_of_e, omegas = [], []

        def det(rows):
            if len(rows) == len(entries) and rows == entries:
                dets_of_e.append(rows)
            return real_det(rows)

        def omega(cfg, system):
            omegas.append(real_omega(cfg, system))
            return omegas[-1]

        monkeypatch.setattr(_linalg, "det", det)
        monkeypatch.setattr(diffop, "_omega", omega)
        monkeypatch.setattr(cli, "_omega", omega)
        path = write_json(tmp_path / "c.json", GOLDEN_VERIFY_CONFIG)
        s_path = write_json(tmp_path / "s.json", GOLDEN_VERIFY_S)
        assert main(["verify", "--config", path, "--nmax", "8", "--custom-s", s_path]) == 0
        assert not dets_of_e
        assert len(omegas) == 2 and omegas[0] is omegas[1]
        assert omegas[0] == real_det(entries)

    @pytest.mark.parametrize("config", [EXAMPLE_CONFIG, GOLDEN_OPERATOR_CONFIG], ids=["scalar-1", "baseline-3321"])
    def test_s_over_omega_reports_mh_failure(self, config, tmp_path):
        path = write_json(tmp_path / "c.json", config)
        s_path = write_json(tmp_path / "s.json", {"num": ["1"], "den": "auto-omega"})
        out = tmp_path / "report.json"
        code = main(["verify", "--config", path, "--nmax", "4", "--custom-s", s_path, "--out", str(out)])
        assert code == cli.EXIT_VERIFY
        report = json.loads(out.read_text())
        assert report["assumption_status"] == {
            "s_omega_polynomial": True, "sigma_factorization": False, "eigenvalue_generator": True,
        }
        assert report["eigen"] == {
            "status": "fail", "reason": "assumption sigma_factorization failed: M_1 is not a polynomial",
        }

    def test_invalid_custom_s_exits_3(self, config_path, tmp_path):
        s_path = write_json(tmp_path / "s.json", {"num": ["1", "1"], "den": ["0", "1", "1"]})
        code = main(["verify", "--config", config_path, "--nmax", "4", "--custom-s", s_path])
        assert code == 3


class TestAssumptionFailures:
    """The two reflection assumptions, each failing with its reason on the CLI."""

    def run(self, capsys, command, config_path, *extra):
        code = main([command, "--config", config_path, "--nmax", "4", *extra])
        return code, json.loads(capsys.readouterr().out)

    def test_eigenvalue_generator_reported(self, config_path, capsys, monkeypatch):
        # a linear term in lambda_x makes 2 lambda + sum Y_h M_h odd in y = x + (s+1)/2
        real = diffop.anti_difference
        monkeypatch.setattr(diffop, "anti_difference", lambda f: real(f) + X)
        code, report = self.run(capsys, "verify", config_path)
        assert code == cli.EXIT_VERIFY
        assert report["assumption_status"] == {
            "s_omega_polynomial": True, "sigma_factorization": True, "eigenvalue_generator": False,
        }
        assert report["eigen"] == {
            "status": "fail",
            "reason": "assumption eigenvalue_generator failed: 2*lambda + sum Y_h M_h not theta-invariant",
        }
        code, report = self.run(capsys, "operator", config_path)
        assert code == cli.EXIT_VERIFY
        assert report["assumption_failed"] == "eigenvalue_generator"

    def test_sigma_factorization_skew_reported(self, config_path, tmp_path, capsys):
        # M_1 is a polynomial here, but not skew under x -> -(x+s+1)
        s_path = write_json(tmp_path / "s.json", {"num": ["1/2", "25/2"], "den": ["3"]})
        code, report = self.run(capsys, "verify", config_path, "--custom-s", s_path)
        assert code == cli.EXIT_VERIFY
        assert report["assumption_status"] == {
            "s_omega_polynomial": True, "sigma_factorization": False, "eigenvalue_generator": True,
        }
        assert report["eigen"] == {
            "status": "fail",
            "reason": "assumption sigma_factorization failed: "
            "M_1: polynomial is not skew invariant under x -> -(x+s+1)",
        }


class TestReportPaths:
    """The verify and operator report branches for degenerate and failed runs."""

    DEGENERATE_CONFIG = {"alpha": 2, "beta": 1, "m1": 1, "m2": 1, "M": [["-1"]], "N": [["-1"]]}

    @pytest.mark.parametrize("command", ["verify", "operator"])
    def test_degenerate_config_reports_first_zero(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "c.json", self.DEGENERATE_CONFIG)
        assert main([command, "--config", path, "--nmax", "5"]) == cli.EXIT_DEGENERATE
        report = json.loads(capsys.readouterr().out)
        assert report["degenerate_at"] == 1
        assert "eigen" not in report and "operator" not in report

    @pytest.fixture
    def doubled_top(self, monkeypatch):
        """build_bundle with the top coefficient a_K of D doubled; D(q_n) is off from n = K."""
        real = cli.build_bundle

        def build_bundle(cfg, system, custom_s):
            bundle = real(cfg, system, custom_s)
            coeffs = list(bundle.D.coeffs)
            coeffs[-1] = 2 * coeffs[-1]
            return bundle._replace(D=DiffOp(coeffs))

        monkeypatch.setattr(cli, "build_bundle", build_bundle)
        return 6  # the order of D on EXAMPLE_CONFIG

    def test_verify_reports_first_eigen_failure(self, config_path, capsys, doubled_top):
        assert main(["verify", "--config", config_path, "--nmax", "8"]) == cli.EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        assert report["eigen"] == {"status": "fail", "first_failure": doubled_top}
        assert "eigenvalues" not in report
        assert report["measured_order"] == report["predicted_order"] == doubled_top
        assert report["order_check"] == "pass"

    def test_operator_reports_eigen_failed_at(self, config_path, capsys, doubled_top):
        assert main(["operator", "--config", config_path, "--nmax", "8"]) == cli.EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        assert report["eigen_failed_at"] == doubled_top
        assert "operator" not in report

    def test_verify_reports_order_mismatch(self, config_path, capsys, monkeypatch):
        real = diffop.predicted_order
        monkeypatch.setattr(diffop, "predicted_order", lambda cfg: real(cfg) + 1)
        assert main(["verify", "--config", config_path, "--nmax", "4"]) == cli.EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        assert report["eigen"] == {"status": "pass"}
        assert report["measured_order"] == 6 and report["predicted_order"] == 7
        assert report["order_check"] == "fail"

    def test_zero_polynomial_fails_the_norm_check(self):
        cfg = SobolevConfig.from_json(EXAMPLE_CONFIG)
        assert cli._orthogonality_failure(cfg, [Poly()]) == {"n": 0, "j": None}


class TestIdentityChecks:
    def test_no_assert_in_package(self):
        # asserts vanish under python -O; every check must raise instead
        package = Path(jacobisobolev.__file__).parent
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not found, f"assert at {path.name}:{found}"

    def test_module_level_caches_pinned(self):
        # every per-config value lives on its ZSystem or, for the Gram table of
        # the form B, on its SobolevConfig; the Jacobi family cache is keyed by
        # (alpha, beta) and shared across configs, and the weight moments that
        # the table needs come from their recurrence, uncached
        package = Path(jacobisobolev.__file__).parent
        found = set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                value = node.value
                is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "defaultdict")
                )
                if is_dict:
                    found.update(f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name))
        assert found == {"construct._ZSYS_CACHE", "jacobi._POLY_CACHE"}

    def test_one_immutability_guard(self):
        # every value class takes its guard from exactmath.Frozen, and its == and
        # hash too, except the two whose == coerces scalars
        package = Path(jacobisobolev.__file__).parent
        found = {"__setattr__": set(), "__eq__": set(), "__hash__": set()}
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for node in cls.body:
                        if isinstance(node, ast.FunctionDef) and node.name in found:
                            found[node.name].add(f"{path.stem}.{cls.name}")
        assert found["__setattr__"] == {"exactmath.Frozen"}
        own = {"exactmath.Frozen", "exactmath.Poly", "exactmath.RationalFunction"}
        assert found["__eq__"] == found["__hash__"] == own

    def test_failed_check_exits_3_with_one_line(self, config_path, capsys, monkeypatch):
        # fires the check that the assembled D lies in the algebra
        monkeypatch.setattr(DiffOp, "in_algebra", property(lambda self: False))
        code = main(["operator", "--config", config_path, "--nmax", "3"])
        self.assert_one_line_exit_3(code, capsys, "build_bundle")

    @pytest.mark.parametrize("command", ["verify", "operator"])
    def test_difference_identity_exits_3(self, config_path, capsys, monkeypatch, command):
        # lambda + theta_x passes the theta-basis check and fails the P_S difference identity
        theta = construct.theta_poly(1, 1)
        real = diffop.anti_difference
        monkeypatch.setattr(diffop, "anti_difference", lambda g: real(g) + theta)
        code = main([command, "--config", config_path, "--nmax", "3"])
        self.assert_one_line_exit_3(code, capsys, "build_bundle")

    def assert_one_line_exit_3(self, code, capsys, stage):
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"verification failure: {stage}:")
        assert "Traceback" not in captured.err

    @pytest.fixture
    def fresh_caches(self, monkeypatch):
        monkeypatch.setattr(construct, "_ZSYS_CACHE", {})

    def test_theta_basis_mismatch_exits_3(self, config_path, capsys, monkeypatch, fresh_caches):
        wrong_theta = construct.theta_poly(1, 1) + 1
        monkeypatch.setattr(construct, "theta_poly", lambda a, b: wrong_theta)
        code = main(["construct", "--config", config_path, "--nmax", "3"])
        self.assert_one_line_exit_3(code, capsys, "build_z")

    def test_pole_in_lambda_quotient_exits_3(self, config_path, capsys, monkeypatch, fresh_caches):
        # a unit determinant is not divisible by p q, which is not constant here
        real_det = _linalg.det
        monkeypatch.setattr(
            _linalg, "det", lambda rows: Poly([1]) if isinstance(rows[0][0], Poly) else real_det(rows)
        )
        code = main(["construct", "--config", config_path, "--nmax", "3"])
        self.assert_one_line_exit_3(code, capsys, "casorati_lambda")

    def test_pole_in_minor_quotient_exits_3(self, config_path, capsys, monkeypatch, fresh_caches):
        real_det = _linalg.det

        def det(rows):
            # the j >= 1 minor quotients are evaluated from n = 1 on
            if isinstance(rows[0][0], RationalFunction):
                return RationalFunction(ONE, X - 1)
            return real_det(rows)

        monkeypatch.setattr(_linalg, "det", det)
        code = main(["construct", "--config", config_path, "--nmax", "3"])
        self.assert_one_line_exit_3(code, capsys, "sobolev_poly")

    def test_degree_of_q_n_exits_3(self, tmp_path, capsys, monkeypatch, fresh_caches):
        # J_4 in place of J_5 leaves q_5 with no x^5 term
        real = construct.jacobi_poly
        monkeypatch.setattr(construct, "jacobi_poly", lambda ctx, n: real(ctx, 4 if n == 5 else n))
        path = write_json(tmp_path / "c.json", GOLDEN_OPERATOR_CONFIG)
        code = main(["construct", "--config", path, "--nmax", "5"])
        self.assert_one_line_exit_3(code, capsys, "sobolev_poly")


class TestOperator:
    def test_golden_report(self, tmp_path, capsys):
        # the digest is of the report before operators were built from images
        path = write_json(tmp_path / "c.json", GOLDEN_OPERATOR_CONFIG)
        assert main(["operator", "--config", path, "--nmax", "8"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_OPERATOR_SHA256

    def test_operator_export(self, config_path, tmp_path):
        out = tmp_path / "op.json"
        code = main(["operator", "--config", config_path, "--nmax", "5", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["order"] == data["predicted_order"] == 6
        assert len(data["operator"]["coeffs"]) == 7
        assert data["eigen_checked_to"] == 5


class TestOptimizedInterpreter:
    def test_golden_reports_under_python_O(self, tmp_path):
        # no identity check or output may hang on __debug__
        config = write_json(tmp_path / "c.json", GOLDEN_OPERATOR_CONFIG)
        verify_config = write_json(tmp_path / "v.json", GOLDEN_VERIFY_CONFIG)
        s_path = write_json(tmp_path / "s.json", GOLDEN_VERIFY_S)
        weight_config = write_json(tmp_path / "w.json", GOLDEN_WEIGHT_CONFIG)
        src = str(Path(jacobisobolev.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = [
            (["operator", "--config", config, "--nmax", "8"], GOLDEN_OPERATOR_SHA256),
            (["construct", "--config", config, "--nmax", "32"], GOLDEN_CONSTRUCT_SHA256),
            (["verify", "--config", verify_config, "--nmax", "8", "--custom-s", s_path], GOLDEN_VERIFY_SHA256),
            (["verify", "--config", weight_config, "--nmax", "8"], GOLDEN_WEIGHT_SHA256),
        ]
        for argv, want in runs:
            done = subprocess.run(
                [sys.executable, "-O", "-m", "jacobisobolev", *argv],
                capture_output=True, env=env, check=False,
            )
            assert done.returncode == 0, done.stderr
            assert hashlib.sha256(done.stdout).hexdigest() == want


class TestStartup:
    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        # every cold command pays this import; dataclasses pulls in inspect, ast, dis and tokenize.
        # Only the modules that the import adds count, so what site preloads does not.
        src = str(Path(jacobisobolev.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import jacobisobolev.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, check=False)
        assert done.returncode == 0, done.stderr
        added = set(json.loads(done.stdout))
        assert "jacobisobolev.cli" in added
        assert not added & {"dataclasses", "inspect"}


RATIONALS =st.sampled_from(["1", "-1", "0", "2", "-2", "1/2", "-3/2", "1/0", "-3/0"])
COEFFS = st.lists(RATIONALS, max_size=3)


@st.composite
def cli_cases(draw):
    """A config with m <= 3, an xi, a command, an --nmax and maybe a custom S."""
    m1 = draw(st.integers(0, 2))
    m2 = draw(st.integers(0 if m1 else 1, 3 - m1))
    alpha, beta = m2 + draw(st.integers(0, 2)), m1 + draw(st.integers(0, 2))
    config = {
        "alpha": alpha, "beta": beta, "m1": m1, "m2": m2,
        "M": [[draw(RATIONALS) for _ in range(m1)] for _ in range(m1)],
        "N": [[draw(RATIONALS) for _ in range(m2)] for _ in range(m2)],
    }
    # 2 + x (x + alpha + beta - m) is invariant under x -> -(x + alpha + beta - m); 1 + x is not
    valid_xi = [["1"], ["2", str(alpha + beta - m1 - m2), "1"]]
    config["xi"] = draw(st.sampled_from(valid_xi if draw(st.integers(0, 3)) else [[], ["0"], ["1", "1"]]))
    command = draw(st.sampled_from(["construct", "verify", "operator"]))
    custom = None
    if command != "construct" and draw(st.booleans()):
        num = draw(st.lists(RATIONALS, min_size=1, max_size=3))
        custom = {"num": num, "den": draw(st.one_of(st.just("auto-omega"), COEFFS))}
    return config, command, draw(st.integers(-1, 10)), custom


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(cli_cases())
    def test_cli_never_escapes(self, case):
        config, command, nmax, custom = case
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--config", write_json(Path(tmp) / "c.json", config), "--nmax", str(nmax)]
            if custom is not None:
                argv += ["--custom-s", write_json(Path(tmp) / "s.json", custom)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("\n") <= 1


class TestRank:
    def test_trace_output(self, capsys):
        code = main(["rank", "--gamma", "3", "--matrix", "[[1,0],[0,2]]"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "6"
        assert data["gamma"] == "3"
        assert len(data["eta"]) == 2

    def test_bad_matrix_exits_1(self, capsys):
        assert main(["rank", "--gamma", "3", "--matrix", "not json"]) == 1
