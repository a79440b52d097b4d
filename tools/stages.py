"""Stage timings, report digests and the cold-process budget of the CLI.

    python3 tools/stages.py --out BENCH.json [--label NAME] [--m-max M] [--repeats N] [--src DIR]

Run it from anywhere; ``--src`` (default: the ``src`` beside this directory)
names the package tree to measure, so one copy of this script can time two
trees. It writes five parts under ``--label`` in ``--out``, keeping the
other labels already there, so that one file holds a before and an after:

- ``shapes``: each shape of ``SHAPES`` with m <= ``--m-max`` (4..10, default
  8) runs in a fresh process on the baseline masses M[i][j] = (i+2j)%3-1,
  N[i][j] = (2i+j)%3-1, keyed by the shape, and, for m <= 8, in another on
  seeded random masses (`random_config`), keyed by the shape plus
  ``/random``. The stages ``build_z``, ``C``, ``P``, ``quotients``,
  ``cofactors``, ``q_0..8``, ``bundle`` and ``eigen`` (``verify_eigen`` to
  n = 8) run once each, in that order, and record wall time, CPU time and the
  largest numerator or denominator bit length of what they build (of D for
  ``bundle``; a ``Poly`` counts as stored, int numerators over one
  denominator). ``C`` builds the whole bordered matrix of q_n
  (``ZSystem.bordered``, whose columns 1..m are C; its bits are C's), so
  ``quotients`` times only its determinants. Then ``cli.main`` writes the
  ``construct --nmax 32``, ``verify`` and ``operator --nmax 8`` reports,
  whose exit codes and sha256 are recorded, and the process's peak RSS.
- ``screen``: each shape of ``SHAPES`` with m <= min(``--m-max``, 6) runs in
  a fresh process that builds ``SCREEN_CONFIGS`` random-mass configs of the
  shape (`random_config`, seeded by the shape and the config's index) and
  Lambda(0..8) of each, as the set-up screen of the benchmark does. It records
  the wall and CPU time of ``build_z`` and of Lambda(0..8) for the first config,
  which builds the shape's parts, and their medians over the others, which
  reuse them, and the sha256 of every config's P.
- ``custom``: each entry of ``CUSTOM`` runs in a fresh process: acceptance
  criterion 6's equal scalar masses (mass 1, alpha = beta = 1..4) and criterion
  7's two-jet masses (m0 = 2, m1 = 1, alpha = beta = 2..4), each with its
  order-lowering S = num / Omega, as the benchmark's verify sweep writes it
  (``"den": "auto-omega"``). With Omega and the cofactors held, ``build_bundle``
  runs ``CUSTOM_REPEATS`` times; the median and every CPU time are recorded.
  Then ``cli.main`` writes the ``verify --custom-s`` report, whose exit code and
  sha256 are recorded.
- ``budget``: ``--repeats`` cold processes each of one construct-deep op
  (``construct --nmax 32`` at (3,2,2,1)) and one operator-high-order op
  (``operator --nmax 8`` at (4,3,2,1), order 22), run as ``python -m
  jacobisobolev`` runs them, with ``cli.main`` wrapped to read the clock. The
  wall time splits into start-up plus import (spawn to ``main``), ``main``,
  and exit (``main`` returned to process end, through ``sys.exit``). Child CPU
  time and peak RSS come from ``wait4``. Medians and every run are recorded.
- ``mismatches``: the reports (``custom`` ones too) whose exit code or sha256, and the screens whose
  sha256 of P, differ from the one in ``RECORDED``, taken on the tree before
  the changes they guard. The file is written either way, and the run exits 1
  unless the list is empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (alpha, beta, m1, m2) by m = m1 + m2: the shapes of the stage table in ROADMAP.md
SHAPES = [(3, 3, 2, 2), (4, 4, 3, 2), (4, 4, 3, 3), (5, 5, 4, 3), (6, 6, 4, 4), (6, 6, 5, 4), (7, 7, 5, 5)]
# the shapes up to this m also run on random masses (`random_config`)
RANDOM_M_MAX = 8
# the screen part: the shapes up to this m, each with this many random-mass configs
SCREEN_M_MAX = 6
SCREEN_CONFIGS = 16
SCREEN_NMAX = 8
# the custom part: (family, alpha) of criterion 6's scalar-mass and criterion 7's two-jet configs
CUSTOM = [("scalar", a) for a in (1, 2, 3, 4)] + [("two-jet", a) for a in (2, 3, 4)]
CUSTOM_REPEATS = 5
REPORTS = {
    "construct": ["construct", "--nmax", "32"],
    "verify": ["verify"],
    "operator": ["operator", "--nmax", "8"],
}
BUDGET_OPS = {
    "construct-deep": ((3, 2, 2, 1), ["construct", "--nmax", "32"]),
    "operator-high-order": ((4, 3, 2, 1), ["operator", "--nmax", "8"]),
}

# (exit code, sha256) of each report; the baseline-mass ones recorded on 30f53e2, before the
# entry point froze the collector, the random-mass ones on 73ca9db, before z_l was built in x alone.
# Under "<shape>/screen", the sha256 of every P of the shape's screen, recorded on d5a14c4, before
# p, q, rho and the Pochhammer blocks were built once per shape. Under "custom/<family>/<alpha>",
# the verify --custom-s report of the custom part, recorded on d5c2547, before M_h was summed
# over one shift-gcd multiple as packed ints.
RECORDED = {
    "3,3,2,2/screen": "accc5f568a6b36a85fd3f101980262ffb4f4df496e71734685a20a04a0f7ab56",
    "4,4,3,2/screen": "95e6900a1d80fe2ac1394add1ee540ea3cf6776e81495813ce4c0650500b2c61",
    "4,4,3,3/screen": "7f892d4633a3677a403ee4517a9ce79431f4fcf49fb5e9ce6add3dffee93a300",
    "custom/scalar/1": (0, "1b6b16a105b4b6de9763725d56907ca1382deb631bcd3473ef8be15248352e22"),
    "custom/scalar/2": (0, "4f7762663b700424a4f49c56bf1a2109132376614ced84b5612cc017a5099b07"),
    "custom/scalar/3": (0, "6e832a8eb8564a23c4544a17109779fe35167f1bebed53b11d25e95744a5dda4"),
    "custom/scalar/4": (0, "85c7d4914886788ff234bd1504489ce11f5c3ed06ae44b762cf8245f1d71ff6a"),
    "custom/two-jet/2": (0, "2fdc4a80f168d2bd012127707080fc04d0123a47d14c32715762d63c49bed286"),
    "custom/two-jet/3": (0, "fc52ae2a1d2886191cde979cac15c11b8b0e15b7ed49fe43429f95e8b354e2d6"),
    "custom/two-jet/4": (0, "e3f4ce521060f462d585f93a9244b2fe008d2d702431a17276a8818eb54f1aae"),
    "3,3,2,2": {
        "construct": (0, "68c06a4fee020b42c65b748fe0975e60dfa1940b3246b762de61d428918ac8ce"),
        "verify": (0, "56694304310509addced07c2b11c9c5b14c59c45a142855c4495014019b6fa8f"),
        "operator": (0, "8ee3227587a1a25c2a2485906fa2828f9379461214833093c5aadb278db831dd"),
    },
    "3,3,2,2/random": {
        "construct": (0, "b75dd2011ee8a10e05a7c4a5e8f10b8a7c0038912580fff524aa239c7ac2366c"),
        "verify": (0, "80835f8ce21889e448f0b7f73eb643184864840c915fe991835977f77e90d108"),
        "operator": (0, "072799a39ae786cf4b99f13fc8d5123a427f7fcfaad44e0d69696738f5628198"),
    },
    "4,4,3,2": {
        "construct": (0, "ccb45dde80b79107f47ebd874481000e16e255c92ebda5fcddff6a7295eb713a"),
        "verify": (0, "d2fb0d65b016fee7f93bc51e90dc43d7ed6b4ff61df188f8955cab7106bb05e3"),
        "operator": (0, "48388831be6a49c4a2597ed002d027780c3e2b82cb829fd190b2c223afcb63f9"),
    },
    "4,4,3,2/random": {
        "construct": (0, "a083338a088bfef075987f226cd55aa4481765a7aa339e2e000bad6803a5c48c"),
        "verify": (0, "5c638388bcf952219aec5786b5e9adc04d7867d492559ec3cac79216ac8874a5"),
        "operator": (0, "d19b957e4dd5af8e53769306d334d3780d641d3aeefb3cf0b4c625afba9f53df"),
    },
    "4,4,3,3": {
        "construct": (0, "3197f129e7ecc8e6df474303363b529bf9b0053c93935dfd11a060fc8dd2b45f"),
        "verify": (0, "5f62fafdc85b0e6f6187e1c8d42d79c4bc3cef90af956d57cca2e616115fc361"),
        "operator": (0, "484d3b15c59406ecad9cf92096916c09c367c0ce15080aefaa810e0299959b37"),
    },
    "4,4,3,3/random": {
        "construct": (0, "561d43008e4758db3f66de5d69fc5bae12358051caf757bcc8eca0c785bf811b"),
        "verify": (0, "6d447c6edc4f3fda38814d25350692bdeccc70ce36698220e331cf9d1b1cc74b"),
        "operator": (0, "1e3dc45196e65a299a41a8a3510882d4b4ad70316cbd836e1cbc4582dba5322e"),
    },
    "5,5,4,3": {
        "construct": (0, "d7e702408830bb1817a84664b2dfa946813b7ad268a5cb6843c1840d6aef4b17"),
        "verify": (0, "bd2eafac4e36bd10e6519fd415c2e20926b868c279621fd9aaf7b4022f2c92dd"),
        "operator": (0, "1340d5f066701f771c3a4dd8c15d2c18a0aeb12d2d6fe34f20e353e91e9e43c0"),
    },
    "5,5,4,3/random": {
        "construct": (0, "70edecc9c4edd04df464d4d7648855cb9563342858702fa28eb9b7fa8189274d"),
        "verify": (0, "f214ada81352311a7d259dac004a76eb2b44a2c5714880b6b974b4f9095127bd"),
        "operator": (0, "5590948529bd8433d8f7162e8e4a7ded7e48cec08afdd91f3dc4818bfcde769e"),
    },
    "6,6,4,4": {
        "construct": (0, "7bc3e887a6828a3749da645df09a297d6d36bbfa473a65d3368b56cc60c2a56a"),
        "verify": (0, "795def5d7749660d6ba319c5befd895b3c66870d1e1e03b59112401af2d17338"),
        "operator": (0, "2bc7c4474075979225449ae302431fc10f2853ba6c1b28a84af37b6f693f6320"),
    },
    "6,6,4,4/random": {
        "construct": (0, "552b0dc58d2eab12cea96d4524a726775a3fc065bf6a9558bee06fe204978fba"),
        "verify": (0, "eb09bf72ca2481da42ecc13fd91f897bbdd47575c4f057fd07d5319efccde89f"),
        "operator": (0, "b2ec3ff0da5638cebad659ff29cbb54e722c409c99a799506fbe946e25013baf"),
    },
    "6,6,5,4": {
        "construct": (0, "4b66d70ebfd12cea7722188fca15d0c10626814a04e096e76b60c890781a83c0"),
        "verify": (0, "366de751799b5a8a301bbbf1e4ad6d5c367f11febda8a38b2a055585b56aff36"),
        "operator": (0, "8299dafd53d7ef2b39bd545671873418923d2afb7cb56f1517d7d7fc7501c130"),
    },
    "7,7,5,5": {
        "construct": (0, "42ee3ad99bf6c9b2b8cb4e38ee0c8ab568daa11f8a176a813a47724d7bdafc92"),
        "verify": (0, "cc2fc9c52ba1bddba84d13d135d167ea172f83c4d566403bd6931c1b1e98f56c"),
        "operator": (0, "03f08feb8571fbb7cdac39aeb0f95d6afd32e64d7003144b3059500b6d2b5ce8"),
    },
}

# Run as `python -c PROBE TIMES ARGV...`: the same runpy path as `python -m jacobisobolev`,
# with cli.main wrapped to write CLOCK_MONOTONIC (one clock for every process) at its entry
# and return to TIMES.
PROBE = """
import runpy, sys, time
times = sys.argv.pop(1)
import jacobisobolev.cli as cli
inner = cli.main
def main(argv=None):
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = inner(argv)
    end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    with open(times, "w", encoding="utf-8") as fh:
        fh.write(f"{start} {end}")
    return code
cli.main = main
runpy.run_module("jacobisobolev", run_name="__main__", alter_sys=True)
"""


def baseline_config(shape) -> dict:
    alpha, beta, m1, m2 = shape
    return {
        "alpha": alpha, "beta": beta, "m1": m1, "m2": m2,
        "M": [[str((i + 2 * j) % 3 - 1) for j in range(m1)] for i in range(m1)],
        "N": [[str((2 * i + j) % 3 - 1) for j in range(m2)] for i in range(m2)],
    }


def random_config(shape, index=None) -> dict:
    """The shape with masses u/v, u in [-2, 2] and v in 1..3, drawn from a generator seeded
    by the shape (and the screen's config index, if given), so that every run and every tree
    reads the same config."""
    alpha, beta, m1, m2 = shape
    rng = random.Random(f"stages {key(shape)}" if index is None else f"stages screen {key(shape)} {index}")

    def mass():
        return str(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))

    return {
        "alpha": alpha, "beta": beta, "m1": m1, "m2": m2,
        "M": [[mass() for _ in range(m1)] for _ in range(m1)],
        "N": [[mass() for _ in range(m2)] for _ in range(m2)],
    }


def custom_input(label: str):
    """The config of a custom part entry ("scalar/<alpha>" or "two-jet/<alpha>") and the
    numerator of its order-lowering S = num / Omega, as acceptance criteria 6 and 7 give them."""
    from jacobisobolev import Poly
    from jacobisobolev.exactmath import X, pochhammer

    family, alpha = label.split("/")
    a = int(alpha)
    if family == "scalar":
        mass = 1
        config = {"alpha": a, "beta": a, "m1": 1, "m2": 1, "M": [[str(mass)]], "N": [[str(mass)]]}
        r = Poly.constant(Fraction(4 ** (a - 1) * math.factorial(a - 1))) + (
            mass * pochhammer(X - 1, a) * pochhammer(X + a, a)
        ) * Fraction(1, 2 * math.factorial(a))
        return config, Poly([2 * a - 2, 2]) * r
    m0, m1 = 2, 1
    config = {
        "alpha": a, "beta": a, "m1": 2, "m2": 2,
        "M": [[str(m0), str(m1)], ["0", "0"]], "N": [[str(m0), str(-m1)], ["0", "0"]],
    }
    r = (
        Poly.constant(Fraction(16 ** (a - 1)) * math.factorial(a - 1) * math.factorial(a - 2))
        + 2 * Fraction(4 ** (a - 1)) * m0 * pochhammer(X - 1, a - 1) * pochhammer(X + a - 1, a - 1)
        - Fraction(4 ** (a - 1)) * m1 * Fraction(1, a) * pochhammer(X - 2, a) * pochhammer(X + a - 1, a)
    )
    return config, Poly([2 * a - 4, 2]) * r


def key(shape) -> str:
    return ",".join(map(str, shape))


def labels(m_max: int):
    """Each shape with m <= m_max under its key, its baseline masses, then, for
    m <= RANDOM_M_MAX, under its key plus "/random", its random masses."""
    for shape in SHAPES:
        if sum(shape[2:]) <= m_max:
            yield key(shape)
            if sum(shape[2:]) <= RANDOM_M_MAX:
                yield f"{key(shape)}/random"


def config_of(label: str) -> dict:
    shape = tuple(map(int, label.partition("/")[0].split(",")))
    return random_config(shape) if label.endswith("/random") else baseline_config(shape)


def bits(value) -> int:
    """The largest numerator or denominator bit length in a value built from exact scalars."""
    from jacobisobolev import DiffOp, Poly, RationalFunction, ZSystem

    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, Poly):  # as stored: int numerators over one denominator
        return max(abs(c).bit_length() for c in (value.den, *value.nums))
    if isinstance(value, RationalFunction):
        return max(bits(value.num), bits(value.den))
    if isinstance(value, DiffOp):
        return bits(value.coeffs)
    if isinstance(value, ZSystem):
        return bits((value.z, value.Y, value.p, value.q, value.rho))
    return max(map(bits, value), default=0)


def measure(config: dict) -> dict:
    """Every stage once, in order, then the three reports, in this (fresh) process."""
    from jacobisobolev import SobolevConfig, build_bundle, build_z, operator_order, sobolev_poly, verify_eigen
    from jacobisobolev.cli import main

    cfg = SobolevConfig.from_json(config)
    stages = {}

    def stage(name, build, output=lambda value: value):
        wall, cpu = time.perf_counter(), time.process_time()
        value = build()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        stages[name] = {"wall_s": round(wall, 6), "cpu_s": round(cpu, 6), "bits": bits(output(value))}
        return value

    system = stage("build_z", lambda: build_z(cfg))
    stage("C", lambda: system.C)
    stage("P", lambda: system.P)
    stage("quotients", lambda: system.quotients)
    stage("cofactors", lambda: system.cofactors)
    stage("q_0..8", lambda: [sobolev_poly(system, cfg, n) for n in range(9)])
    bundle = stage("bundle", lambda: build_bundle(cfg, system), lambda b: b.D)
    stage("eigen", lambda: verify_eigen(bundle, cfg, system, 8))

    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        for name, argv in REPORTS.items():
            out = os.path.join(tmp, f"{name}.json")
            code = main(argv + ["--config", path, "--out", out])
            with open(out, "rb") as fh:
                reports[name] = {"exit": code, "sha256": hashlib.sha256(fh.read()).hexdigest()}
    return {
        "m": cfg.m,
        "stages": stages,
        "order": operator_order(bundle),
        "reports": reports,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def screen(shape) -> dict:
    """build_z and Lambda(0..SCREEN_NMAX) of SCREEN_CONFIGS random-mass configs of one shape,
    in this (fresh) process: the first builds the shape's parts, the others reuse them."""
    from jacobisobolev import SobolevConfig, build_z, casorati_lambda

    configs = [SobolevConfig.from_json(random_config(shape, i)) for i in range(SCREEN_CONFIGS)]
    runs, digest = [], hashlib.sha256()
    for cfg in configs:
        times = {}
        wall, cpu = time.perf_counter(), time.process_time()
        system = build_z(cfg)
        times["build_z"] = (time.perf_counter() - wall, time.process_time() - cpu)
        wall, cpu = time.perf_counter(), time.process_time()
        for n in range(SCREEN_NMAX + 1):
            casorati_lambda(system, cfg, n)
        times["lambda"] = (time.perf_counter() - wall, time.process_time() - cpu)
        runs.append(times)
        digest.update(json.dumps(system.P.to_json()).encode() + b"\n")

    def timed(pairs):
        return {"wall_s": round(pairs[0], 6), "cpu_s": round(pairs[1], 6)}

    rest = runs[1:]
    return {
        "configs": SCREEN_CONFIGS,
        "first": {stage: timed(pair) for stage, pair in runs[0].items()},
        "rest_median": {
            stage: timed([statistics.median(r[stage][i] for r in rest) for i in (0, 1)]) for stage in runs[0]
        },
        "sha256": digest.hexdigest(),
    }


def custom(label: str) -> dict:
    """build_bundle on one custom part entry, CUSTOM_REPEATS times with Omega and the
    cofactors held, then its verify --custom-s report, in this (fresh) process."""
    from jacobisobolev import RationalFunction, SobolevConfig, build_bundle, build_z
    from jacobisobolev.cli import main

    config, num = custom_input(label)
    cfg = SobolevConfig.from_json(config)
    system = build_z(cfg)
    s = RationalFunction(num) / system.omega
    system.cofactors  # held, as the verify command holds them when it builds the bundle
    times = []
    for _ in range(CUSTOM_REPEATS):
        cpu = time.process_time()
        build_bundle(cfg, system, s)
        times.append(time.process_time() - cpu)
    with tempfile.TemporaryDirectory() as tmp:
        path, s_path, out = (os.path.join(tmp, name) for name in ("config.json", "s.json", "verify.json"))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with open(s_path, "w", encoding="utf-8") as fh:
            json.dump({"num": num.to_json(), "den": "auto-omega"}, fh)
        code = main(["verify", "--config", path, "--custom-s", s_path, "--out", out])
        with open(out, "rb") as fh:
            report = {"exit": code, "sha256": hashlib.sha256(fh.read()).hexdigest()}
    return {
        "m": cfg.m,
        "bundle_cpu_s": round(statistics.median(times), 6),
        "bundle_cpu_s_runs": [round(t, 6) for t in times],
        "report": report,
    }


def child_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_child(flag: str, label: str, src: str) -> dict:
    """The JSON that this script, run with ``flag label`` in a fresh process on src, prints."""
    argv = [sys.executable, os.path.abspath(__file__), flag, label]
    done = subprocess.run(argv, env=child_env(src), capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"stages: {flag} {label} exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def cold_op(argv, src: str, tmp: str) -> dict:
    """One cold `python -m jacobisobolev` op, timed from spawn to process end."""
    times = os.path.join(tmp, "times")
    args = [sys.executable, "-c", PROBE, times, *argv]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, os.path.join(tmp, "err"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    env = child_env(src)
    spawned = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    ended = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(os.path.join(tmp, "err"), encoding="utf-8", errors="replace") as fh:
            raise SystemExit(f"stages: {' '.join(argv)} exited {code}\n{fh.read()[-2000:]}")
    with open(times, encoding="utf-8") as fh:
        start, end = map(int, fh.read().split())
    return {
        "startup_import_s": (start - spawned) / 1e9,
        "main_s": (end - start) / 1e9,
        "exit_s": (ended - end) / 1e9,
        "wall_s": (ended - spawned) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def budget(src: str, repeats: int) -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (shape, argv) in BUDGET_OPS.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(baseline_config(shape), fh)
            full = argv + ["--config", path, "--out", os.path.join(tmp, "report.json")]
            runs = [cold_op(full, src, tmp) for _ in range(repeats)]
            result[name] = {
                "argv": argv,
                "shape": list(shape),
                "median": {field: round(statistics.median(r[field] for r in runs), 6) for field in runs[0]},
                "runs": [{field: round(value, 6) for field, value in r.items()} for r in runs],
            }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="the JSON file to write (other labels in it are kept)")
    parser.add_argument("--label", default="run", help="the key of this run in --out")
    parser.add_argument("--m-max", type=int, default=8, choices=range(4, 11))
    parser.add_argument("--repeats", type=int, default=10, help="cold processes per budget op (0: none)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the package tree to measure")
    parser.add_argument("--shape", help=argparse.SUPPRESS)  # one config, in this process: JSON on stdout
    parser.add_argument("--screen", help=argparse.SUPPRESS)  # one shape's screen, in this process
    parser.add_argument("--custom", help=argparse.SUPPRESS)  # one custom part entry, in this process
    args = parser.parse_args(argv)
    if args.shape:
        print(json.dumps(measure(config_of(args.shape))))
        return 0
    if args.screen:
        print(json.dumps(screen(tuple(map(int, args.screen.split(","))))))
        return 0
    if args.custom:
        print(json.dumps(custom(args.custom)))
        return 0
    if not args.out:
        parser.error("--out is required")

    src = os.path.abspath(args.src)
    result = {"python": sys.version.split()[0], "shapes": {}, "screen": {}, "custom": {}, "mismatches": []}
    for label in labels(args.m_max):
        record = result["shapes"][label] = run_child("--shape", label, src)
        line = " ".join(f"{name} {s['wall_s']:.3f}s/{s['bits']}b" for name, s in record["stages"].items())
        print(f"{label} m={record['m']}: {line}", flush=True)
        for name, report in record["reports"].items():
            if RECORDED.get(label, {}).get(name) != (report["exit"], report["sha256"]):
                result["mismatches"].append(f"{label} {name}")
    for shape in SHAPES:
        if sum(shape[2:]) <= min(args.m_max, SCREEN_M_MAX):
            record = result["screen"][key(shape)] = run_child("--screen", key(shape), src)
            first, rest = record["first"], record["rest_median"]
            line = " ".join(f"{stage} {first[stage]['wall_s']:.4f}s/{rest[stage]['wall_s']:.4f}s" for stage in first)
            print(f"{key(shape)} screen, first/rest median: {line}", flush=True)
            if RECORDED.get(f"{key(shape)}/screen") != record["sha256"]:
                result["mismatches"].append(f"{key(shape)} screen")
    for family, alpha in CUSTOM:
        label = f"{family}/{alpha}"
        record = result["custom"][label] = run_child("--custom", label, src)
        print(f"custom {label} m={record['m']}: bundle {record['bundle_cpu_s'] * 1e3:.2f} ms cpu", flush=True)
        if RECORDED.get(f"custom/{label}") != (record["report"]["exit"], record["report"]["sha256"]):
            result["mismatches"].append(f"custom {label}")
    if args.repeats:
        result["budget"] = budget(src, args.repeats)
        for name, b in result["budget"].items():
            print(f"{name}: " + " ".join(f"{field} {value:.4f}" for field, value in b["median"].items()), flush=True)

    runs = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            runs = json.load(fh)
    runs[args.label] = result
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result["mismatches"]:
        print("report exit codes or digests differ from RECORDED: " + ", ".join(result["mismatches"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
