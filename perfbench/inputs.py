"""Seeded input generation for the benchmark workloads.

Run as a script, this is the benchmark's set-up step:

    PYTHONPATH=src python3 perfbench/inputs.py --workload NAME --seed N --out DIR

It imports the package, draws the mass matrices from the seed, screens each
config for Lambda(k) != 0 up to the workload's nmax, and writes one config
JSON (and, for custom-S ops, one S JSON) per op plus ``manifest.json``
listing the ops in schedule order. Only those files reach the program.

Screening fills the package's module-global caches, which is why it always
runs in its own process and never shares one with timed ops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

WORKLOADS = ("operator-high-order", "construct-deep", "verify-sweep")

OPERATOR_NMAX = 8
CONSTRUCT_NMAX = 32
VERIFY_NMAX = 8

# Operator shapes with the full (generic-mass) operator order. Random masses
# are screened to this order: a lower-rank draw builds a lower-order, cheaper
# operator, and the cost of an op would then depend on the seed.
OPERATOR_FULL_ORDER = {(3, 3, 2, 1): 20, (4, 3, 2, 1): 22}
# One operator cycle of 24 ops: the ROADMAP baseline masses, repeated, and a
# fresh seeded random config for every other op. Many distinct draws per run
# keep the seed's effect on the run's cost small.
OPERATOR_CYCLE = (
    ((3, 3, 2, 1), "baseline"),
    ((4, 3, 2, 1), "baseline"),
    ((3, 3, 2, 1), "random"),
    ((4, 3, 2, 1), "random"),
    ((3, 3, 2, 1), "random"),
    ((4, 3, 2, 1), "random"),
) * 4
# The m <= 3 shapes of the test suite's STANDARD_SHAPES, with their full
# operator orders for the verify sweep's random masses.
SMALL_FULL_ORDER = {(2, 1, 1, 1): 8, (2, 2, 1, 1): 10, (3, 2, 2, 1): 16}
SMALL_SHAPES = tuple(SMALL_FULL_ORDER)
CONSTRUCT_CYCLE = SMALL_SHAPES * 8  # 24 seeded draws; a 1x1 mass may repeat
# One verify block: random masses, equal scalar masses with the lowered-order
# S (alpha = beta = 1..4), and the two-jet family (alpha = beta = 2..4).
VERIFY_BLOCK = (
    [("random", shape) for shape in SMALL_SHAPES]
    + [("scalar", a) for a in (1, 2, 3, 4)]
    + [("two-jet", a) for a in (2, 3, 4)]
)
VERIFY_BLOCKS = 3  # the latency prefix; a run that gets further repeats them warm
# Every draw screens this many candidates in full and keeps the first that
# passes, so set-up does the same work whichever candidate that is. Only when
# all of them fail (8 % of draws at the lowest pass rate seen, 0.57) does it
# screen another batch.
SCREEN_CANDIDATES = 3


def _nonzero(rng: random.Random) -> int:
    return rng.choice((-2, -1, 1, 2))


class Generator:
    """Draws configs from one seed and screens them with the package."""

    def __init__(self, workload: str, seed: int):
        import jacobisobolev  # from src, through the PYTHONPATH run.py sets

        self.js = jacobisobolev
        self.rng = random.Random(f"{workload}:{seed}")

    def screened(self, cfg, nmax: int, order=None) -> bool:
        """Lambda(k) != 0 for k <= nmax and, if given, the operator order.

        Every test runs, so a failing candidate costs as much as a passing one."""
        system = self.js.build_z(cfg)
        lambdas = [self.js.casorati_lambda(system, cfg, k) for k in range(nmax + 1)]
        right_order = order is None or self.js.predicted_order(cfg) == order
        return right_order and all(value != 0 for value in lambdas)

    def first_passing(self, draw, nmax: int, order=None):
        """Screen SCREEN_CANDIDATES draws; return the first (config, extra) that passes."""
        while True:
            found = None
            for _ in range(SCREEN_CANDIDATES):
                cfg, extra = draw()
                if self.screened(cfg, nmax, order) and found is None:
                    found = cfg, extra
            if found is not None:
                return found

    def config(self, shape, M, N):
        a, b, m1, m2 = shape
        return self.js.SobolevConfig(alpha=a, beta=b, m1=m1, m2=m2, M=M, N=N)

    def random_config(self, shape, nmax: int, order=None):
        _, _, m1, m2 = shape

        def draw():
            M = [[self.rng.randint(-2, 2) for _ in range(m1)] for _ in range(m1)]
            N = [[self.rng.randint(-2, 2) for _ in range(m2)] for _ in range(m2)]
            return self.config(shape, M, N), None

        return self.first_passing(draw, nmax, order)[0]

    def baseline_config(self, shape, nmax: int):
        _, _, m1, m2 = shape
        M = [[(i + 2 * j) % 3 - 1 for j in range(m1)] for i in range(m1)]
        N = [[(2 * i + j) % 3 - 1 for j in range(m2)] for i in range(m2)]
        cfg = self.config(shape, M, N)
        if not self.screened(cfg, nmax):
            raise SystemExit(f"perfbench: baseline masses degenerate at {shape}")
        return cfg

    def scalar_mass(self, a: int, nmax: int):
        """Equal scalar masses and the order-lowering S of acceptance criterion 6."""
        from jacobisobolev.exactmath import X, pochhammer

        Poly = self.js.Poly

        def draw():
            mass = _nonzero(self.rng)
            return self.config((a, a, 1, 1), [[mass]], [[mass]]), mass

        cfg, mass = self.first_passing(draw, nmax)
        r = Poly.constant(Fraction(4 ** (a - 1) * math.factorial(a - 1))) + (
            mass * pochhammer(X - 1, a) * pochhammer(X + a, a)
        ) * Fraction(1, 2 * math.factorial(a))
        return cfg, Poly([2 * a - 2, 2]) * r

    def two_jet(self, a: int, nmax: int):
        """The two-jet family and the order-lowering S of acceptance criterion 7."""
        from jacobisobolev.exactmath import X, pochhammer

        Poly = self.js.Poly

        def draw():
            m0, m1 = _nonzero(self.rng), _nonzero(self.rng)
            return self.config((a, a, 2, 2), [[m0, m1], [0, 0]], [[m0, -m1], [0, 0]]), (m0, m1)

        cfg, (m0, m1) = self.first_passing(draw, nmax)
        r = (
            Poly.constant(Fraction(16 ** (a - 1)) * math.factorial(a - 1) * math.factorial(a - 2))
            + 2 * Fraction(4 ** (a - 1)) * m0 * pochhammer(X - 1, a - 1) * pochhammer(X + a - 1, a - 1)
            - Fraction(4 ** (a - 1)) * m1 * Fraction(1, a) * pochhammer(X - 2, a) * pochhammer(X + a - 1, a)
        )
        return cfg, Poly([2 * a - 4, 2]) * r


def generate(workload: str, seed: int, out_dir: str) -> None:
    """Write the op inputs and the manifest for one workload and seed."""
    gen = Generator(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    ops = []

    def add(command, nmax, cfg, family, num=None):
        index = len(ops)
        config_path = os.path.join(out_dir, f"op{index:03d}.config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg.to_json(), fh, sort_keys=True)
        argv = [command, "--config", config_path, "--nmax", str(nmax)]
        if num is not None:
            s_path = os.path.join(out_dir, f"op{index:03d}.s.json")
            with open(s_path, "w", encoding="utf-8") as fh:
                json.dump({"num": num.to_json(), "den": "auto-omega"}, fh, sort_keys=True)
            argv += ["--custom-s", s_path]
        shape = [cfg.alpha, cfg.beta, cfg.m1, cfg.m2]
        ops.append({"argv": argv, "command": command, "nmax": nmax, "family": family, "shape": shape})

    if workload == "operator-high-order":
        for shape, kind in OPERATOR_CYCLE:
            if kind == "baseline":
                cfg = gen.baseline_config(shape, OPERATOR_NMAX)
            else:
                cfg = gen.random_config(shape, OPERATOR_NMAX, OPERATOR_FULL_ORDER[shape])
            add("operator", OPERATOR_NMAX, cfg, kind)
    elif workload == "construct-deep":
        for shape in CONSTRUCT_CYCLE:
            add("construct", CONSTRUCT_NMAX, gen.random_config(shape, CONSTRUCT_NMAX), "random")
    elif workload == "verify-sweep":
        for _ in range(VERIFY_BLOCKS):
            for family, param in VERIFY_BLOCK:
                if family == "random":
                    cfg = gen.random_config(param, VERIFY_NMAX, SMALL_FULL_ORDER[param])
                    add("verify", VERIFY_NMAX, cfg, family)
                else:
                    build = gen.scalar_mass if family == "scalar" else gen.two_jet
                    cfg, num = build(param, VERIFY_NMAX)
                    add("verify", VERIFY_NMAX, cfg, family, num)
    else:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
