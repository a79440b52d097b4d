"""Shared helpers: deterministic random configurations and cached pipelines."""

import math
import random
import warnings
from fractions import Fraction

from hypothesis import strategies as st

from jacobisobolev import (
    Poly,
    RationalFunction,
    SobolevConfig,
    ZSystem,
    build_bundle,
    build_z,
    casorati_lambda,
)
from jacobisobolev.exactmath import X, pochhammer

# Hypothesis' pytest plugin imports this module when a test fails. Where libcst is
# installed, that import raises a DeprecationWarning from mypy_extensions, which
# -W error turns into an internal error that ends the session. Importing it once
# here, with that warning ignored for this one import, keeps a failing run whole.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is absent: the plugin takes the same path
        pass

# Shapes (alpha, beta, m1, m2) exercised throughout the suite.
STANDARD_SHAPES = [(2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 2, 1), (3, 3, 2, 2)]

_CONFIG_CACHE = {}
_BUNDLE_CACHE = {}


def baseline_config(shape):
    """The baseline masses M[i][j] = (i+2j)%3-1 and N[i][j] = (2i+j)%3-1."""
    alpha, beta, m1, m2 = shape
    return SobolevConfig(
        alpha=alpha, beta=beta, m1=m1, m2=m2,
        M=[[Fraction((i + 2 * j) % 3 - 1) for j in range(m1)] for i in range(m1)],
        N=[[Fraction((2 * i + j) % 3 - 1) for j in range(m2)] for i in range(m2)],
    )


def random_configs(shape, count=5, seed=0, guard=12):
    """Deterministic random mass-matrix configs for a shape.

    Entries are drawn from [-2, 2]; configs whose Casorati determinant
    vanishes anywhere up to ``guard`` are rejected (the existence hypothesis,
    not an error to mask).
    """
    key = (shape, count, seed, guard)
    if key in _CONFIG_CACHE:
        return _CONFIG_CACHE[key]
    alpha, beta, m1, m2 = shape
    rng = random.Random((seed, shape).__repr__())
    configs = []
    while len(configs) < count:
        M = [[Fraction(rng.randint(-2, 2)) for _ in range(m1)] for _ in range(m1)]
        N = [[Fraction(rng.randint(-2, 2)) for _ in range(m2)] for _ in range(m2)]
        cfg = SobolevConfig(alpha=alpha, beta=beta, m1=m1, m2=m2, M=M, N=N)
        sys_z = build_z(cfg)
        if all(casorati_lambda(sys_z, cfg, k) != 0 for k in range(guard + 1)):
            configs.append(cfg)
    _CONFIG_CACHE[key] = configs
    return configs


@st.composite
def mass_configs(draw, max_jets=3):
    """A config with m1, m2 <= max_jets and masses that have denominators."""
    m1 = draw(st.integers(0, max_jets))
    m2 = draw(st.integers(0 if m1 else 1, max_jets))
    masses = st.fractions(min_value=-4, max_value=4, max_denominator=9)
    return SobolevConfig(
        alpha=m2 + draw(st.integers(0, 2)),
        beta=m1 + draw(st.integers(0, 2)),
        m1=m1,
        m2=m2,
        M=[[draw(masses) for _ in range(m1)] for _ in range(m1)],
        N=[[draw(masses) for _ in range(m2)] for _ in range(m2)],
    )


def degree_law_cases():
    """Criterion 10's (m1, m2, Y-tuple) cases: distinct degrees in each block."""
    rng = random.Random(7)
    shapes = [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]
    for trial in range(10):
        m1, m2 = shapes[trial % len(shapes)]
        ys = []
        for size in (m1, m2):
            degrees = rng.sample(range(0, 4), size)
            for d in degrees:
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
                lead = Fraction(rng.choice([-2, -1, 1, 2, 3]))
                ys.append(Poly(coeffs + [lead]))
        yield m1, m2, ys


def two_jet_config(a, m0=Fraction(2), m1_mass=Fraction(1)):
    """Criterion 7's two-jet configuration at alpha = beta = a."""
    return SobolevConfig(
        alpha=a, beta=a, m1=2, m2=2,
        M=[[m0, m1_mass], [0, 0]],
        N=[[m0, -m1_mass], [0, 0]],
    )


def two_jet_lowered_s(cfg, omega):
    """Criterion 7's order-lowering S = sigma R / Omega for a `two_jet_config`."""
    a, m0, m1_mass = cfg.alpha, cfg.M[0][0], cfg.M[0][1]
    r = (
        Poly.constant(Fraction(16 ** (a - 1)) * math.factorial(a - 1) * math.factorial(a - 2))
        + 2 * Fraction(4 ** (a - 1)) * m0 * pochhammer(X - 1, a - 1) * pochhammer(X + a - 1, a - 1)
        - Fraction(4 ** (a - 1)) * m1_mass * Fraction(1, a) * pochhammer(X - 2, a) * pochhammer(X + a - 1, a)
    )
    return RationalFunction(Poly([2 * a - 4, 2]) * r) / omega


def cold_copy(system):
    """A system with the same fields as `system`, none of its cached values and no q_n."""
    return ZSystem(z=system.z, Y=system.Y, p=system.p, q=system.q, rho=system.rho)


def cached_bundle(cfg, custom_s=None):
    """Build (or reuse) the operator bundle for a config."""
    key = (cfg, custom_s)
    if key not in _BUNDLE_CACHE:
        _BUNDLE_CACHE[key] = build_bundle(cfg, build_z(cfg), custom_s)
    return _BUNDLE_CACHE[key]


# One PASS/FAIL line per acceptance criterion, printed after the run.
ACCEPTANCE_RESULTS = {}


def record_criterion(number, description, body):
    """Run an acceptance-criterion body and record its outcome."""
    try:
        body()
    except BaseException:
        ACCEPTANCE_RESULTS[number] = (description, "FAIL")
        raise
    ACCEPTANCE_RESULTS[number] = (description, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        description, status = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {description}")
