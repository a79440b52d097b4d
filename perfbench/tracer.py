"""Per-module spans around calls into the package, from outside the package.

``install()`` wraps the public functions listed in ``SPANS`` and rebinds
every name that holds one of them, in every loaded ``jacobisobolev`` module
and class. Rebinding every namespace matters because the package binds names
at import (``cli`` imports ``build_z``, ``sobolev_poly``, ... directly) and
at call time (``verify_eigen`` imports ``sobolev_poly``, ``build_bundle``
imports ``predicted_order``, ``_load_custom_s`` imports ``_omega``), and
``diffop`` reaches ``compose``, ``op_poly`` and ``_omega`` through its own
globals. Nothing under ``src/`` changes.

For each span the tracer keeps the call count, the self time (span time
minus the time of child spans) and the inclusive time. The tracer's own
bookkeeping is charged to neither. It also counts calls whose arguments it
has already seen in this process, and reads coefficient bit lengths and the
operator order from returned values.

Run as a script, it traces one CLI invocation:

    python3 perfbench/tracer.py TRACE_JSON -- construct --config c.json ...
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# span name -> (module, attribute). "linalg.det" wraps _linalg.det and is
# split by entry type; metric names may not start with "_".
SPANS = {
    "cli.main": ("cli", "main"),
    "construct.build_z": ("construct", "build_z"),
    "construct.casorati_lambda": ("construct", "casorati_lambda"),
    "construct.sobolev_poly": ("construct", "sobolev_poly"),
    "sobolev.bilinear": ("sobolev", "bilinear"),
    "jacobi.jacobi_poly": ("jacobi", "jacobi_poly"),
    "diffop._omega": ("diffop", "_omega"),
    "diffop.build_bundle": ("diffop", "build_bundle"),
    "diffop.op_poly": ("diffop", "op_poly"),
    "diffop.compose": ("diffop", "compose"),
    "diffop.verify_eigen": ("diffop", "verify_eigen"),
    "rank.predicted_order": ("rank", "predicted_order"),
    "linalg.det": ("_linalg", "det"),
    "exactmath.Poly.mul": ("exactmath", "Poly.__mul__"),
    "exactmath.Poly.divmod": ("exactmath", "Poly.__divmod__"),
    "exactmath.Poly.gcd": ("exactmath", "Poly.gcd"),
    "exactmath.RationalFunction.mul": ("exactmath", "RationalFunction.__mul__"),
    "exactmath.RationalFunction.add": ("exactmath", "RationalFunction.__add__"),
}
DET_SPANS = ("linalg.det.fraction", "linalg.det.poly", "linalg.det.rf")
SPAN_NAMES = tuple(n for n in SPANS if n != "linalg.det") + DET_SPANS

# Calls whose arguments repeat: the key picks the arguments that matter.
REPEAT_KEYS = {
    "construct.build_z": lambda cfg: cfg,
    "construct.casorati_lambda": lambda system, cfg, n: (cfg, n),
    "construct.sobolev_poly": lambda system, cfg, n: (cfg, n),
    "jacobi.jacobi_poly": lambda ctx, n: (ctx.alpha, ctx.beta, n),
    "diffop._omega": lambda cfg, system: cfg,
}


def poly_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Span statistics, repeat counts and observed values for one process."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.repeats = {name: 0 for name in REPEAT_KEYS}
        self.seen = {name: set() for name in REPEAT_KEYS}
        self.values = {"construct.q_bits_max": 0, "diffop.omega_bits_max": 0, "diffop.D_bits_max": 0, "diffop.D_order": 0}
        self.rebound = {}
        self._children = [0.0]  # child-time accumulators of the open spans

    def _note(self, name: str, value: int) -> None:
        if value > self.values[name]:
            self.values[name] = value

    def _observe_q(self, poly) -> None:
        self._note("construct.q_bits_max", poly_bits(poly))

    def _observe_omega(self, rf) -> None:
        self._note("diffop.omega_bits_max", max(poly_bits(rf.num), poly_bits(rf.den)))

    def _observe_bundle(self, bundle) -> None:
        self._note("diffop.D_bits_max", max((poly_bits(c) for c in bundle.D.coeffs), default=0))
        self._note("diffop.D_order", len(bundle.D.coeffs) - 1)

    def wrap(self, name, fn, classify=None, observe=None):
        """A stand-in for fn that records one span per call."""
        clock = time.perf_counter
        children = self._children
        stats = self.stats
        key = REPEAT_KEYS.get(name)
        seen = self.seen.get(name)
        repeats = self.repeats

        def traced(*args, **kwargs):
            t0 = clock()
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    repeats[name] += 1
                else:
                    seen.add(k)
            stat = stats[classify(*args) if classify else name]
            children.append(0.0)
            ok = False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = clock()
                child = children.pop()
                stat[0] += 1
                stat[1] += t2 - t1 - child
                stat[2] += t2 - t1
                if ok and observe is not None:
                    observe(result)
                # the whole wrapper counts as a child of the enclosing span,
                # so bookkeeping lands in neither span's self time
                children[-1] += clock() - t0

        return traced

    def install(self) -> None:
        import jacobisobolev.cli  # noqa: F401  (loads every module)
        from jacobisobolev.exactmath import Poly, RationalFunction

        def classify_det(matrix):
            first = matrix[0][0] if len(matrix) else Fraction(1)
            if isinstance(first, RationalFunction):
                return "linalg.det.rf"
            if isinstance(first, Poly):
                return "linalg.det.poly"
            return "linalg.det.fraction"

        observers = {
            "construct.sobolev_poly": self._observe_q,
            "diffop._omega": self._observe_omega,
            "diffop.build_bundle": self._observe_bundle,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n == "jacobisobolev" or n.startswith("jacobisobolev.")]
        owners = {id(m): m for m in modules}
        for m in modules:
            for value in vars(m).values():
                if isinstance(value, type) and value.__module__.startswith("jacobisobolev"):
                    owners[id(value)] = value
        for name, (module, attr) in SPANS.items():
            holder = sys.modules[f"jacobisobolev.{module}"]
            *class_path, leaf = attr.split(".")
            for part in class_path:
                holder = getattr(holder, part)
            original = vars(holder)[leaf]
            wrapper = self.wrap(
                name,
                original,
                classify=classify_det if name == "linalg.det" else None,
                observe=observers.get(name),
            )
            count = 0
            for owner in owners.values():
                for binding, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, binding, wrapper)
                        count += 1
            self.rebound[name] = count

    def to_json(self) -> dict:
        return {
            "spans": {n: list(v) for n, v in self.stats.items()},
            "repeats": dict(self.repeats),
            "values": dict(self.values),
            "rebound": dict(self.rebound),
        }


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import jacobisobolev.cli as cli

    code = cli.main(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
