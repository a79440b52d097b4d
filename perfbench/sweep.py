"""The verify-sweep worker: many ``verify`` calls in one warm process.

    python3 perfbench/sweep.py --manifest M --out-dir D --timings T
        (--seconds S | --count K) [--trace TRACE_JSON]

Calls ``jacobisobolev.cli.main`` in-process for the manifest's ops in order,
cycling through the list if it runs out, so the package's caches stay warm
across ops as in a notebook sweep. With ``--seconds`` it starts ops until S
seconds have passed and at least ``--min-count`` ops have run; with
``--count`` it runs exactly K ops. Each report goes
to ``D/repNNNN.json``. Each op's time, scaled to the speed kernel's reference
speed (see speed.py), its wall and CPU time and the kernel times around it go
to T.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import speed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="verify-sweep worker")
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--timings", required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--count", type=int)
    parser.add_argument("--min-count", type=int, default=0)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    with open(args.manifest, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from jacobisobolev import cli

    clock = time.perf_counter
    done = []
    start = clock()
    kernel = speed.kernel_seconds()
    i = 0
    while (clock() - start < args.seconds or i < args.min_count) if args.count is None else (i < args.count):
        slot = i % len(ops)
        out = os.path.join(args.out_dir, f"rep{i:04d}.json")
        t0, c0 = clock(), time.process_time()
        try:
            code = cli.main(ops[slot]["argv"] + ["--out", out])
        except Exception:  # an escaped error fails this op, not the sweep
            traceback.print_exc()
            code = -1
        op_wall, op_cpu = clock() - t0, time.process_time() - c0
        after = speed.kernel_seconds()
        done.append([slot, code, speed.scaled(op_wall, kernel, after), op_wall, op_cpu, [kernel, after], out])
        kernel = after
        i += 1
    wall = clock() - start
    with open(args.timings, "w", encoding="utf-8") as fh:
        json.dump({"ops": done, "wall": wall}, fh)
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
