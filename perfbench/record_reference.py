"""Record report digests into reference.json.

    python3 perfbench/record_reference.py [--seeds 0 1 ...]

Run it from the root of a checkout. It generates each workload's inputs for
the given seeds (default: seed 0), then runs every distinct op once, each in
a fresh CLI process. It checks the report, then stores its sha256 under the
op's input digest. Existing entries are kept. If a new digest contradicts an
entry, the script stops without writing. Record only from a commit whose
reports are known good: the benchmark then requires every later commit to
reproduce these bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import checks
import inputs
from run import HERE, STATE_DIR, spawn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record report digests")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    reference = checks.load_reference()
    work = os.path.join(STATE_DIR, f"record-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        for workload in inputs.WORKLOADS:
            for seed in args.seeds:
                out = os.path.join(work, f"{workload}-{seed}")
                code, _, _, _ = spawn([os.path.join(HERE, "inputs.py"), "--workload", workload,
                                       "--seed", str(seed), "--out", out], os.path.join(work, "setup.err"))
                if code != 0:
                    print(f"set-up failed for {workload} seed {seed}", file=sys.stderr)
                    return 1
                with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                    ops = json.load(fh)["ops"]
                done = set()
                for op in ops:
                    key = checks.input_key(op)
                    if key in done:
                        continue
                    done.add(key)
                    report = os.path.join(work, "report.json")
                    code, _, _, _ = spawn(["-m", "jacobisobolev"] + op["argv"] + ["--out", report],
                                          os.path.join(work, "op.err"))
                    digest, problem = checks.check_op(op, code, report)
                    if problem is not None:
                        print(f"{workload} seed {seed}: {problem}", file=sys.stderr)
                        return 1
                    if reference.setdefault(key, digest) != digest:
                        print(f"{workload} seed {seed}: digest contradicts reference.json", file=sys.stderr)
                        return 1
                print(f"{workload} seed {seed}: {len(done)} distinct ops recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
