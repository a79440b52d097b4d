"""The repository benchmark: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. NAME is ``operator-high-order``,
``construct-deep``, ``verify-sweep`` or ``all``. With ``--trace 0`` it
measures the end-to-end metrics with tracing off, every time scaled to the
reference speed of the kernel in speed.py; with ``--trace 1`` it runs a
fixed prefix of the workload twice, untraced and then traced, and reports the
per-module metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every op was correct; without ``src/jacobisobolev`` it is 2 and
nothing is printed on stdout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import inputs
import speed
from tracer import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = ".perfbench"  # results, trace state and working files
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
# The time metrics use the first K ops of the timed phase, a fixed prefix of
# the schedule that every timed phase runs, however long it takes: the mix of
# op kinds behind them is then the same on every run, whatever the speed. On
# the CLI workloads that puts the tail at p54.5, near the median.
LATENCY_OPS = {"operator-high-order": 22, "construct-deep": 22, "verify-sweep": 30}
TRACE_OPS = {"operator-high-order": 6, "construct-deep": 6, "verify-sweep": 10}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_latency_p50_s": "s",
    "op_latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Spans predicted to fire on each workload; every other span must not.
SPANS_ABSENT = {
    "operator-high-order": {"sobolev.bilinear"},
    "construct-deep": {
        "sobolev.bilinear",
        "diffop._omega",
        "diffop.build_bundle",
        "diffop.op_poly",
        "diffop.compose",
        "diffop.verify_eigen",
        "rank.predicted_order",
    },
    "verify-sweep": set(),
}
# Spans that fire on every workload report calls, self and inclusive time;
# the others report calls in the result line and their times in the table,
# because a time that is 0 by design on a workload is not a measurement.
TIMED_SPANS = [n for n in SPAN_NAMES if not any(n in absent for absent in SPANS_ABSENT.values())]
HIT_RATIOS = ("construct.build_z", "construct.casorati_lambda", "jacobi.jacobi_poly")
DISTINCT_RATIOS = ("construct.sobolev_poly", "diffop._omega")
VALUE_UNITS = {
    "construct.q_bits_max": "bits",
    "diffop.omega_bits_max": "bits",
    "diffop.D_bits_max": "bits",
    "diffop.D_order": "order",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        if name in TIMED_SPANS:
            units[f"{name}.self_s"] = "s"
            units[f"{name}.incl_s"] = "s"
    units.update({f"{n}.hit_ratio": "ratio" for n in HIT_RATIOS})
    units.update({f"{n}.distinct_ratio": "ratio" for n in DISTINCT_RATIOS})
    units.update(VALUE_UNITS)
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- processes -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def fail(message: str, log_path: str):
    """Stop the run, quoting the end of a child's stderr (the log is removed)."""
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        raise SystemExit(f"perfbench: {message}\n{fh.read()[-2000:]}")


def spawn(args, log_path: str, timeout: float = OP_TIMEOUT_S):
    """Run python3 with args; return (exit code, wall s, max RSS in MB, CPU s)."""
    argv = [sys.executable] + list(args)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    timer = threading.Timer(timeout, _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0, cpu


# -- one workload ------------------------------------------------------------


class Run:
    """Set-up, timed or traced phase, and checks for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: int, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.min_ops = LATENCY_OPS[workload]  # a timed phase runs at least these
        self.work = work
        self.problems = []
        self.ops_run = []  # dicts: slot, exit, seconds, report, digest, problem, pass
        self.first_digest = {}  # slot -> digest of its first report in this run
        self.reference = checks.load_reference()

    def log(self, name: str) -> str:
        return os.path.join(self.work, name)

    def setup(self, repeats: int) -> float:
        """Generate and screen the inputs in fresh processes; median scaled time."""
        scaled, raw = [], []
        kernel = speed.kernel_seconds()
        for i in range(repeats):
            code, elapsed, _, _ = spawn(
                [os.path.join(HERE, "inputs.py"), "--workload", self.workload, "--seed", str(self.seed),
                 "--out", self.log("inputs")],
                self.log(f"setup{i}.err"),
            )
            if code != 0:
                fail(f"set-up exited {code}", self.log(f"setup{i}.err"))
            after = speed.kernel_seconds()
            scaled.append(speed.scaled(elapsed, kernel, after))
            raw.append(elapsed)
            kernel = after
        with open(self.log("inputs/manifest.json"), encoding="utf-8") as fh:
            self.ops = json.load(fh)["ops"]
        self.setup_wall_s = statistics.median(raw)
        return statistics.median(scaled)

    def cli_ops(self, label: str, count=None, traced=False):
        """Closed loop, one client: one fresh CLI process per op."""
        results = []
        start = time.perf_counter()
        kernel = speed.kernel_seconds()
        i = 0
        while (time.perf_counter() - start < self.seconds or i < self.min_ops) if count is None else (i < count):
            slot = i % len(self.ops)
            report = self.log(f"{label}-rep{i:04d}.json")
            argv = self.ops[slot]["argv"] + ["--out", report]
            if traced:
                args = [os.path.join(HERE, "tracer.py"), self.log(f"{label}-trace{i:04d}.json"), "--"] + argv
            else:
                args = ["-m", "jacobisobolev"] + argv
            code, elapsed, rss, cpu = spawn(args, self.log(f"{label}-op{i:04d}.err"))
            after = speed.kernel_seconds()
            results.append({"slot": slot, "exit": code, "seconds": speed.scaled(elapsed, kernel, after),
                            "wall_s": elapsed, "cpu_s": cpu, "kernel_s": [kernel, after], "rss_mb": rss,
                            "report": report, "pass": label})
            kernel = after
            i += 1
        wall = time.perf_counter() - start
        traces = [self.log(f"{label}-trace{j:04d}.json") for j in range(i)] if traced else []
        return results, wall, max(r["rss_mb"] for r in results), traces

    def sweep_ops(self, label: str, count=None, traced=False):
        """Closed loop, one client: one warm worker process runs every op."""
        timings = self.log(f"{label}-timings.json")
        os.makedirs(self.log(label))
        args = [os.path.join(HERE, "sweep.py"), "--manifest", self.log("inputs/manifest.json"),
                "--out-dir", self.log(label), "--timings", timings]
        if count is None:
            args += ["--seconds", str(self.seconds), "--min-count", str(self.min_ops)]
        else:
            args += ["--count", str(count)]
        trace = self.log(f"{label}-trace.json")
        if traced:
            args += ["--trace", trace]
        code, _, rss, _ = spawn(args, self.log(f"{label}-worker.err"), timeout=self.seconds + OP_TIMEOUT_S)
        if code != 0:
            fail(f"sweep worker exited {code}", self.log(f"{label}-worker.err"))
        with open(timings, encoding="utf-8") as fh:
            data = json.load(fh)
        results = [
            {"slot": slot, "exit": exit_code, "seconds": scaled, "wall_s": wall, "cpu_s": cpu, "kernel_s": kernels,
             "rss_mb": rss, "report": report, "pass": label}
            for slot, exit_code, scaled, wall, cpu, kernels, report in data["ops"]
        ]
        return results, data["wall"], rss, [trace] if traced else []

    def execute(self, label: str, count=None, traced=False):
        runner = self.sweep_ops if self.workload == "verify-sweep" else self.cli_ops
        results, wall, rss, traces = runner(label, count, traced)
        self.check(results)
        return results, wall, rss, traces

    def check(self, results) -> None:
        for r in results:
            op = self.ops[r["slot"]]
            digest, problem = checks.check_op(op, r["exit"], r["report"])
            if problem is None:
                expected = self.reference.get(checks.input_key(op))
                if expected is not None and digest != expected:
                    problem = "report differs from the recorded reference"
                elif self.first_digest.setdefault(r["slot"], digest) != digest:
                    problem = "report differs from an earlier run of the same op"
            r["digest"] = digest
            r["problem"] = problem
            if problem is not None:
                self.problems.append(f"op {r['slot']} ({' '.join(op['argv'][:1])}): {problem}")
            self.ops_run.append(r)

    # -- the two modes ---------------------------------------------------------

    def timed(self) -> dict:
        setup_s = self.setup(SETUP_REPEATS)
        results, wall, rss, _ = self.execute("timed")
        prefix = results[: LATENCY_OPS[self.workload]]
        latencies = sorted(r["seconds"] for r in prefix)
        n = len(latencies)
        correct = sum(1 for r in results if r["problem"] is None)
        correct_prefix = sum(1 for r in prefix if r["problem"] is None)
        tail, pct = latencies[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
        kernels = [k for r in results for k in r["kernel_s"]]
        self.notes = {
            "op_latency_tail_percentile": pct,
            "op_latency_samples": n,
            "fail_ratio": (len(results) - correct) / len(results),
            "timed_wall_s": wall,
            # the same figures unscaled, as the wall clock read them
            "wall_setup_s": self.setup_wall_s,
            "wall_ops_per_s": correct_prefix / sum(r["wall_s"] for r in prefix),
            "wall_op_latency_p50_s": statistics.median(r["wall_s"] for r in prefix),
            "kernel_s_median": statistics.median(kernels),
            "kernel_s_range": [min(kernels), max(kernels)],
        }
        return {
            "setup_s": setup_s,
            "ops_per_s": correct_prefix / sum(latencies),
            "op_latency_p50_s": statistics.median(latencies),
            "op_latency_tail_s": tail,
            "peak_rss_mb": rss,
        }

    def traced(self) -> dict:
        self.setup(1)
        count = TRACE_OPS[self.workload]
        plain, _, _, _ = self.execute("untraced", count)
        spans, _, _, traces = self.execute("traced", count, traced=True)
        merged = merge_traces(traces)
        metrics = layer_metrics(merged)
        metrics["trace.overhead_ratio"] = sum(r["seconds"] for r in spans) / sum(r["seconds"] for r in plain)
        self.check_coverage(merged)
        self.check_repeat(metrics)
        self.notes = {"spans": merged["spans"], "rebound": merged["rebound"], "traced_ops": count}
        return metrics

    def check_coverage(self, merged: dict) -> None:
        absent = SPANS_ABSENT[self.workload]
        for name, (calls, _, _) in merged["spans"].items():
            if name in absent and calls:
                self.problems.append(f"span {name} fired {calls} times; predicted absent on {self.workload}")
            if name not in absent and not calls:
                self.problems.append(f"span {name} never fired; predicted present on {self.workload}")
        for name, count in merged["rebound"].items():
            if not count:
                self.problems.append(f"tracer rebound no name for {name}")

    def check_repeat(self, metrics: dict) -> None:
        """Counts, ratios, bit lengths and the order must repeat exactly per seed."""
        exact = {k: v for k, v in metrics.items() if k != "trace.overhead_ratio" and not k.endswith("_s")}
        state = os.path.join(STATE_DIR, "state")
        os.makedirs(state, exist_ok=True)
        path = os.path.join(state, f"trace-{self.workload}-seed{self.seed}-{source_digest('src', HERE)[:16]}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                before = json.load(fh)
            for key in sorted(set(before) | set(exact)):
                if before.get(key) != exact.get(key):
                    self.problems.append(f"{key} was {before.get(key)} on an earlier run of this seed, now {exact.get(key)}")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(exact, fh, indent=1, sort_keys=True)


def merge_traces(paths) -> dict:
    merged = {"spans": {n: [0, 0.0, 0.0] for n in SPAN_NAMES}, "repeats": {}, "values": {}, "rebound": {}}
    for path in paths:
        if not os.path.exists(path):  # its op failed, which the checks report
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for name, stat in data["spans"].items():
            merged["spans"][name] = [a + b for a, b in zip(merged["spans"][name], stat)]
        for name, count in data["repeats"].items():
            merged["repeats"][name] = merged["repeats"].get(name, 0) + count
        for name, value in data["values"].items():
            merged["values"][name] = max(merged["values"].get(name, 0), value)
        for name, count in data["rebound"].items():
            merged["rebound"][name] = min(merged["rebound"].get(name, count), count)
    return merged


def layer_metrics(merged: dict) -> dict:
    spans, repeats = merged["spans"], merged["repeats"]
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, incl_s = spans[name]
        metrics[f"{name}.calls"] = calls
        if name in TIMED_SPANS:
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.incl_s"] = incl_s
    for name in HIT_RATIOS:
        calls = spans[name][0]
        metrics[f"{name}.hit_ratio"] = repeats[name] / calls if calls else 0.0
    for name in DISTINCT_RATIOS:
        calls = spans[name][0]
        metrics[f"{name}.distinct_ratio"] = (calls - repeats[name]) / calls if calls else 0.0
    for name in VALUE_UNITS:
        metrics[name] = merged["values"][name]
    return metrics


# -- records -------------------------------------------------------------------


def source_digest(*roots: str) -> str:
    """sha256 over the Python files under the given directories."""
    h = hashlib.sha256()
    for root in roots:
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, root).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """The checked-out commit, or None outside a git repository or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; print its metrics; write and return its record."""
    work = os.path.join(STATE_DIR, f"work-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    load_before = os.getloadavg()
    run = Run(workload, seed, seconds, work)
    try:
        metrics = run.traced() if trace else run.timed()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units() if trace else END_TO_END
    attempted = len(run.ops_run)
    failed = sum(1 for r in run.ops_run if r["problem"] is not None)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(),
        "source_sha256": source_digest("src"),
        "benchmark_sha256": source_digest(HERE),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": run.notes,
        "ops": [{k: v for k, v in r.items() if k != "report"} for r in run.ops_run],
    }
    results = os.path.join(STATE_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload} seed={seed} trace={int(trace)} attempted={attempted} failed={failed} record={path}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value} {units[name]}")
    if trace:
        print(f"{workload} spans (calls, self_s, incl_s) over {run.notes['traced_ops']} ops:")
        for name, (calls, self_s, incl_s) in run.notes["spans"].items():
            print(f"  {name:34s} {calls:9d} {self_s:10.4f} {incl_s:10.4f}")
    else:
        notes = run.notes
        print(f"{workload} op_latency_tail_s is p{notes['op_latency_tail_percentile']:.1f} "
              f"of {notes['op_latency_samples']} ops; fail_ratio = {notes['fail_ratio']} ({failed}/{attempted})")
        print(f"{workload} times above are at the speed kernel's reference speed; the wall clock read "
              f"setup {notes['wall_setup_s']:.4f} s, {notes['wall_ops_per_s']:.4f} ops/s, "
              f"p50 {notes['wall_op_latency_p50_s']:.4f} s; kernel median {notes['kernel_s_median']:.4f} s "
              f"(reference {speed.REFERENCE_S} s)")
    for problem in run.problems:
        print(f"{workload} FAIL {problem}")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jacobisobolev benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "jacobisobolev")):
        print("perfbench: run from a checkout root that holds src/jacobisobolev", file=sys.stderr)
        return 2
    # warm the bytecode cache so that set-up time is the same on every run
    code, _, _, _ = spawn(["-m", "compileall", "-q", "src", HERE], os.devnull)
    if code != 0:
        print("perfbench: compileall failed", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
