"""uthopf benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --check-counts

NAME is gl-induction, ut-oracle, symbolic-tower, or all to run the three in
turn, each with its own result line.

Run from the root of a checkout; ``src/uthopf`` is imported from there.
Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
one at a time, and its output is checked against the op count and sha256
pinned in perfbench/workloads.json.

--trace 0   untraced passes until the next pass would end after --seconds
            (at least one), with batches of set-up samples between them
            and after them until --seconds have passed;
            prints the medians of wall_s, setup_s and peak_rss_mb.  wall_s
            and setup_s are scaled to a reference host speed measured
            inside each worker (see worker.py, "Host speed"); the raw
            medians are printed beside them.
--trace 1   one untraced and one traced pass; prints the per-layer metrics
            of the traced pass and the tracing overhead.
--check-counts
            two traced passes under different PYTHONHASHSEED values; lists
            every count metric and whether it repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The script exits
non-zero without that line if a pass cannot run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SRC = os.path.join(ROOT, "src")
SETUP_BATCH = 5
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def load_pins():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)["workloads"]


def summarize(values):
    """Minimum, median, quartiles and (q3 - q1) / median of some numbers."""
    values = list(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"min": min(values), "median": median, "q1": q1, "q3": q3,
            "n": len(values), "spread": spread}


def error_rate(attempted, failed):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def judge(pass_out, pin):
    """(attempted, failed, problem) for one pass against its pins.

    A pass whose op count or digest differs from the pins counts every
    operation as failed.
    """
    attempted = max(pass_out["ops"], pin["ops"])
    if pass_out["ops"] != pin["ops"]:
        return attempted, attempted, "op count %d, pinned %d" % (pass_out["ops"], pin["ops"])
    if pass_out["sha256"] != pin["sha256"]:
        return attempted, attempted, "sha256 %s, pinned %s" % (pass_out["sha256"], pin["sha256"])
    return attempted, pass_out["failed"], None


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.pin = load_pins()[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, args, hashseed):
        """Run the worker once; returns (its JSON output, start wall time)."""
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hashseed % 4294967296)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before a pass could start")
        started = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER] + args, cwd=ROOT, env=env,
                stdout=subprocess.PIPE, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("pass %s did not end in time" % " ".join(args))
        if proc.returncode != 0:
            raise BenchError("worker %s exited with %d" % (" ".join(args), proc.returncode))
        out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        expected = os.path.join(SRC, "uthopf", "__init__.py")
        if os.path.realpath(out["uthopf_file"]) != os.path.realpath(expected):
            raise BenchError("imported uthopf from %s, not %s" % (out["uthopf_file"], expected))
        return out, started

    def setup_sample(self):
        """(set-up seconds at reference speed, raw set-up seconds)."""
        out, started = self.spawn(["--setup-only"], self.seed)
        raw = out["setup_done"] - started
        return raw * out["speed"], raw

    def run_pass(self, traced=False, hashseed=None):
        args = ["--workload", self.workload, "--seed", str(self.seed)]
        if traced:
            args.append("--trace")
        out, _ = self.spawn(args, self.seed if hashseed is None else hashseed)
        attempted, failed, problem = judge(out, self.pin)
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)
            print("MISMATCH %s: %s" % (self.workload, problem), file=sys.stderr)
        return out


def timed_run(runner, seconds):
    """Untraced passes until the next one would end after seconds.

    At least one pass runs.  Set-up samples are taken in batches between
    the passes, so that they spread over the run like the passes do, and
    fill what is left of the seconds after the last pass.
    """
    runner.setup_sample()  # warm-up: compiles bytecode, discarded
    setups, passes = [], []
    start = time.monotonic()
    while True:
        setups += [runner.setup_sample() for _ in range(SETUP_BATCH)]
        t0 = time.monotonic()
        passes.append(runner.run_pass())
        took = time.monotonic() - t0
        now = time.monotonic()
        if now - start + took > seconds or now + took > runner.deadline:
            break
    setups += [runner.setup_sample() for _ in range(SETUP_BATCH)]
    while time.monotonic() - start < seconds:
        setups.append(runner.setup_sample())
    return {
        "wall_s": (summarize(p["wall_s"] * p["speed"] for p in passes), "s",
                   statistics.median(p["wall_s"] for p in passes)),
        "setup_s": (summarize(s for s, _ in setups), "s",
                    statistics.median(raw for _, raw in setups)),
        "peak_rss_mb": (summarize(p["peak_rss_kb"] / 1024 for p in passes), "MB", None),
    }


def traced_run(runner):
    runner.setup_sample()  # warm-up: compiles bytecode, discarded
    plain = runner.run_pass()
    traced = runner.run_pass(traced=True, hashseed=runner.seed + 1)
    metrics = dict(traced["metrics"])
    metrics["trace.wall_s"] = traced["wall_s"]
    # Both passes at reference speed, so host drift between them cancels.
    metrics["trace.overhead_s"] = (traced["wall_s"] * traced["speed"]
                                   - plain["wall_s"] * plain["speed"])
    return metrics


def count_check(runner):
    """Traced passes under two hash seeds; which counts repeat exactly."""
    runner.setup_sample()  # warm-up: compiles bytecode, discarded
    a, b = (runner.run_pass(traced=True, hashseed=runner.seed + k)["metrics"] for k in (0, 1))
    return {name: {"values": [a[name], b[name]], "repeats": a[name] == b[name]}
            for name, unit, _ in PER_LAYER if unit != "s" and name in a}


def run_workload(workload, args):
    """One invocation's work for one workload; prints its lines, returns the exit code."""
    runner = Runner(workload, args.seed, time.monotonic() + TIME_LIMIT_S)
    try:
        if args.check_counts:
            rows = count_check(runner)
            for name, row in rows.items():
                print("%s %-40s %-24s %s" % (workload, name, row["values"],
                                             "repeats" if row["repeats"] else "DIFFERS"))
            print(json.dumps({"workload": workload, "counts": rows}, sort_keys=True))
            return 0
        metrics = {}
        if args.trace:
            raw = traced_run(runner)
            for name, unit, _ in PER_LAYER:
                print("%s %s: %.6g %s" % (workload, name, raw[name], unit))
                metrics[name] = {"value": raw[name], "unit": unit}
        else:
            for name, (s, unit, raw) in timed_run(runner, args.seconds).items():
                print("%s %s: %.6g %s (median of %d; min %.6g, q1 %.6g, q3 %.6g, spread %.4f%s)"
                      % (workload, name, s["median"], unit, s["n"], s["min"], s["q1"],
                         s["q3"], s["spread"], "" if raw is None else "; raw median %.6g" % raw))
                metrics[name] = {"value": s["median"], "unit": unit}
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    rate = error_rate(runner.attempted, runner.failed)
    print("%s error_rate: %.6g (%d failed of %d)%s" % (
        workload, rate, runner.failed, runner.attempted,
        "" if not runner.problems else "; " + "; ".join(runner.problems)))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def main(argv=None):
    workloads = list(load_pins())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "uthopf", "__init__.py")):
        print("no uthopf sources under %s" % SRC, file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    return max(run_workload(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
