"""One pass of one benchmark workload, in the interpreter that runs it.

run.py starts this script in a fresh interpreter for every pass:

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload gl-induction [--seed N] [--trace]

uthopf is imported from the ``src`` directory beside ``perfbench`` and the
CLI parser built before anything else, so the wall-clock time printed as
``setup_done`` marks the end of set-up.  The last line of standard output
is one JSON object describing the pass.

Host speed.  On a shared host the same pure-Python code runs up to ~45%
slower for stretches of seconds to a minute.  While a pass runs, a SIGALRM
handler times a fixed calibration loop every CAL_INTERVAL_S seconds of
wall time, between the workload's bytecodes in the same thread; the
handler's own time is left out of ``wall_s``.  ``speed`` is the mean of
CAL_REF_S / (loop time) over the pass: the pass's wall time times
``speed`` is what it would take on a host where the loop takes CAL_REF_S.
A set-up sample times the loop CAL_SETUP_LOOPS times right after set-up.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import uthopf  # noqa: E402
from uthopf import cli  # noqa: E402

cli.build_parser()
SETUP_DONE = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

with open(os.path.join(HERE, "workloads.json")) as fh:
    WORKLOADS = json.load(fh)["workloads"]
# symbolic-tower: coproducts up to degree 7, antipodes up to degree 6 and
# ordered products of total degree up to 7.
COPRODUCT_MAX, ANTIPODE_MAX, PRODUCT_MAX = 7, 6, 7
# Calibration: iterations of the loop, seconds between samples during a
# pass, loops timed after set-up, and the reference loop time (about its
# time on a 2-vCPU Xeon VM under Python 3.11 while the host is quiet).
CAL_ITERATIONS = 2000
CAL_INTERVAL_S = 0.1
CAL_SETUP_LOOPS = 10
CAL_REF_S = 1.1e-3


def _calibration_mix(i, key):
    return (i * key[1]) ^ key[0]


def calibration_loop(n=CAL_ITERATIONS):
    """A fixed mix of interpreter work: calls, tuples, dicts, ints, Fractions.

    It uses nothing from uthopf, so a change to uthopf cannot change it.
    """
    seen = {}
    acc = 0
    for i in range(n):
        key = (i & 31, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += _calibration_mix(i, key)
    q = Fraction(0)
    for i in range(1, n // 16):
        q += Fraction(i % 13 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return acc, q


def time_calibration():
    """Seconds that one calibration_loop takes now."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def speed_of(loop_times):
    """Mean of CAL_REF_S / t over the loop times t (the host's relative speed)."""
    return statistics.fmean(CAL_REF_S / t for t in loop_times)


class SpeedSampler:
    """Times calibration_loop from a SIGALRM handler while a pass runs.

    ``clock()`` is time.perf_counter() less the time spent in the handler,
    so spans measured with it hold only the workload's own time.
    """

    def __init__(self, interval=CAL_INTERVAL_S):
        self.interval = interval
        self.loop_times = []
        self.spent = 0.0
        self._old = None

    def clock(self):
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        dt = time_calibration()
        self.loop_times.append(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def speed(self):
        if not self.loop_times:  # a pass shorter than one interval
            self._tick(None, None)
        return speed_of(self.loop_times)


def run_verify(argv, clock):
    """Run one CLI verify suite; returns (ops, failed, output text, seconds)."""
    buf = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 0, 0, buf.getvalue(), clock() - t0
    wall = clock() - t0
    out = buf.getvalue()
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError, TypeError):
        print("unparseable verify output", file=sys.stderr)
        return 0, 0, out, wall
    failed = sum(1 for r in reports if r.get("status") != "ok")
    if rc != 0 and not failed:
        failed = len(reports)
    return len(reports), failed, out, wall


def run_symbolic(seed, clock):
    """The symbolic sweep; returns (ops, failed, canonical text, seconds).

    The seconds cover the enumeration and the operations, not the hashing
    of their results.

    Each result is hashed as canonical JSON together with its operation
    and operands; the text is the sorted list of those hashes, so its
    digest does not depend on the seed, which only permutes the operands
    within each part.
    """
    from uthopf import ScfElement, natural_unit_interval_orders

    t0 = clock()
    rng = random.Random(seed)
    top = max(COPRODUCT_MAX, ANTIPODE_MAX, PRODUCT_MAX)
    by_degree = {n: natural_unit_interval_orders(n) for n in range(top + 1)}
    coproducts = [pi for n in range(COPRODUCT_MAX + 1) for pi in by_degree[n]]
    antipodes = [pi for n in range(ANTIPODE_MAX + 1) for pi in by_degree[n]]
    products = [
        (a, b)
        for i in range(PRODUCT_MAX + 1)
        for j in range(PRODUCT_MAX + 1 - i)
        for a in by_degree[i]
        for b in by_degree[j]
    ]
    for ops in (coproducts, antipodes, products):
        rng.shuffle(ops)
    parts = [
        ("coproduct", [(pi,) for pi in coproducts],
         lambda pi: ScfElement.basis(pi).coproduct()),
        ("antipode", [(pi,) for pi in antipodes],
         lambda pi: ScfElement.basis(pi).antipode()),
        ("product-dagger", products,
         lambda a, b: (ScfElement.basis(a) * ScfElement.basis(b)).dagger()),
    ]
    digests = []
    failed = 0
    wall = clock() - t0
    for name, operands, op in parts:
        for args in operands:
            t0 = clock()
            try:
                result = op(*args).to_dict()
            except Exception:
                if not failed:
                    traceback.print_exc()
                failed += 1
                continue
            finally:
                wall += clock() - t0
            record = json.dumps([name, [pi.to_dict() for pi in args], result],
                                sort_keys=True, separators=(",", ":"))
            digests.append(hashlib.sha256(record.encode()).hexdigest())
    return len(digests) + failed, failed, "\n".join(sorted(digests)), wall


def uthopf_modules():
    from uthopf import class_functions, combinatorics, gl_bridge, \
        group_engine, hopf_core

    return {
        "uthopf": uthopf,
        "combinatorics": combinatorics,
        "group_engine": group_engine,
        "class_functions": class_functions,
        "hopf_core": hopf_core,
        "gl_bridge": gl_bridge,
        "cli": cli,
    }


def run_pass(workload, seed, traced):
    sampler = SpeedSampler()
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer(sampler.clock)
        install(tracer, uthopf_modules())
    argv = WORKLOADS[workload].get("argv")
    with sampler:
        if argv:
            ops, failed, text, wall = run_verify(argv, sampler.clock)
        else:
            ops, failed, text, wall = run_symbolic(seed, sampler.clock)
    data = text.encode()
    out = {
        "wall_s": wall,
        "speed": sampler.speed(),
        "ops": ops,
        "failed": failed,
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    if tracer is not None:
        metrics = dict(tracer.seconds)
        metrics.update(tracer.counts)
        metrics["cli.output_bytes"] = len(data) if argv else 0
        metrics["trace.other_s"] = tracer.other(wall)
        out["metrics"] = metrics
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out = {"setup_done": SETUP_DONE, "uthopf_file": uthopf.__file__}
    if args.setup_only:
        out["speed"] = speed_of([time_calibration() for _ in range(CAL_SETUP_LOOPS)])
    else:
        if args.workload is None:
            parser.error("--workload is required")
        out.update(run_pass(args.workload, args.seed, args.trace))
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
