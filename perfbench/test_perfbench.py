"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import functools
import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_charge_self_time():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.now += 1

    leaf = tr.span("leaf", leaf, calls="leaf_calls")

    def outer():
        clock.now += 2
        leaf()
        clock.now += 3
        leaf()

    outer = tr.span("outer", outer)
    outer()
    assert tr.seconds == {"leaf": 2.0, "outer": 5.0}
    assert tr.counts == {"leaf_calls": 2}
    assert tr.other(7.0) == 0.0


def test_recursive_span_with_nested_other_span():
    # Shaped like _antipode_basis: recursion plus a product span per level.
    clock = FakeClock()
    tr = Tracer(clock)

    def product():
        clock.now += 2

    product = tr.span("product", product)

    def antipode(n):
        clock.now += 1
        if n:
            antipode(n - 1)
            product()

    antipode = tr.span("antipode", antipode)
    antipode(3)
    assert tr.seconds == {"antipode": 4.0, "product": 6.0}
    clock.now += 5  # outside every span
    assert tr.other(clock.now) == 5.0


def test_lru_cache_hit_is_a_cheap_span():
    clock = FakeClock()
    tr = Tracer(clock)

    @functools.lru_cache(maxsize=None)
    def table(n):
        clock.now += 10
        return n

    wrapped = tr.span("table", table, calls="table_calls")
    assert wrapped(3) == 3 and wrapped(3) == 3
    assert table.cache_info().hits == 1
    assert tr.seconds == {"table": 10.0}
    assert tr.counts == {"table_calls": 2}


def test_span_unwinds_on_exception():
    clock = FakeClock()
    tr = Tracer(clock)

    def bad():
        clock.now += 1
        raise KeyError("x")

    bad = tr.span("bad", bad)

    def outer():
        clock.now += 1
        with pytest.raises(KeyError):
            bad()

    tr.span("outer", outer)()
    assert tr.seconds == {"bad": 1.0, "outer": 1.0}
    assert tr.other(2.0) == 0.0


def test_counter_counts_without_span():
    tr = Tracer(FakeClock())
    add = tr.counter("ops", lambda a, b: a + b)
    assert add(1, 2) == 3 and add(2, 2) == 4
    assert tr.counts == {"ops": 2} and tr.seconds == {}


def test_summary_median_and_quartiles():
    s = run.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["min"], s["median"], s["q1"], s["q3"], s["n"]) == (1.0, 3.0, 1.5, 4.5, 5)
    assert s["spread"] == pytest.approx(1.0)
    one = run.summarize([2.5])
    assert (one["median"], one["q1"], one["q3"], one["spread"]) == (2.5, 2.5, 2.5, 0.0)


def test_error_rate():
    assert run.error_rate(40, 0) == 0.0
    assert run.error_rate(261, 261) == 1.0
    assert run.error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        run.error_rate(0, 0)


def test_judge_counts_a_mismatched_pass_as_all_failed():
    pin = {"ops": 40, "sha256": "aa"}
    assert run.judge({"ops": 40, "failed": 0, "sha256": "aa"}, pin) == (40, 0, None)
    assert run.judge({"ops": 40, "failed": 3, "sha256": "aa"}, pin) == (40, 3, None)
    attempted, failed, problem = run.judge({"ops": 40, "failed": 0, "sha256": "bb"}, pin)
    assert (attempted, failed) == (40, 40) and "sha256" in problem
    attempted, failed, problem = run.judge({"ops": 0, "failed": 0, "sha256": "aa"}, pin)
    assert (attempted, failed) == (40, 40) and "op count" in problem


def test_speed_of_is_the_mean_relative_speed():
    import worker

    ref = worker.CAL_REF_S
    assert worker.speed_of([ref, ref]) == pytest.approx(1.0)
    # Half the samples at half speed: the pass ran at 3/4 of reference speed.
    assert worker.speed_of([ref, 2 * ref]) == pytest.approx(0.75)


def test_sampler_clock_leaves_out_the_handler():
    import worker

    sampler = worker.SpeedSampler(interval=0.01)
    with sampler:
        w0, t0 = sampler.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        work, total, spent = sampler.clock() - w0, time.perf_counter() - t0, sampler.spent
    assert sampler.loop_times and spent > 0
    assert work == pytest.approx(total - spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.speed() > 0


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == PER_LAYER
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert {w["name"] for w in bench["workloads"]} <= set(run.load_pins())


INSTALL_PROBE = r"""
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import uthopf
from uthopf import class_functions, cli, combinatorics, gl_bridge, group_engine, hopf_core
from tracer import Tracer, install
mods = dict(uthopf=uthopf, combinatorics=combinatorics, group_engine=group_engine,
            class_functions=class_functions, hopf_core=hopf_core, gl_bridge=gl_bridge, cli=cli)
tr = Tracer()
install(tr, mods)
rebound = all(
    getattr(m, name) is getattr(group_engine, name)
    for m in (uthopf, hopf_core, gl_bridge) for name in ("pattern_group", "ut_table")
    if hasattr(m, name)
) and gl_bridge.deflate_cf is class_functions.deflate_cf is hopf_core.deflate_cf
x = uthopf.ScfElement.basis(uthopf.Nuio(2))
x.coproduct(); x.antipode(); uthopf.ut_table(2, 2).classes; uthopf.ut_table(2, 2).classes
print(json.dumps({"rebound": rebound, "wrapped": hasattr(group_engine.gl_table.__wrapped__, "cache_info"),
                  "counts": tr.counts}))
"""


def test_install_rebinds_every_copy_and_counts():
    root = os.path.dirname(HERE)
    out = subprocess.run(
        [sys.executable, "-c", INSTALL_PROBE, HERE, os.path.join(root, "src")],
        check=True, stdout=subprocess.PIPE, timeout=120,
    ).stdout.decode()
    got = json.loads(out.strip().splitlines()[-1])
    assert got["rebound"] and got["wrapped"]
    counts = got["counts"]
    assert counts["combinatorics.nuio_built"] > 0
    assert counts["hopf_core.laurent_ops"] > 0
    assert counts["group_engine.tables_built"] == 1
    assert counts["group_engine.table_elements"] == 2
    assert counts["group_engine.conjugacy_tables"] == 1
