"""Validation that must survive python -O, which strips assert statements.

The tests named below check explicit exceptions and exit codes; this runs
them again in a fresh interpreter started with -O.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NODE_IDS = [
    "tests/test_group_engine.py::TestFactorization::test_order_mismatch_raises",
    "tests/test_group_engine.py::TestFactorization::test_overlap_raises",
    "tests/test_group_engine.py::TestFactorization::"
    "test_complement_that_is_not_a_levi_raises",
    "tests/test_cli.py::TestErrors::test_malformed_operand_exits_two",
    "tests/test_cli.py::TestErrors::test_bad_sampling_flags_exit_two",
    "tests/test_combinatorics.py::TestSetComposition::test_rejects_repeated_labels",
    "tests/test_combinatorics.py::TestSetComposition::"
    "test_concat_requires_disjoint_grounds",
    "tests/test_combinatorics.py::TestPartialOrder::test_rejects_cycles",
    "tests/test_combinatorics.py::TestPartialOrder::"
    "test_rejects_non_transitive_pairs",
    "tests/test_combinatorics.py::TestNuio::test_rejects_non_closed_order",
    "tests/test_combinatorics.py::TestNuio::test_rejects_backwards_pair",
    "tests/test_combinatorics.py::TestNuio::test_from_dyck_rejects_bad_words",
    "tests/test_class_functions.py::TestTensorFunction::"
    "test_inexact_coefficient_raises",
]


def test_validation_survives_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *NODE_IDS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "21 passed" in proc.stdout, proc.stdout[-3000:]
    assert "python -O" in proc.stdout, "the subprocess did not run optimized"
