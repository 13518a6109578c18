"""The rows of mutants.py stay current: each old text occurs exactly once in
its file, and each node id names a test.  Whether each mutant is killed is
checked by running mutants.py itself."""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("path, old", [(path, old) for path, old, *_ in MUTANTS])
def test_old_text_occurs_once(path, old):
    with open(os.path.join(ROOT, path)) as fh:
        count = fh.read().count(old)
    if count != 1:
        raise AssertionError("%r occurs %d times in %s" % (old, count, path))


def test_node_ids_exist():
    node_ids = sorted({i for *_, ids in MUTANTS for i in ids})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stdout[-3000:] + proc.stderr[-3000:])
    collected = set(proc.stdout.split())
    missing = [i for i in node_ids if i not in collected]
    if missing:
        raise AssertionError("not collected: %s" % missing)
