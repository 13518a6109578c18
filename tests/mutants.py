"""Mutation checks: small faults that the named tests must catch.

Each row of MUTANTS is (file, old text, new text, node ids): the file
relative to the repository root, a text that occurs in it exactly once, the
text that replaces it, and the tests that must fail once it is replaced.
test_mutants.py checks, in every test run, that each old text still occurs
exactly once and that each node id still names a test, so a refactor
updates the rows rather than let them go stale.  The full check is slower
and runs on its own:

    python tests/mutants.py

It copies src/, tests/ and pyproject.toml into a fresh temporary directory
for each mutant, applies the mutant there and runs only its node ids, one
pytest process at a time; the node ids are first run once on an unchanged
copy, and must pass there.  It prints one line per mutant and exits 1 if
any mutant survives.  Importing this module runs nothing.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

KERNEL = "src/uthopf/group_engine.py"
TUPLE_PRODUCT = "tests/test_group_engine.py::TestKernel::test_kernel_against_the_tuple_product"
WIDTH_BOUNDARY = ("tests/test_group_engine.py::TestKernel::"
                  "test_width_boundaries_against_the_field_loop[3-3-4]")

MUTANTS = [
    # the byte table reducing each byte as one number, not as two nibbles;
    # the pattern groups built at collection are then not closed
    (KERNEL,
     "table = bytes((b >> 4) % p << 4 | (b & 15) % p for b in range(256))",
     "table = bytes(b % p for b in range(256))",
     [TUPLE_PRODUCT + "[3]", WIDTH_BOUNDARY]),
    # fields one bit wider than needed at F_3, n <= 3
    (KERNEL,
     "max(4, (n * (p - 1) ** 2).bit_length())",
     "max(5, (n * (p - 1) ** 2).bit_length())",
     [WIDTH_BOUNDARY]),
    # 5-bit fields reduced through the 4-bit byte table
    (KERNEL, "if w == 4:", "if w <= 5:", [TUPLE_PRODUCT + "[3]"]),
    # one 64-bit word per code in a batch, also for wider codes
    (KERNEL, "slot = 8 * max(1, -(-n * n * w // 64))", "slot = 8",
     [TUPLE_PRODUCT + "[3]"]),
    # the rows selected at p = 2 added with carries, not XORed
    (KERNEL,
     "out ^= (a >> ka & column) * (b >> kb & row)",
     "out += (a >> ka & column) * (b >> kb & row)",
     [TUPLE_PRODUCT + "[2]"]),
]


def copy_tree(dest):
    """src/, tests/ and pyproject.toml of the repository, copied into dest."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(root, node_ids):
    """The exit code of pytest over node_ids in the copy at root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *node_ids],
        cwd=root, env=env, capture_output=True, text=True)
    return proc.returncode


def main():
    node_ids = sorted({i for *_, ids in MUTANTS for i in ids})
    with tempfile.TemporaryDirectory() as root:
        copy_tree(root)
        if run_tests(root, node_ids):
            print("the node ids fail on an unchanged copy")
            return 1
    survivors = 0
    for path, old, new, ids in MUTANTS:
        with tempfile.TemporaryDirectory() as root:
            copy_tree(root)
            target = os.path.join(root, path)
            with open(target) as fh:
                text = fh.read()
            if text.count(old) != 1:
                print("STALE    %s: %r" % (path, old))
                survivors += 1
                continue
            with open(target, "w") as fh:
                fh.write(text.replace(old, new))
            killed = run_tests(root, ids) != 0
        survivors += not killed
        print("%s %s: %r -> %r" % ("killed  " if killed else "SURVIVED", path, old, new))
    print("%d of %d mutants killed" % (len(MUTANTS) - survivors, len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
