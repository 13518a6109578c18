"""Command line behaviour: output shapes, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import operator
import os
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uthopf import class_functions, cli, gl_bridge, hopf_core
from uthopf.class_functions import ClassFunction
from uthopf.combinatorics import natural_unit_interval_orders
from uthopf.group_engine import gl_table, ut_table
from uthopf.hopf_core import GradedClassFunction


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

POSET_A2 = '{"n": 2, "strict": []}'
POSET_PT = '{"n": 1, "strict": []}'
CHAIN3 = '{"n": 3, "strict": [[1, 2], [1, 3], [2, 3]]}'


def run_fresh(argv, **env):
    """The command run in a fresh interpreter (under -O when this one is),
    with the given settings, its caches empty."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, *argv],
        env=env, capture_output=True, text=True, timeout=60)


# Counts the matrices that FqMatrix._from_code makes during one command, and
# how many of them are generators handed to a GroupTable.
FROM_CODE_SPY = """
import contextlib, io, sys
from uthopf import cli, group_engine
made, gens = [], []
from_code = group_engine.FqMatrix._from_code.__func__
init = group_engine.GroupTable.__init__

def spy(cls, p, ground, code):
    made.append(from_code(cls, p, ground, code))
    return made[-1]

def table(self, elements, generators, name=""):
    generators = list(generators)
    gens.extend(generators)
    init(self, elements, generators, name)

group_engine.FqMatrix._from_code = classmethod(spy)
group_engine.GroupTable.__init__ = table
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
ids = {id(g) for g in gens}
print(code, len(made), sum(id(m) in ids for m in made))
"""


class TestNuioList:
    def test_json_count_and_shape(self, capsys):
        code, out, _ = run(capsys, "nuio", "list", "--n", "4", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert len(rows) == 14
        assert all(set(r) == {"n", "strict"} for r in rows)

    def test_dyck_column(self, capsys):
        code, out, _ = run(capsys, "nuio", "list", "--n", "3", "--dyck", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert {r["dyck"] for r in rows} == {
            "ESESES", "ESEESS", "EESESS", "EESSES", "EEESSS",
        }

    def test_text_format_is_the_default(self, capsys):
        code, out, _ = run(capsys, "nuio", "list", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["n=2 strict=", "n=2 strict=1<2"]

    def test_dyck_column_in_text(self, capsys):
        code, out, _ = run(capsys, "nuio", "list", "--n", "3", "--dyck")
        assert code == 0
        assert out.splitlines() == [
            "n=3 strict= dyck=EEESSS",
            "n=3 strict=1<2;1<3 dyck=ESEESS",
            "n=3 strict=1<2;1<3;2<3 dyck=ESESES",
            "n=3 strict=1<3 dyck=EESESS",
            "n=3 strict=1<3;2<3 dyck=EESSES",
        ]


class TestScf:
    def test_product(self, capsys):
        code, out, _ = run(
            capsys, "scf", "product", "--poset", POSET_PT, "--poset", POSET_PT,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "terms": [{"coeff": {"0": "1/1"}, "n": 2, "strict": [[1, 2]]}]
        }

    def test_coproduct_counts_subsets(self, capsys):
        code, out, _ = run(
            capsys, "scf", "coproduct",
            "--poset", '{"n": 4, "strict": [[1, 4], [2, 4]]}',
            "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert len(data["terms"]) == 11

    def test_antipode_pin(self, capsys):
        code, out, _ = run(capsys, "scf", "antipode", "--poset", POSET_A2, "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "terms": [
                {"coeff": {"0": "-1/1"}, "n": 2, "strict": []},
                {"coeff": {"0": "1/1", "1": "1/1"}, "n": 2, "strict": [[1, 2]]},
            ]
        }

    def test_file_operand(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(POSET_A2)
        code, out, _ = run(capsys, "scf", "dagger", "--input", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"][0]["n"] == 2

    def test_combination_operand(self, capsys):
        combo = json.dumps(
            {
                "terms": [
                    {"coeff": {"0": "1/1"}, "n": 1, "strict": []},
                    {"coeff": {"1": "2/1"}, "n": 2, "strict": [[1, 2]]},
                ]
            }
        )
        code, out, _ = run(capsys, "scf", "dagger", "--poset", combo, "--format", "json")
        assert code == 0
        assert len(json.loads(out)["terms"]) == 2

    def test_fraction_string_coefficients_are_read_exactly(self, capsys):
        half = json.dumps({"terms": [
            {"n": 1, "strict": [], "coeff": {"0": "1/2"}},
            {"n": 2, "strict": [[1, 2]], "coeff": {"1": "-3/1"}},
        ]})
        code, out, _ = run(capsys, "scf", "product", "--poset", half, "--poset", POSET_PT)
        assert code == 0
        assert out == (
            "ScfElement((1/2) * Nuio(2, [(1, 2)]) + "
            "(-3*t) * Nuio(3, [(1, 2), (1, 3), (2, 3)]))\n"
        )
        code, out, _ = run(capsys, "scf", "antipode", "--poset", half, "--format", "json")
        assert code == 0
        assert out == (
            '{"terms": [{"coeff": {"0": "-1/2"}, "n": 1, "strict": []}, '
            '{"coeff": {"1": "-3/1"}, "n": 2, "strict": [[1, 2]]}]}\n'
        )

    @pytest.mark.parametrize("verb,fmt,digest", [
        ("coproduct", "text",
         "24766e9a03df80798e6d16a417e2d4f1b2249246ae993c81961bae6a974b4354"),
        ("coproduct", "json",
         "fe001b8cb8fe2d005b19f1f93bb0eacbe7e68f214e94e0c0dc8bf8acd6152b75"),
        ("antipode", "text",
         "c8c51e323b53c78a9b56ee61e73021c4200aad06814fa8a372c82246dc42b627"),
        ("antipode", "json",
         "9d9978e1067bdb1854648430eb30733fa2bac30e630a475dc99cfd96560bc8f1"),
    ])
    def test_degree_five_output_is_pinned(self, capsys, verb, fmt, digest):
        # the stdout of one call per order of degree 5, in enumeration order
        out = []
        for pi in natural_unit_interval_orders(5):
            code, text, _ = run(capsys, "scf", verb, "--poset",
                                json.dumps(pi.to_dict()), "--format", fmt)
            assert code == 0
            out.append(text)
        assert len(out) == 42
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest

    def test_mixed_operand_flags_keep_their_order(self, capsys, tmp_path):
        # the product does not commute, so the order of the operands shows
        path = tmp_path / "point.json"
        path.write_text(POSET_PT)
        _, file_first, _ = run(capsys, "scf", "product", "--input", str(path),
                               "--poset", POSET_A2)
        _, poset_first, _ = run(capsys, "scf", "product", "--poset", POSET_A2,
                                "--input", str(path))
        assert file_first == run(capsys, "scf", "product", "--poset", POSET_PT,
                                 "--poset", POSET_A2)[1]
        assert poset_first == run(capsys, "scf", "product", "--poset", POSET_A2,
                                  "--poset", POSET_PT)[1]
        assert file_first != poset_first

    @pytest.mark.parametrize("verb, text", [
        ("coproduct", "TensorScf(0)"), ("antipode", "ScfElement(0)"),
        ("dagger", "ScfElement(0)"),
    ])
    def test_empty_combination_prints_zero(self, capsys, verb, text):
        code, out, _ = run(capsys, "scf", verb, "--poset", '{"terms": []}')
        assert (code, out) == (0, text + "\n")
        code, out, _ = run(capsys, "scf", verb, "--poset", '{"terms": []}',
                           "--format", "json")
        assert (code, out) == (0, '{"terms": []}\n')

    def test_repeated_terms_of_one_order_add(self, capsys):
        operand = json.dumps({"terms": [{"n": 1, "coeff": {"0": "1/1"}},
                                        {"n": 1, "coeff": {"0": "2/1"}}]})
        code, out, _ = run(capsys, "scf", "dagger", "--poset", operand)
        assert (code, out) == (0, "ScfElement((3) * Nuio(1, []))\n")

    def test_deterministic_output(self, capsys):
        args = ("scf", "coproduct", "--poset", '{"n": 3, "strict": [[1, 3]]}')
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestRealizations:
    def test_ut_specialize_shape(self, capsys):
        code, out, _ = run(
            capsys, "ut", "specialize", "--q", "2", "--poset", POSET_A2,
            "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["q"] == 2
        (component,) = data["components"]
        assert component["n"] == 2
        values = {row["class_rep"]: row["value"] for row in component["values"]}
        assert values == {"1001": "1/1", "1101": "0/1"}

    def test_gl_induce_shape(self, capsys):
        code, out, _ = run(
            capsys, "gl", "induce", "--q", "2",
            "--poset", '{"n": 2, "strict": [[1, 2]]}',
            "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        (component,) = data["components"]
        assert component["group"] == "GL2q2"
        values = {row["class_rep"]: row["value"] for row in component["values"]}
        assert values == {"0110": "1/1", "0111": "0/1", "1001": "3/1"}


class TestVerify:
    def test_noncocommutativity(self, capsys):
        code, out, _ = run(capsys, "verify", "noncocommutativity", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["failures"] == 0
        assert data["total"] == 2

    def test_monoid_axioms_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "monoid-axioms", "--n", "2", "--q", "2",
            "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["failures"] == 0
        assert data["total"] > 0

    @pytest.mark.parametrize("argv,digest", [
        # the order of the squares and of the seeded draws
        pytest.param(
            ("monoid-axioms", "--n", "2", "--q", "3", "--samples", "40",
             "--size", "3", "--seed", "5", "--format", "json"),
            "cdd062107d052dcf1a0843dd54c12bb028a5dd05e2c26d88d70561eeed04a3a4",
            id="monoid-axioms-json"),
        pytest.param(
            ("monoid-axioms", "--n", "2", "--q", "3", "--samples", "40",
             "--size", "3", "--seed", "5"),
            "14751b7bab5c6a345f91df2bf4cadd136f0c6370a451e970f28feb97d09e7ef8",
            id="monoid-axioms-text"),
        # every square on up to three labels, relabelled through the class map
        pytest.param(
            ("monoid-axioms", "--n", "3", "--q", "2"),
            "ad81bf4ce6e4ba036369269251ea88f9bbc75d1c93d5221d6f2c4125ad3412df",
            id="monoid-axioms-n3-q2"),
        pytest.param(
            ("monoid-axioms", "--n", "3", "--q", "3"),
            "6fe3ba889a54312597eaa5d1efaa2cb36717dcc7d02a65bd1421e61dcca5a237",
            id="monoid-axioms-n3-q3"),
        pytest.param(
            ("monoid-axioms", "--n", "3", "--q", "2", "--samples", "200",
             "--seed", "5"),
            "8ec40854633e761a498e01b8ecaf837813d03d3b890382fad89f54b758d6c410",
            id="monoid-axioms-n3-q2-sampled"),
        pytest.param(
            ("oracle", "--n", "3", "--q", "2", "--format", "json"),
            "9f4203e5e4b64fd0abbfd76a68eb88e5c7331395cf77bd95121ddf57d65de852",
            id="oracle-json"),
        pytest.param(
            ("oracle", "--n", "3", "--q", "2"),
            "57f85674ba80b1bcfa95e4c1c4746846ead4ab8fc17f253a744abbd89d6c1517",
            id="oracle-text"),
        # several splits with different radical orders meet in one bidegree
        pytest.param(
            ("oracle", "--n", "4", "--q", "2", "--format", "json"),
            "1a556d8c9198bbe178047f027244babbc3d6d8ae2e0d850f2b20c3391e95da41",
            id="oracle-n4-q2-json"),
        pytest.param(
            ("oracle", "--n", "3", "--q", "3", "--format", "json"),
            "11dca2c1a16439c6015acb302f9454e3d3d4f2701d0314b6da87f5d2c4ba3f02",
            id="oracle-n3-q3-json"),
        # odd primes at n = 4: values that are not integral, and 5- and
        # 7-bit kernel fields under the blocks read off the codes
        pytest.param(
            ("oracle", "--n", "4", "--q", "3", "--format", "json"),
            "f90dfdbd0552b3a8994def7023fa8bacc97f02f69ad27e5fbade5ef194535486",
            id="oracle-n4-q3-json"),
        pytest.param(
            ("oracle", "--n", "4", "--q", "5", "--format", "json"),
            "8bae00dfc29f938c46e2d4d866aac318194b9f378af215eeecc0d27efa45433f",
            id="oracle-n4-q5-json"),
        pytest.param(
            ("induction-hom", "--n", "3", "--q", "2", "--format", "json"),
            "878c5a6b0cf6f4a7e154fc6823795dd479f8367e4cafacebb4d90b15dbb89113",
            id="induction-hom-n3-q2-json"),
        pytest.param(
            ("induction-hom", "--n", "2", "--q", "3", "--format", "json"),
            "7a90c413846bf0fef504d7189a99080b69a35f8376e651d9a76b3a7c67cd7092",
            id="induction-hom-json"),
        pytest.param(
            ("induction-hom", "--n", "2", "--q", "3"),
            "52632f18bc8c2c128297f63edf855c66d9a25b01442d1e298ded4a26dd563dab",
            id="induction-hom-text"),
        pytest.param(
            ("induction-hom", "--n", "3", "--q", "3", "--format", "json"),
            "697b21a35e896a61bef07f3bf6eeabe286b7326957aed7ecb1a4ee747b49e579",
            id="induction-hom-n3-q3-json"),
        pytest.param(
            ("induction-hom", "--n", "3", "--q", "3"),
            "51c54106767027b3012f67d4dd5742be4053fddad867a7f0731736350cd8a41d",
            id="induction-hom-n3-q3-text"),
        pytest.param(
            ("noncocommutativity", "--format", "json"),
            "57b154c5e83bc4a6240df59ccd23521e058fa39a026a289c8315d0b8e034ca2a",
            id="noncocommutativity-json"),
        pytest.param(
            ("noncocommutativity",),
            "09c346f5961c77bb5f4fd1044eac5e7f35b07661edb94dc4de7bbbfd001dd214",
            id="noncocommutativity-text"),
    ])
    def test_verify_output_is_pinned(self, capsys, argv, digest):
        # pins each suite's instances, their order and both sides' hashes
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_relabelling_builds_one_class_map_per_move(self, capsys):
        # 11,700 relabellings fall on 85 (source, target, mapping) keys; a
        # mapping compared by identity would build one class map per call
        class_map = class_functions._class_map
        class_map.cache_clear()
        code, out, _ = run(capsys, "verify", "monoid-axioms", "--n", "3", "--q", "3",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9771213a032bc07c40b188221aa29f5e21b3aefa5431a7f31be76cfe7cef2244")
        info = class_map.cache_info()
        assert (info.misses, info.hits) == (85, 11615)

    def test_class_representatives_are_not_decoded(self):
        # every matrix made from a code is a generator: the class maps of
        # the flip and of straightening read codes, not matrices
        proc = run_fresh(["-c", FROM_CODE_SPY, "verify", "induction-hom",
                          "--n", "2", "--q", "3"])
        code, made, generators = map(int, proc.stdout.split())
        assert (code, proc.stderr) == (0, "")
        assert made == generators > 0

    def test_oracle_small_text(self, capsys):
        code, out, _ = run(
            capsys, "verify", "oracle", "--n", "2", "--q", "2",
        )
        assert code == 0
        assert out.splitlines()[-1].endswith("0 failures")

    def test_induction_hom_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "induction-hom", "--n", "2", "--q", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["failures"] == 0

    def test_size_is_unread_without_samples(self, capsys):
        # with no samples drawn the sample size is never read; a ground of
        # 2^61 labels would not fit in memory
        plain = run(capsys, "verify", "monoid-axioms", "--n", "1")
        assert plain[0] == 0
        assert run(capsys, "verify", "monoid-axioms", "--n", "1",
                   "--size", str(2 ** 61 - 1)) == plain

    def test_extended_gate(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "induction-hom", "--n", "4", "--q", "2")
        assert err.value.code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        # one case whose relation fails, run through the driver
        monkeypatch.setattr(cli, "noncocommutativity_cases", lambda: iter([
            ("noncocommutativity", "forced", 1, 1, operator.ne),
        ]))
        code, out, _ = run(
            capsys, "verify", "noncocommutativity", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["failures"] == 1
        assert json.loads(out)["reports"][0]["instance"] == "forced"


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failure_names_the_first_difference(self, capsys, monkeypatch, fmt):
        # one class value of every product of degree 2 is moved by 1
        product = hopf_core.ut_product

        def perturbed(a, b):
            out = product(a, b)
            if 2 not in out.terms:
                return out
            bump = ClassFunction.class_indicator(out.terms[2].group, 1)
            return out + GradedClassFunction(out.q, {2: bump})

        monkeypatch.setattr(hopf_core, "ut_product", perturbed)
        code, out, _ = run(capsys, "verify", "oracle", "--n", "2", "--q", "2",
                           "--format", fmt)
        assert code == 1
        if fmt == "json":
            failed = [r for r in json.loads(out)["reports"] if r["status"] == "fail"]
            assert failed and all(r["diff"]["at"] == [2, 1] for r in failed)
            assert all(Fraction(r["diff"]["rhs"]) - Fraction(r["diff"]["lhs"]) == 1
                       for r in failed)
            assert all("diff" not in r for r in json.loads(out)["reports"]
                       if r["status"] == "ok")
        else:
            lines = out.splitlines()
            failed = [line for line in lines if line.startswith("fail ")]
            assert failed and all(" at=[2,1] lhs_value=" in line for line in failed)
            assert all(" at=" not in line for line in lines if line.startswith("ok "))


class TestErrors:
    def test_missing_operand(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "scf", "product", "--poset", POSET_PT)
        assert err.value.code == 2

    def test_malformed_json(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "scf", "antipode", "--poset", "{oops")
        assert err.value.code == 2

    def test_invalid_poset(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "scf", "antipode", "--poset", '{"n": 3, "strict": [[2, 3]]}')
        assert err.value.code == 2

    @pytest.mark.parametrize("operand", [
        '{"n": 2, "strict": 5}',
        "[1]",
        '"x"',
        '{"terms": [{"coeff": {"0": "1/0"}, "n": 1, "strict": []}]}',
        '{"n": 3, "strict": [[1, 2]]}',
        '{"n": 3, "strict": [[2, 1]]}',
        '{"n": 3, "strict": [[1, 5]]}',
        '{"n": -1}',
        '{"n": 2.5}',
        '{"n": true}',
        '{"n": "2"}',
        '{"n": 2, "strict": [[1.9, 2]]}',
        '{"n": 2, "strict": [["1", "2"]]}',
        '{"n": 2, "strict": [[true, 2]]}',
        '{"terms": [{"coeff": {"0": 0.1}, "n": 1, "strict": []}]}',
        '{"terms": [{"coeff": {"0": true}, "n": 1, "strict": []}]}',
        '{"terms": [{"n": 1.0, "strict": []}]}',
        '{"terms": [{"n": 1, "coeff": 5}]}',
        '{"terms": [{"n": 1, "coeff": "1/2"}]}',
        # exponent notation: "1e1000000000" would build a billion-digit int
        '{"terms": [{"coeff": {"0": "1e5"}, "n": 1, "strict": []}]}',
        pytest.param("[" * 100000, id="nested-past-the-recursion-limit"),
    ])
    def test_malformed_operand_exits_two(self, capsys, operand):
        with pytest.raises(SystemExit) as err:
            run(capsys, "scf", "antipode", "--poset", operand)
        assert err.value.code == 2
        assert "bad operand" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("nuio", "list", "--n", "100000"),
        ("scf", "coproduct", "--poset", '{"n": 20000, "strict": []}'),
        ("verify", "oracle", "--n", "200", "--q", "2"),
        ("verify", "monoid-axioms", "--n", "1500"),
        ("verify", "induction-hom", "--n", "120", "--q", "2", "--extended"),
    ])
    def test_budget_refusal_of_a_size_too_long_to_print(self, capsys, argv):
        # each size has more than the 4300 digits that str() of an int allows
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "budget exceeded" in err

    @pytest.mark.parametrize("coeff, exponent", [
        ({"0": "1/1", "00": "2/1"}, 0),
        ({"1": "1/1", " 1": "5/1", "+1": "7/1"}, 1),
    ])
    def test_two_keys_of_one_exponent_exit_two(self, capsys, coeff, exponent):
        # read into one dict, these would print (2) and (7*t), the last
        # coefficient only, where repeated terms of one order add up
        operand = json.dumps({"terms": [{"n": 1, "coeff": coeff}]})
        with pytest.raises(SystemExit) as err:
            run(capsys, "scf", "dagger", "--poset", operand)
        out = capsys.readouterr()
        assert err.value.code == 2
        assert out.out == ""
        assert "two keys name the exponent %d" % exponent in out.err

    @pytest.mark.parametrize("budget", ["abc", "1e3", "0", "-3"])
    def test_bad_budget_setting_exits_two(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("UTHOPF_BUDGET", budget)
        code, out, err = run(capsys, "nuio", "list", "--n", "3")
        assert code == 2
        assert out == ""
        assert "UTHOPF_BUDGET must be" in err
        assert "budget exceeded" not in err

    @pytest.mark.parametrize("argv", [
        ("scf", "antipode", "--poset", POSET_A2),
        ("verify", "oracle", "--n", "2"),
        ("verify", "oracle", "--n", "2", "--q", "3"),
    ], ids=["scf", "verify", "verify-prime"])
    def test_bad_budget_setting_names_the_setting(self, capsys, monkeypatch, argv):
        # --q 3 reads the setting while argparse converts it (_prime)
        monkeypatch.setenv("UTHOPF_BUDGET", "abc")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "UTHOPF_BUDGET must be an integer, got 'abc'" in err
        assert "budget exceeded" not in err

    @pytest.mark.parametrize("flag,value", [("--samples", "-5"), ("--size", "0")])
    def test_bad_sampling_flags_exit_two(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "monoid-axioms", "--n", "2", flag, value)
        assert err.value.code == 2
        assert flag in capsys.readouterr().err

    def test_composite_field_size(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "ut", "specialize", "--q", "4", "--poset", POSET_PT)
        assert err.value.code == 2
        assert "not prime" in capsys.readouterr().err

    def test_prime_check_over_budget_exits_two(self, capsys, monkeypatch):
        # 10^18 + 3 is prime: trial division would run to 10^9 divisors
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        with pytest.raises(SystemExit) as err:
            run(capsys, "ut", "specialize", "--q", "1000000000000000003",
                "--poset", POSET_PT)
        assert err.value.code == 2
        assert "argument --q" in capsys.readouterr().err

    def test_negative_size(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "nuio", "list", "--n", "-1")
        assert err.value.code == 2

    def test_budget_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("UTHOPF_BUDGET", "4")
        code, _, err = run(capsys, "ut", "specialize", "--q", "5", "--poset", CHAIN3)
        assert code == 2
        assert "budget exceeded" in err

    @pytest.mark.parametrize("argv, budget, build", [
        (("ut", "specialize", "--q", "5", "--poset", CHAIN3), "4",
         lambda: ut_table(3, 5)),
        # the unitriangular group of degree 2 fits, its GL does not
        (("gl", "induce", "--q", "3", "--poset", '{"n": 2, "strict": [[1, 2]]}'), "10",
         lambda: gl_table(2, 3)),
    ], ids=["ut", "gl"])
    def test_budget_refuses_a_table_already_built(self, capsys, monkeypatch, argv,
                                                  budget, build):
        # explicit comparisons, so that python -O checks them too; the table
        # is cached before the budget is lowered, and the command is refused
        # with the message of a fresh process
        build()
        monkeypatch.setenv("UTHOPF_BUDGET", budget)
        got = run(capsys, *argv)
        fresh = run_fresh(["-m", "uthopf.cli", *argv], UTHOPF_BUDGET=budget)
        if got != (fresh.returncode, fresh.stdout, fresh.stderr) or got[0] != 2 \
                or "budget exceeded" not in got[2]:
            raise AssertionError("in process %r, fresh %r" % (got, fresh))

    def test_axiom_budget_counts_the_largest_family(self, capsys, monkeypatch):
        # n!^2 Fubini(n) coproduct naturality squares: 12 at n = 2, 468 at n = 3
        monkeypatch.setenv("UTHOPF_BUDGET", "400")
        code, out, err = run(capsys, "verify", "monoid-axioms", "--n", "3")
        assert code == 2
        assert out == ""
        assert "budget exceeded" in err
        code, _, _ = run(capsys, "verify", "monoid-axioms", "--n", "2")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        # UT_6(F_2) has 2^15 = 32768 elements
        ("verify", "oracle", "--n", "6", "--q", "2"),
        # GL_4(F_3) has 24261120 elements
        ("verify", "induction-hom", "--n", "4", "--q", "3", "--extended"),
        # the squares on one label fit, but every sample builds UT_200(F_2)
        ("verify", "monoid-axioms", "--n", "1", "--samples", "1", "--size", "200"),
        # each sample fits, but there are more samples than the budget
        ("verify", "monoid-axioms", "--n", "1", "--samples", "30000", "--size", "1"),
    ])
    def test_suite_budget_checked_before_any_report(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a case was computed before the budget check")

        # the driver makes every report, and every case of these suites
        # starts by specializing a basis element
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        monkeypatch.setattr(hopf_core, "_report", refuse)
        monkeypatch.setattr(hopf_core, "specialize", refuse)
        monkeypatch.setattr(gl_bridge, "specialize", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "budget exceeded" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "oracle", "--n", "60000", "--q", "3"),
        ("verify", "induction-hom", "--n", "20000", "--extended"),
        ("verify", "monoid-axioms", "--n", "20000"),
        ("nuio", "list", "--n", "3000000"),
        # the chain order of degree 400 has 80,200 pairs to check; the
        # budget is read before it is built
        ("ut", "specialize", "--q", "2", "--poset", '{"n": 400, "strict": []}'),
        ("gl", "induce", "--q", "2", "--poset", '{"n": 400, "strict": []}'),
        # every sampled square builds the unitriangular group on 200 labels
        ("verify", "monoid-axioms", "--n", "1", "--samples", "1", "--size", "200"),
    ])
    def test_huge_degree_refused_at_once(self, argv):
        # the exact size of each has hundreds of millions of bits or more;
        # the refusal reads a lower bound on its log2 instead
        env = dict(os.environ, UTHOPF_BUDGET="25000", PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            # under python -O, so is the command
            [sys.executable, *["-O"] * sys.flags.optimize, "-m", "uthopf.cli", *argv],
            env=env,
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "budget exceeded" in proc.stderr
        assert "needs at least 2^" in proc.stderr

    @pytest.mark.parametrize("argv", [
        # an order on more labels than the budget: its rows are built first
        ("scf", "dagger", "--poset", '{"n": 30000, "strict": []}'),
        # specializing t^30000 builds a number of 30000 bits
        ("ut", "specialize", "--q", "2", "--poset",
         '{"terms": [{"coeff": {"30000": "1/1"}, "n": 1, "strict": []}]}'),
    ])
    def test_operand_past_the_budget_exits_two(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "budget exceeded" in err

    def test_strict_pairs_past_the_budget_exit_two(self, capsys, monkeypatch, tmp_path):
        # explicit comparisons, so that python -O checks them too.  Chains
        # given as their covering pairs: on 400 labels the closure has
        # 79,800 pairs; two of 200 labels (19,900 each) are read, and
        # their product is the 400-label chain
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        chain = {}
        for n in (400, 200):
            chain[n] = str(tmp_path / ("chain%d.json" % n))
            with open(chain[n], "w") as fh:
                json.dump({"n": n, "strict": [[i, i + 1] for i in range(1, n)]}, fh)
        for argv in [("scf", "dagger", "--input", chain[400]),
                     ("scf", "product", "--input", chain[200], "--input", chain[200])]:
            code, out, err = run(capsys, *argv)
            if (code, out) != (2, "") or "budget exceeded" not in err \
                    or "79800" not in err:
                raise AssertionError("%s gave %r, %r, %r" % (argv, code, out, err))

    @pytest.mark.parametrize("argv", [
        # Catalan(3) = 5 orders
        ("nuio", "list", "--n", "3"),
        # 2^3 subsets
        ("scf", "coproduct", "--poset", '{"n": 3, "strict": [[1, 3]]}'),
        # the chain is three pieces of 2^1 subsets each, but the budget is
        # checked against the 2^3 subsets of the whole order
        ("scf", "coproduct", "--poset", '{"n": 3, "strict": [[1, 2], [2, 3]]}'),
        ("scf", "antipode", "--poset", '{"n": 3, "strict": [[1, 2], [2, 3]]}'),
    ])
    def test_symbolic_budget_exceeded(self, capsys, monkeypatch, argv):
        # a cached result would skip the enumeration and its budget check
        hopf_core._coproduct_basis.cache_clear()
        hopf_core._antipode_basis.cache_clear()
        monkeypatch.setenv("UTHOPF_BUDGET", "4")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "budget exceeded" in err


# Each field is drawn well formed or malformed, about evenly.  Ints sit at
# the edges: zero, negative, composite, a Mersenne prime, the budget used
# below, and 2^4300.
EDGE_INTS = st.one_of(st.integers(-2, 5),
                      st.sampled_from([199, 200, 201, 2 ** 61 - 1, 2 ** 4300]))
INT_TEXT = st.one_of(st.integers(0, 4).map(str), EDGE_INTS.map(str), st.sampled_from(
    ["", "x", "1.5", "0x10", " 3 ", "1" * 5000]))
NOT_INTS = st.sampled_from([2.5, 1e300, True, "2", None, [1]])
LABELS = st.one_of(st.integers(-1, 6), NOT_INTS)
STRICT = st.one_of(st.lists(st.lists(LABELS, max_size=3), max_size=5),
                   st.sampled_from([5, "ab", None, {"a": 1}]))
ORDERS = st.sampled_from([pi.to_dict() for k in range(5)
                          for pi in natural_unit_interval_orders(k)])
EXPONENTS = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(
    ["x", "1e5", "1.0", str(2 ** 4300), "-100000000000"]))
COEFFICIENTS = st.one_of(st.integers(-3, 3), st.sampled_from(
    ["1/2", "-3/1", "0", "1/0", "x", "1e5", 0.5, True, None, [1], 2 ** 4300]))
COEFF = st.one_of(
    st.dictionaries(st.integers(-2, 2).map(str),
                    st.sampled_from(["1/1", "-1/2", "3/1"]), max_size=2),
    st.dictionaries(EXPONENTS, COEFFICIENTS, max_size=3), COEFFICIENTS)
MALFORMED = st.one_of(
    st.fixed_dictionaries({"n": st.one_of(EDGE_INTS, NOT_INTS)},
                          optional={"strict": STRICT}),
    st.sampled_from([[1], "x", 5, None, 1.5, True]))
TERMS = st.lists(st.one_of(ORDERS, MALFORMED).flatmap(
    lambda order: st.fixed_dictionaries({}, optional={"coeff": COEFF}).map(
        lambda coeff: {**order, **coeff} if isinstance(order, dict) else order)),
    max_size=3)
OPERAND_TEXT = st.one_of(
    ORDERS.map(json.dumps),
    st.one_of(TERMS, st.sampled_from([None, 5, "ab", {"a": 1}])).map(
        lambda terms: json.dumps({"terms": terms})),
    MALFORMED.map(json.dumps),
    st.sampled_from(["{oops", "", "[" * 100000, "1e999", "NaN"]),
)
# An --input operand is the text of a file, or a path that is no file.
MISSING, DIRECTORY = object(), object()
OPERAND = st.one_of(
    st.tuples(st.just("--poset"), OPERAND_TEXT),
    st.tuples(st.just("--input"), st.one_of(
        OPERAND_TEXT, st.sampled_from([MISSING, DIRECTORY]))))
FORMAT = st.sampled_from([[], [], ["--format", "json"], ["--format", "text"],
                          ["--format", "xml"]])


def _flag(name, values=INT_TEXT, required=False):
    present = values.map(lambda v: [name, v])
    return present if required else st.one_of(st.just([]), present)


@st.composite
def command_lines(draw):
    """argv drawn from the grammar of build_parser: each subcommand with its
    flags in a drawn order, a required flag mostly present, an operand
    count mostly the one its verb takes, and now and then a stray word."""
    command = draw(st.sampled_from(["nuio", "scf", "ut", "gl", "verify", "bogus"]))
    head, flags = [command], [FORMAT]
    required = draw(st.integers(0, 7)) > 0
    if command == "nuio":
        head.append("list")
        flags += [_flag("--n", required=required), st.sampled_from([[], ["--dyck"]])]
    elif command in ("scf", "ut", "gl"):
        verb = draw(st.sampled_from({
            "scf": ["product", "coproduct", "antipode", "dagger"],
            "ut": ["specialize"], "gl": ["induce"]}[command]))
        head.append(verb)
        if command != "scf":
            flags.append(_flag("--q", required=required))
        count = 1 + (verb == "product") if required else draw(st.integers(0, 3))
        flags += [OPERAND.map(list)] * count
    elif command == "verify":
        head.append(draw(st.sampled_from(
            ["monoid-axioms", "oracle", "induction-hom", "noncocommutativity"])))
        flags += [_flag(name) for name in ("--n", "--q", "--samples", "--size", "--seed")]
        flags.append(st.sampled_from([[], ["--extended"]]))
    parts = [draw(flag) for flag in flags]
    parts.append(draw(st.sampled_from([[]] * 6 + [["--bogus"], ["stray"]])))
    order = draw(st.permutations(range(len(parts))))
    return head + [x for k in order for x in parts[k]]


def _materialize(argv, directory):
    """The argv with each --input operand written to a file in directory."""
    out = []
    for k, value in enumerate(argv):
        if k and argv[k - 1] == "--input":
            if value is MISSING:
                value = os.path.join(directory, "missing.json")
            elif value is DIRECTORY:
                value = directory
            else:
                path = os.path.join(directory, "operand%d.json" % k)
                with open(path, "w") as fh:
                    fh.write(value)
                value = path
        out.append(value)
    return out


def _call(argv, seconds=10):
    """(exit code, stdout, stderr) of cli.main in this process; an exception
    other than SystemExit, or a run past seconds, fails the test."""
    def expire(signum, frame):
        raise TimeoutError("%r ran past %d s" % (argv, seconds))

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _is_error_line(line):
    return line.startswith("budget exceeded: ") or ": error: " in line


class TestGeneratedContract:
    """The exit code contract on command lines drawn from the CLI grammar,
    run in process under a small budget."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command_lines())
    def test_exit_codes_errors_and_repeats(self, argv):
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.dict(os.environ, {"UTHOPF_BUDGET": "200"}):
            argv = _materialize(argv, directory)
            code, out, err = first = _call(argv)
            assert _call(argv) == first
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.splitlines()
            assert lines and _is_error_line(lines[-1]), err
            assert sum(map(_is_error_line, lines)) == 1, err
            assert "Traceback" not in err
        else:
            assert err == ""
