"""Command line behaviour: output shapes, determinism, exit codes."""

import json

import pytest

from uthopf import cli, hopf_core


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


POSET_A2 = '{"n": 2, "strict": []}'
POSET_PT = '{"n": 1, "strict": []}'


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

    def test_extended_gate(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "induction-hom", "--n", "4", "--q", "2")
        assert err.value.code == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "_noncocommutativity_reports",
            lambda: [
                {
                    "check": "noncocommutativity",
                    "instance": "forced",
                    "status": "fail",
                    "lhs_hash": "x",
                    "rhs_hash": "x",
                }
            ],
        )
        code, out, _ = run(
            capsys, "verify", "noncocommutativity", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["failures"] == 1


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
    ])
    def test_malformed_operand_exits_two(self, capsys, operand):
        with pytest.raises(SystemExit) as err:
            run(capsys, "scf", "antipode", "--poset", operand)
        assert err.value.code == 2
        assert "bad operand" in capsys.readouterr().err

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

    def test_negative_size(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "nuio", "list", "--n", "-1")
        assert err.value.code == 2

    def test_budget_exceeded(self, capsys, monkeypatch):
        # q = 5 so the table is not already sitting in a cache
        monkeypatch.setenv("UTHOPF_BUDGET", "4")
        code, _, err = run(
            capsys, "ut", "specialize", "--q", "5",
            "--poset", '{"n": 3, "strict": [[1, 2], [1, 3], [2, 3]]}',
        )
        assert code == 2
        assert "budget exceeded" in err

    @pytest.mark.parametrize("argv", [
        # Catalan(3) = 5 orders
        ("nuio", "list", "--n", "3"),
        # 2^3 subsets
        ("scf", "coproduct", "--poset", '{"n": 3, "strict": [[1, 3]]}'),
    ])
    def test_symbolic_budget_exceeded(self, capsys, monkeypatch, argv):
        # a cached coproduct would skip the enumeration and its budget check
        hopf_core._coproduct_basis.cache_clear()
        monkeypatch.setenv("UTHOPF_BUDGET", "4")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "budget exceeded" in err
