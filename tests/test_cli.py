"""CLI tests: config parsing, subcommand behavior, exit codes, JSON output."""

import json
import pathlib
import time
from collections import Counter

import pytest

from charvar import charsum, cli, cli_oracle, count, oracle, reference
from charvar.cli import build_problem, load_config, main
from charvar.errors import InvalidInputError
from charvar.oracle import FiniteGroupModel
from charvar.reference import poincare_polynomial
from charvar.rootdata import build_root_datum
from charvar.subsystems import build_poset
from subsystem_reference import node_sets, reference_quotients

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def gl2_config(**extra):
    config = {
        "schema_version": 1,
        "group": "GL(2)",
        "genus": 1,
        "punctures": 2,
        "eigenvalues": {"symbols": ["a", "b"], "relations": ["a*b = 1"]},
        "classes": [
            {"type": "semisimple", "coords": ["a", "b"]},
            {"type": "regular_unipotent"},
        ],
    }
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# config loading and validation
# ---------------------------------------------------------------------------


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError) as err:
            load_config(str(tmp_path / "nope.json"))
        assert err.value.code == "config-file"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"group": GL}')
        with pytest.raises(InvalidInputError) as err:
            load_config(str(path))
        assert err.value.code == "config-parse"
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("command", ["count", "check", "poset"])
    def test_integer_above_the_digit_limit_exits_2(self, capsys, tmp_path, command):
        """json.load refuses integers above 4,300 digits with a plain ValueError."""
        text = (CONFIGS / "gl2_genus1.json").read_text()
        path = tmp_path / "huge.json"
        path.write_text(text.replace('"genus": 1', '"genus": ' + "9" * 5001))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config-parse]")
        assert "Traceback" not in err

    def test_non_utf8_config_exits_2(self, capsys, tmp_path):
        """A decoding error is a ValueError, not a JSONDecodeError, too."""
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"group": "GL(2)\xff"}')
        assert main(["count", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error[config-parse]")

    @pytest.mark.parametrize("command", ["count", "table", "check", "poset", "oracle"])
    def test_nesting_deeper_than_the_recursion_limit_exits_2(self, capsys, tmp_path, command):
        """json.load raises RecursionError on nesting past the recursion limit."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config-parse]")
        assert "Traceback" not in err

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidInputError) as err:
            load_config(str(path))
        assert err.value.code == "config-parse"

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, gl2_config(gropu="GL(2)"))
        with pytest.raises(InvalidInputError) as err:
            load_config(path)
        assert err.value.code == "config-field"
        assert "gropu" in str(err.value)

    def test_unsupported_schema_version(self, tmp_path):
        path = write_config(tmp_path, gl2_config(schema_version=99))
        with pytest.raises(InvalidInputError) as err:
            load_config(path)
        assert err.value.code == "config-field"

    def test_valid_config_loads(self, tmp_path):
        path = write_config(tmp_path, gl2_config())
        config = load_config(path)
        assert config["group"] == "GL(2)"


class TestBuildProblem:
    def test_builds_spec(self):
        spec = build_problem(gl2_config())
        assert spec.rd.label == "GL(2)"
        assert spec.genus == 1
        assert spec.punctures == 2
        assert spec.m == 1
        assert str(spec.semisimple_classes[0]) == "(a, b)"

    def test_overrides_sorted(self):
        spec = build_problem(
            gl2_config(overrides={"A1": True, "empty": False})
        )
        assert spec.overrides == (("A1", True), ("empty", False))

    def test_genus_must_be_integer(self):
        with pytest.raises(InvalidInputError) as err:
            build_problem(gl2_config(genus="one"))
        assert err.value.code == "config-field"

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(InvalidInputError) as err:
            build_problem(gl2_config(punctures=True))
        assert err.value.code == "config-field"

    def test_missing_group(self):
        config = gl2_config()
        del config["group"]
        with pytest.raises(InvalidInputError) as err:
            build_problem(config)
        assert "group" in str(err.value)

    def test_missing_classes(self):
        config = gl2_config()
        del config["classes"]
        with pytest.raises(InvalidInputError) as err:
            build_problem(config)
        assert err.value.code == "config-field"

    def test_unknown_class_type(self):
        config = gl2_config(classes=[{"type": "nilpotent"}])
        with pytest.raises(InvalidInputError) as err:
            build_problem(config)
        assert "semisimple" in str(err.value)

    def test_unknown_class_key(self):
        config = gl2_config(
            classes=[{"type": "regular_unipotent", "coords": ["a"]}]
        )
        with pytest.raises(InvalidInputError) as err:
            build_problem(config)
        assert err.value.code == "config-field"

    def test_unipotent_count_must_fill_punctures(self):
        config = gl2_config(punctures=3)  # 1 ss + 1 unip != 3
        with pytest.raises(InvalidInputError) as err:
            build_problem(config)
        assert "punctures" in str(err.value)

    def test_implicit_unipotent_fill(self):
        config = gl2_config(
            punctures=3,
            classes=[{"type": "semisimple", "coords": ["a", "b"]}],
        )
        spec = build_problem(config)
        assert spec.m == 1 and spec.punctures == 3

    def test_overrides_must_be_booleans(self):
        with pytest.raises(InvalidInputError) as err:
            build_problem(gl2_config(overrides={"A1": "yes"}))
        assert err.value.code == "config-field"

    def test_eigenvalues_unknown_key(self):
        config = gl2_config(eigenvalues={"symbols": ["a"], "generators": []})
        with pytest.raises(InvalidInputError) as err:
            build_problem(config)
        assert "generators" in str(err.value)

    @pytest.mark.parametrize("edits,message", [
        ({"zeta": 1, "extra": 2}, "unknown config keys: extra, zeta"),
        ({"eigenvalues": {"symbols": ["a", "b"], "relations": [], "extra": 1}},
         "unknown eigenvalue keys: extra"),
        ({"classes": [{"type": "semisimple", "coords": ["a", "b"], "zeta": 1,
                       "extra": 2}]},
         "classes[0]: unknown keys extra, zeta"),
        ({"classes": [{"type": "semisimple", "coords": ["a", "b"]},
                      {"type": "regular_unipotent", "extra": 1}]},
         "classes[1]: unknown keys extra"),
        ({"oracle": {"q": [5], "zeta": 1}}, "unknown oracle keys: zeta"),
        ({"oracle": [5]}, "'oracle' must be an object"),
        ({"classes": ["a"]}, "classes[0] must be an object"),
    ])
    def test_config_key_messages(self, tmp_path, capsys, edits, message):
        config = gl2_config(**{"oracle": {"q": [5]}, **edits})
        assert main(["oracle", "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == f"error[config-field]: {message}\n"


# ---------------------------------------------------------------------------
# subcommands end to end
# ---------------------------------------------------------------------------


class TestCountCommand:
    def test_count_genus_one(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["count", "--config", str(CONFIGS / "gl2_genus1.json"),
             "--json", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "|X(F_q)| = q^6 - q^5 - 3*q^4 + 5*q^3 - 2*q^2" in text
        assert "factored: q^2 * (q - 1)^3 * (q + 2)" in text
        payload = json.loads(out.read_text())
        assert payload["command"] == "count"
        assert payload["polynomial"]["coefficients"] == [0, 0, -2, 5, -3, -1, 1]
        assert payload["degree"] == payload["expected_dimension"] == 6
        assert payload["euler_characteristic"] == 0

    def test_count_table_flag(self, capsys):
        code = main(
            ["count", "--config", str(CONFIGS / "gl2_genus1.json"), "--table"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "subsystem" in text and "P_Psi" in text

    def test_empty_variety(self, capsys, tmp_path):
        config = gl2_config(
            genus=0,
            punctures=3,
            eigenvalues={"symbols": ["a", "b"], "relations": []},
            classes=[
                {"type": "semisimple", "coords": ["a", "b"]},
                {"type": "semisimple", "coords": ["a", "b"]},
                {"type": "regular_unipotent"},
            ],
        )
        code = main(["count", "--config", write_config(tmp_path, config)])
        assert code == 0
        text = capsys.readouterr().out
        assert "|X(F_q)| = 0" in text
        assert "commutator subgroup" in text

    def test_tiny_budget_exits_3(self, capsys):
        code = main(
            ["count", "--config",
             str(CONFIGS / "gl3_four_three_semisimple.json"), "--budget", "5"]
        )
        assert code == 3
        assert "error[translate-budget]" in capsys.readouterr().err

    def test_bad_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code = main(["count", "--config", str(path)])
        assert code == 2
        assert "error[config-parse]" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/out.json", ""])
    def test_unwritable_json_path_exits_2(self, capsys, tmp_path, target):
        """A missing directory or a directory as the --json path is a named
        error after the text report, not a traceback."""
        path = tmp_path / target
        config = str(CONFIGS / "gl2_genus1.json")
        assert main(["count", "--config", config, "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "|X(F_q)| = q^6" in out
        assert err.startswith(f"error[output-file]: cannot write {path}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_json_deterministic_modulo_timestamp(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["count", "--config", str(CONFIGS / "gl2_genus1.json"),
                 "--json", str(path)]
            ) == 0
        capsys.readouterr()
        payloads = [json.loads(p.read_text()) for p in paths]
        for payload in payloads:
            payload.pop("generated_at")
        assert payloads[0] == payloads[1]
        # and the serialized form is byte-identical apart from that line
        lines = [
            [l for l in p.read_text().splitlines() if "generated_at" not in l]
            for p in paths
        ]
        assert lines[0] == lines[1]


class TestTableCommand:
    def test_table(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        code = main(
            ["table", "--config", str(CONFIGS / "so5_display.json"),
             "--json", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "diagnostic table for SO(5)" in text
        assert "(* indicator fixed by an override)" in text
        payload = json.loads(out.read_text())
        rows = {row["label"]: row for row in payload["table"]}
        assert rows["C2"]["torsion_order"] == 2
        assert rows["C2"]["overridden"] is True
        assert rows["A1xA1"]["torsion_order"] == 4
        assert rows["empty"]["free_rank"] == 2


class TestPosetCommand:
    def test_g2_poset(self, capsys, tmp_path):
        out = tmp_path / "poset.json"
        code = main(
            ["poset", "--config", str(CONFIGS / "g2_display.json"),
             "--json", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "closed subsystem poset of G2: 12 nodes" in text
        payload = json.loads(out.read_text())
        assert payload["num_nodes"] == 12
        mobius = {
            (entry["lower_label"], entry["upper_label"]): entry["mu"]
            for entry in payload["mobius"]
            if entry["lower_label"] == "empty"
        }
        assert mobius[("empty", "A2")] == 2
        assert mobius[("empty", "A1xA1")] == 1
        full = [n for n in payload["nodes"] if n["label"] == "G2"]
        assert len(full) == 1 and full[0]["num_roots"] == 12

    @pytest.mark.parametrize("group", ["B3(ad)", "D4(ad)", "SO(5) x SO(5)", "G2 x G2"])
    def test_node_invariants_match_per_node_values(self, capsys, tmp_path, group):
        """The per-orbit invariants the command prints are every member's own."""
        out = tmp_path / "poset.json"
        path = write_config(tmp_path, {"schema_version": 1, "group": group})
        assert main(["poset", "--config", path, "--json", str(out)]) == 0
        capsys.readouterr()
        poset = build_poset(build_root_datum(group))
        direct = reference_quotients(poset)
        nodes = node_sets(poset.masks)
        for node in json.loads(out.read_text())["nodes"]:
            i = node["index"]
            expected = poincare_polynomial(poset.rd, nodes[i])
            assert node["poincare"] == str(expected), (group, i)
            assert node["weyl_order"] == expected.evaluate(1)
            assert node["free_rank"] == direct[i].free_rank
            assert node["torsion"] == list(direct[i].torsion)


# genus 1, one class: groups with torsion in X^vee / Z Phi^vee, and GL(3)
# over an eigenvalue group with non-cyclic torsion
NO_WEYL_PROBLEMS = (
    ("PGL(3)", ["a", "b"], [], ["a", "b"]),
    ("SO(5)", ["a", "b"], [], ["a", "b"]),
    ("B3(ad)", ["a", "b", "c"], [], ["a", "b", "c"]),
    ("D4(ad)", ["a", "b", "c", "d"], [], ["a", "b", "c", "d"]),
    ("SO(5) x GL(2)", ["a", "b", "c", "d"], [], ["a", "b", "c", "d"]),
    ("GL(3)", ["a", "t", "u"], ["t^2", "u^2"], ["a", "a*t", "a*u"]),
)


class TestCheckCommand:
    @pytest.mark.parametrize("command", ["check", "count"])
    @pytest.mark.parametrize("group,symbols,relations,coords", NO_WEYL_PROBLEMS)
    def test_strongly_regular_classes_pass_without_the_weyl_group(
        self, capsys, tmp_path, monkeypatch, command, group, symbols, relations, coords
    ):
        def refuse(*args):
            raise AssertionError("a Weyl group was enumerated")

        monkeypatch.setattr(reference, "_reflection_group", refuse)
        path = write_config(tmp_path, {
            "schema_version": 1, "group": group, "genus": 1, "punctures": 2,
            "eigenvalues": {"symbols": symbols, "relations": relations},
            "classes": [{"type": "semisimple", "coords": coords}],
        })
        assert main([command, "--config", path]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["check", "count", "table"])
    @pytest.mark.parametrize("name", ["gl3_four_three_semisimple.json", "pgl2_rigid.json"])
    def test_several_classes_pass_without_the_weyl_group(
        self, capsys, monkeypatch, command, name
    ):
        """m >= 2: the translates come from a walk of the simple reflections,
        so the commands print the same with the Weyl matrices refusing."""
        config = str(CONFIGS / name)
        assert main([command, "--config", config]) == 0
        expected = capsys.readouterr()

        def refuse(*args):
            raise AssertionError("a Weyl matrix was used")

        monkeypatch.setattr(reference, "_reflection_group", refuse)
        monkeypatch.setattr(reference, "translate", refuse)
        assert main([command, "--config", config]) == 0
        assert capsys.readouterr() == expected

    def test_check_ok(self, capsys):
        code = main(["check", "--config", str(CONFIGS / "gl2_genus1.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "connected-center: ok" in text
        assert "non-emptiness: ok" in text

    def test_check_rejects_disconnected_center(self, capsys):
        code = main(["check", "--config", str(CONFIGS / "sl2_invalid.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[connected-center]" in err
        assert "not connected" in err

    def test_check_notes_override_on_full_node(self, capsys):
        code = main(["check", "--config", str(CONFIGS / "so5_display.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "override on C2 asserts otherwise" in text

    def test_nonhyperbolic_check_within_the_bound_builds_no_poset(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "build_poset", refuse_poset)
        config = dict(json.loads((CONFIGS / "gl2_genus1.json").read_text()), genus=0)
        assert main(["check", "--config", write_config(tmp_path, config)]) == 0
        assert "empty by convention" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "count"])
    def test_unknown_override_label_exits_2(self, capsys, tmp_path, command):
        path = write_config(tmp_path, gl2_config(overrides={"B7": True}))
        code = main([command, "--config", path])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[override-label]" in err
        assert "'B7' matches no subsystem" in err


class TestOracleCommand:
    def test_oracle_match(self, capsys, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_sphere_generic.json"),
             "--json", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "verdict: MATCH" in text
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "match"
        assert [run["q"] for run in payload["runs"]] == [5, 7]
        assert all(run["match"] for run in payload["runs"])

    @pytest.mark.parametrize("genus,relations,reason", [
        (1, [], "empty variety"),
        (0, ["a*b = 1"], "nonhyperbolic surface"),
    ])
    def test_oracle_where_the_count_returns_early(
        self, capsys, tmp_path, genus, relations, reason
    ):
        """The count stops before the orbit counts; the faithfulness test
        still reads its symbolic counts from the same record."""
        config = gl2_config(
            genus=genus,
            eigenvalues={"symbols": ["a", "b"], "relations": relations},
            classes=[{"type": "semisimple", "coords": ["a", "b"]}],
            oracle={"q": [5, 7]},
        )
        out = tmp_path / "oracle.json"
        path = write_config(tmp_path, config)
        assert main(["oracle", "--config", path, "--seed", "0", "--json", str(out)]) == 0
        assert "verdict: MATCH" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert [
            (run["q"], run["oracle_count"], run["formula_value"], run["match"])
            for run in payload["runs"]
        ] == [(5, 0, 0, True), (7, 0, 0, True)]
        assert all(run["sampled"] for run in payload["runs"])
        assert main(["count", "--config", path]) == 0
        assert f"empty: {reason}" in capsys.readouterr().out

    def test_oracle_single_q_flag(self, capsys, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_sphere_generic.json"),
             "--q", "5", "--json", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [run["q"] for run in payload["runs"]] == [5]
        assert payload["runs"][0]["sampled"] is False

    def test_oracle_sampled_values(self, capsys, tmp_path):
        config = json.loads(
            (CONFIGS / "gl2_sphere_generic.json").read_text()
        )
        del config["oracle"]["eigenvalues"]
        path = write_config(tmp_path, config)
        code = main(["oracle", "--config", path, "--q", "5", "--seed", "1"])
        assert code == 0
        assert "[sampled, seed 1]" in capsys.readouterr().out

    def test_oracle_rejects_bad_values(self, capsys, tmp_path):
        # a^3 b^3 = 216 = 6 mod 7, so these values violate the relation at 7
        config = json.loads(
            (CONFIGS / "gl2_four_three_semisimple.json").read_text()
        )
        path = write_config(tmp_path, config)
        code = main(["oracle", "--config", path, "--q", "7"])
        assert code == 2
        assert "error[oracle-values]" in capsys.readouterr().err

    def test_oracle_rejects_unfaithful_values(self, capsys, tmp_path):
        # 2*1*3*1 = 1 mod 5 as declared, but also a*c = 1 and b*d = 1:
        # that degenerate point belongs to the coincident problem (count 2),
        # so comparing it against the generic formula would be meaningless
        config = json.loads(
            (CONFIGS / "gl2_sphere_generic.json").read_text()
        )
        config["oracle"]["eigenvalues"] = {"a": 2, "b": 1, "c": 3, "d": 1}
        path = write_config(tmp_path, config)
        code = main(["oracle", "--config", path, "--q", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[oracle-values]" in err
        assert "extra" in err

    def test_oracle_rejects_zero_value(self, capsys, tmp_path):
        # 0 is not a unit, so it satisfies z^4 = 1 in no F_q^x; reducing
        # its exponents mod q - 1 would make 0^0 = 1 and wave it through
        config = json.loads((CONFIGS / "gl2_genus1.json").read_text())
        config["eigenvalues"] = {
            "symbols": ["a", "b", "z"],
            "relations": ["a*b = 1", "z^4 = 1"],
        }
        config["oracle"] = {"q": [5], "eigenvalues": {"a": 3, "b": 12, "z": 0}}
        path = write_config(tmp_path, config)
        code = main(["oracle", "--config", path])
        assert code == 2
        assert "error[oracle-values]" in capsys.readouterr().err

    def test_oracle_unsupported_group(self, capsys):
        code = main(["oracle", "--config", str(CONFIGS / "so5_display.json")])
        assert code == 2
        assert "error[oracle-group]" in capsys.readouterr().err

    def test_oracle_needs_q_list(self, capsys):
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl3_genus1_generic.json")]
        )
        assert code == 2
        assert "error[config-field]" in capsys.readouterr().err

    def test_oracle_budget_exits_3(self, capsys):
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_sphere_generic.json"),
             "--budget", "10"]
        )
        assert code == 3
        assert "error[oracle-budget]" in capsys.readouterr().err

    def test_oracle_budget_checked_before_class_table(self, capsys, monkeypatch):
        def refuse(model):
            raise AssertionError("class table built before the budget check")

        monkeypatch.setattr(FiniteGroupModel, "class_table", refuse)
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_genus1.json"),
             "--budget", "1000"]
        )
        assert code == 3
        assert "error[oracle-budget]" in capsys.readouterr().err

    def test_oracle_budget_checked_before_model_build(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("group model built before the budget check")

        monkeypatch.setattr(oracle, "build_model", refuse)
        config = json.loads(
            (CONFIGS / "gl3_genus1_unit_eigenvalue.json").read_text()
        )
        config["oracle"] = {"q": [5], "budget": 1000000}
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        assert code == 3
        assert "error[oracle-budget]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [("threads", "2"), ("budget", "100"), ("budget", None),
         ("threads", True), ("budget", 1.5)],
    )
    def test_oracle_config_integers(self, tmp_path, capsys, key, value):
        config = json.loads((CONFIGS / "gl2_genus1.json").read_text())
        config["oracle"][key] = value
        code = main(["oracle", "--config", write_config(tmp_path, config)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error[config-field]: '{key}' must be an integer" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_oracle_threads_must_be_positive(self, tmp_path, capsys, source):
        config = json.loads((CONFIGS / "gl2_genus1.json").read_text())
        argv = ["oracle", "--config"]
        if source == "flag":
            argv += [str(CONFIGS / "gl2_genus1.json"), "--threads", "0"]
        else:
            config["oracle"]["threads"] = 0
            argv.append(write_config(tmp_path, config))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error[oracle-input]: threads must be >= 1" in err

    def test_oracle_threads_checked_before_specialization(self, capsys, monkeypatch):
        """No eigenvalues are drawn: GL(3) at q = 5 has no faithful ones (exit 3)."""
        monkeypatch.setattr(cli_oracle, "UnitSpecialization", None)
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl3_genus1_generic.json"),
             "--q", "5", "--threads", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error[oracle-input]: threads must be >= 1\n"

    def test_oracle_nonprime_q_exits_2(self, capsys):
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_sphere_generic.json"),
             "--q", "4"]
        )
        assert code == 2
        assert "error[oracle-field]" in capsys.readouterr().err

    def test_oracle_field_cap_exits_3(self, capsys):
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_sphere_generic.json"),
             "--q", "13"]
        )
        assert code == 3
        assert "error[oracle-cap]" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["12", "1" + "0" * 400 + "7"])
    def test_oracle_q_above_cap_exits_3_even_if_composite(self, capsys, q):
        code = main(
            ["oracle", "--config", str(CONFIGS / "gl2_genus1.json"), "--q", q]
        )
        assert code == 3
        assert "error[oracle-cap]" in capsys.readouterr().err

    def test_oracle_pgl(self, capsys):
        code = main(
            ["oracle", "--config", str(CONFIGS / "pgl2_rigid.json")]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "oracle 2  formula 2  MATCH" in text


class TestOracleWork:
    """The oracle parses the declared relations once, however many values
    it samples."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relations_are_parsed_once(self, tmp_path, monkeypatch, capsys, seed):
        config = json.loads((CONFIGS / "gl2_sphere_generic.json").read_text())
        del config["oracle"]["eigenvalues"]
        calls = Counter()
        real_parse = charsum.EigenvalueDatum.parse_relation
        real_specialize = cli_oracle.UnitSpecialization.specialize

        def parse(self, text):
            calls["parse"] += 1
            return real_parse(self, text)

        def specialize(self, values):
            calls["specialize"] += 1
            return real_specialize(self, values)

        monkeypatch.setattr(charsum.EigenvalueDatum, "parse_relation", parse)
        monkeypatch.setattr(cli_oracle.UnitSpecialization, "specialize", specialize)
        path = write_config(tmp_path, config)
        assert main(["oracle", "--config", path, "--seed", str(seed)]) == 0
        assert "[sampled, seed" in capsys.readouterr().out
        # a*b*c*d = 1 once, and g^(q-1) once for each of q = 5, 7
        assert calls["specialize"] > 2
        assert calls["parse"] == 3


class TestDigitLimit:
    """Python converts at most 4,300 digits between int and str; inputs past
    that exit with a named error, and those below it keep their output."""

    @pytest.mark.parametrize("where", ["coords", "relations"])
    @pytest.mark.parametrize("command", ["count", "check", "oracle"])
    def test_long_word_exponent_exits_2(self, tmp_path, capsys, where, command):
        word = "a^" + "9" * 5000
        config = json.loads((CONFIGS / "gl2_genus1.json").read_text())
        if where == "coords":
            config["classes"][0]["coords"] = [word, "b"]
        else:
            config["eigenvalues"]["relations"] = [word + " = b"]
        assert main([command, "--config", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == (
            "error[eigenvalue-word]: exponent of 'a' has too many digits\n"
        )

    @pytest.mark.parametrize("command", ["count", "check", "table", "oracle"])
    def test_unprintable_dimension_exits_3(self, tmp_path, capsys, command):
        config = json.loads((CONFIGS / "gl3_genus1_generic.json").read_text())
        config["genus"], config["oracle"] = int("9" * 4300), {"q": [5]}
        assert main([command, "--config", write_config(tmp_path, config)]) == 3
        assert capsys.readouterr().err == (
            "error[degree-bound]: the expected dimension has too many digits "
            "to print\n"
        )

    def test_long_genus_below_the_limit_keeps_its_output(self, tmp_path, capsys):
        config = json.loads((CONFIGS / "gl3_genus1_generic.json").read_text())
        config["genus"] = int("9" * 4296)
        path = write_config(tmp_path, config)
        dimension = (2 * config["genus"] - 2) * 9 + 2 + 2 * 6  # dim GL(3) = 9, |Phi| = 6
        assert main(["check", "--config", path]) == 0
        assert capsys.readouterr().out.endswith(f"expected dimension: {dimension}\n")
        assert main(["count", "--config", path]) == 3
        assert capsys.readouterr().err == (
            f"error[degree-bound]: the count has degree {dimension} (the "
            f"expected dimension), above the cap {count.MAX_DEGREE}\n"
        )


def refuse_poset(rd):
    raise AssertionError("a closed-subsystem poset was built")


def gl8_config(coords, genus=1, punctures=2):
    """GL(8), one semisimple class: 28 positive roots, above the poset bound."""
    symbols = sorted(set(coords))
    return {
        "schema_version": 1, "group": "GL(8)", "genus": genus,
        "punctures": punctures, "eigenvalues": {"symbols": symbols},
        "classes": [{"type": "semisimple", "coords": coords}],
    }


GL8_REGULAR = [f"a{i}" for i in range(8)]


class TestOverBoundGroups:
    """Groups above the poset bound fail before any loop over their Weyl group."""

    @pytest.fixture(autouse=True)
    def no_weyl_loop(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("strongly_regular ran on an over-bound group")

        monkeypatch.setattr(count, "strongly_regular", refuse)

    @pytest.mark.parametrize("command", ["check", "count", "table"])
    def test_poset_bound_comes_first(self, capsys, tmp_path, command):
        path = write_config(tmp_path, gl8_config(GL8_REGULAR))
        assert main([command, "--config", path]) == 3
        assert capsys.readouterr().err == (
            "error[poset-bound]: coroot system has 28 positive roots, above "
            "the enumeration bound 24\n"
        )

    @pytest.mark.parametrize("command", ["count", "table"])
    def test_nonhyperbolic_count_fails_first(self, capsys, tmp_path, command):
        """The report of a nonhyperbolic count still reads the poset."""
        path = write_config(tmp_path, gl8_config(GL8_REGULAR, genus=0))
        assert main([command, "--config", path]) == 3
        assert "error[poset-bound]" in capsys.readouterr().err

    def test_poset_bound_beats_strongly_regular(self, capsys, tmp_path):
        """A class that is not strongly regular used to fail first (exit 2)."""
        coords = ["a0", "a0"] + GL8_REGULAR[2:]
        path = write_config(tmp_path, gl8_config(coords))
        assert main(["count", "--config", path]) == 3
        assert "error[poset-bound]" in capsys.readouterr().err

    def test_cheap_hypotheses_still_come_first(self, capsys, tmp_path):
        config = gl8_config(GL8_REGULAR, punctures=1)
        assert main(["check", "--config", write_config(tmp_path, config)]) == 2
        assert "error[class-counts]" in capsys.readouterr().err

    def test_nonhyperbolic_check_builds_no_poset(self, capsys, tmp_path, monkeypatch):
        """``check`` refuses a nonhyperbolic surface as ``count`` does.

        It used to skip the bound there and exit 0 ("empty by convention")
        after a strongly-regular test over all 40,320 elements of W.
        """
        monkeypatch.setattr(cli, "build_poset", refuse_poset)
        path = write_config(tmp_path, gl8_config(GL8_REGULAR, genus=0))
        errors = []
        for command in ("check", "count", "table"):
            assert main([command, "--config", path]) == 3
            errors.append(capsys.readouterr().err)
        assert errors == [errors[0]] * 3
        assert errors[0].startswith("error[poset-bound]")

    def test_group_above_the_rank_cap(self, capsys, tmp_path):
        """GL(30) used to spend seconds on its roots before ``class-counts``."""
        config = {"schema_version": 1, "group": "GL(30)", "genus": 1,
                  "punctures": 2, "classes": []}
        path = write_config(tmp_path, config)
        for command in ("check", "count", "poset"):
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err == (
                "error[descriptor]: group 'GL(30)' has lattice rank 30, above "
                "the cap 10\n"
            )


class TestManyRelations:
    """Ten relations over eight symbols whose eigenvalue group is Z/5.

    Naive elimination grows the Smith form of these relator rows to entries
    of tens of thousands of bits, and ``check`` then runs for minutes.
    """

    RELATIONS = [
        "s1^3*s2^-2*s3^-2*s4^-2*s5^-6*s7^4*s8^4", "s1^-2*s2^4*s3*s5*s7^2",
        "s2^4*s4^-1*s7^3", "s1^3*s4^2*s6^12*s8^-2",
        "s1^2*s2^3*s3^3*s4^-6*s5^12*s6*s7^-6", "s2^12*s3^-6*s4*s5^3*s6^2*s7^2*s8^3",
        "s2^-2*s3^-2*s4^3*s5*s6*s8^3", "s1^3*s2^-1*s3*s4^-6*s7^-6*s8",
        "s3^2*s4^4*s5^-2*s7", "s1^-6*s2^-1*s4^2*s5*s6^3*s7^3*s8",
    ]
    CONFIG = {
        "schema_version": 1, "group": "GL(2)", "genus": 1, "punctures": 2,
        "eigenvalues": {"symbols": [f"s{k}" for k in range(1, 9)], "relations": RELATIONS},
        "classes": [{"type": "semisimple", "coords": ["s1", "s2"]}],
    }

    def test_check_and_count_answer_fast(self, capsys, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out.json"
        start = time.perf_counter()
        assert main(["check", "--config", path, "--json", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        assert json.loads(out.read_text())["non_empty"] is False
        start = time.perf_counter()
        assert main(["count", "--config", path, "--json", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        assert json.loads(out.read_text())["polynomial"]["coefficients"] == []
        assert "|X(F_q)| = 0" in capsys.readouterr().out


class TestDegreeBound:
    """A count above ``MAX_DEGREE`` is refused before any power is taken."""

    @pytest.mark.parametrize("command", ["count", "table", "oracle"])
    def test_huge_genus_exits_3_fast(self, capsys, tmp_path, command):
        """Genus 10^30 used to run until killed (degree 8 * 10^30 - 2)."""
        config = json.loads((CONFIGS / "gl2_genus1.json").read_text())
        config["genus"] = 10**30
        path = write_config(tmp_path, config)
        start = time.perf_counter()
        assert main([command, "--config", path]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error[degree-bound]: the count has degree {8 * 10**30 - 2} (the "
            f"expected dimension), above the cap {count.MAX_DEGREE}\n"
        )

    def test_check_answers_above_the_cap(self, capsys, tmp_path):
        """``check`` takes no power, so only the counting commands refuse."""
        config = gl2_config(genus=126)  # degree 8 * 126 - 2 = 1006
        assert count.expected_dimension(build_problem(config)) > count.MAX_DEGREE
        path = write_config(tmp_path, config)
        assert main(["check", "--config", path]) == 0
        assert main(["count", "--config", path]) == 3
        assert "error[degree-bound]" in capsys.readouterr().err


class TestInconsistentOverride:
    """An override that breaks polynomiality reaches the CLI as exit 4."""

    CONFIG = {
        "schema_version": 1, "group": "GL(2)", "genus": 0, "punctures": 3,
        "eigenvalues": {"symbols": ["a", "b"], "relations": ["a*b"]},
        "classes": [{"type": "semisimple", "coords": ["a", "b"]}],
        "overrides": {"empty": True}, "oracle": {"q": [5]},
    }

    @pytest.mark.parametrize("command", ["count", "table", "oracle"])
    def test_non_polynomial_count_exits_4(self, capsys, tmp_path, command):
        code = main([command, "--config", write_config(tmp_path, self.CONFIG)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[non-polynomial]: the master formula produced a "
            "non-polynomial count (2*q - 1)/(q); this indicates inconsistent "
            "overrides or an engine bug\n"
        )


class TestCuratedConfigs:
    """Every shipped config must at least pass `check` (or fail as designed)."""

    @pytest.mark.parametrize(
        "name",
        sorted(
            p.name for p in CONFIGS.glob("*.json") if p.name != "sl2_invalid.json"
        ),
    )
    def test_config_checks_clean(self, capsys, name):
        code = main(["check", "--config", str(CONFIGS / name)])
        assert code == 0
        capsys.readouterr()
