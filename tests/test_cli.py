import json
import sys

import pytest

import riskbook as rb
from riskbook import cli
from riskbook.cli import main


@pytest.fixture()
def av_file(tmp_path):
    path = tmp_path / "av.json"
    path.write_text(rb.bundled_instance_text(), encoding="utf-8")
    return str(path)


class TestRank:
    def test_default_regime(self, av_file, capsys):
        assert main(["rank", av_file]) == 0
        out = capsys.readouterr().out
        assert "optimal: tau1" in out
        assert "safe: tau1" in out

    def test_json_output(self, av_file, capsys):
        assert main(["rank", av_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimal"] == ["tau1"]

    def test_single_override_scope(self, av_file, capsys):
        code = main(["rank", av_file, "--rule", "r1", "--measure", "worst_case", "--threshold", "175"])
        assert code == 0
        assert "optimal: tau2" in capsys.readouterr().out

    def test_multiple_override_scopes(self, av_file, capsys):
        code = main(
            [
                "rank",
                av_file,
                "--rule",
                "r1",
                "--measure",
                "var",
                "--alpha",
                "0.9995",
                "--rule",
                "r2",
                "--threshold",
                "1",
            ]
        )
        assert code == 0
        assert "optimal: tau4" in capsys.readouterr().out

    def test_output_is_deterministic(self, av_file, capsys):
        main(["rank", av_file])
        first = capsys.readouterr().out
        main(["rank", av_file])
        assert capsys.readouterr().out == first


class TestRisk:
    def test_risk_table_for_rule(self, av_file, capsys):
        assert main(["risk", av_file, "--rule", "r1", "--measure", "expected"]) == 0
        out = capsys.readouterr().out
        assert "0.225" in out
        assert "1.75" in out

    def test_rule_flag_is_required(self, av_file, capsys):
        assert main(["risk", av_file]) == 2
        assert "requires --rule" in capsys.readouterr().err

    def test_table_without_overrides(self, av_file, capsys):
        assert main(["risk", av_file, "--rule", "r3"]) == 0
        assert "rule r3" in capsys.readouterr().out


class TestExplain:
    def test_worst_case_regime(self, av_file, capsys):
        code = main(
            [
                "explain",
                av_file,
                "tau2",
                "tau1",
                "--rule",
                "r1",
                "--measure",
                "worst_case",
                "--threshold",
                "175",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tau2 is strictly less risky than tau1" in out
        assert "w2" in out

    def test_unknown_trajectory_is_a_validation_failure(self, av_file, capsys):
        assert main(["explain", av_file, "tau2", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_one_trajectory_on_both_sides_is_refused(self, av_file, capsys):
        assert main(["explain", av_file, "tau1", "tau1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: explain compares two different trajectories, got 'tau1' on both sides\n"


class TestCheck:
    def test_bundled_instance_passes(self, av_file, capsys):
        assert main(["check", av_file]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_json_output(self, av_file, capsys):
        assert main(["check", av_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestExitCodes:
    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["rank", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["rank", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        doc = json.loads(rb.bundled_instance_text())
        doc["scenarios"][0]["prob"] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["rank", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_invariant_break_is_a_validation_failure_naming_the_id(self, tmp_path, capsys):
        doc = json.loads(rb.bundled_instance_text())
        doc["rules"][1]["violations"]["tau3"]["xi7"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["rank", str(path)]) == 1
        assert "xi7" in capsys.readouterr().err

    @staticmethod
    def one_line_error(capsys) -> str:
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(rb.bundled_instance_text().replace("tau1", "tau\xe9").encode("latin-1"))
        assert main(["rank", str(path)]) == 2
        assert "parse error" in self.one_line_error(capsys)

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["rank", str(path)]) == 2
        assert "parse error" in self.one_line_error(capsys)

    def test_integer_over_the_digit_limit_is_a_parse_error(self, tmp_path, capsys):
        text = rb.bundled_instance_text()
        path = tmp_path / "digits.json"
        path.write_text(text.replace('"threshold": 0', '"threshold": ' + "1" * 4301, 1), encoding="utf-8")
        assert main(["rank", str(path)]) == 2
        assert "parse error" in self.one_line_error(capsys)

    def test_integer_beyond_the_float_range_is_a_validation_error(self, tmp_path, capsys):
        doc = json.loads(rb.bundled_instance_text())
        doc["rules"][0]["violations"]["tau1"]["xi1"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["rank", str(path)]) == 1
        assert "rules[0].violations.tau1.xi1" in self.one_line_error(capsys)

    @pytest.mark.parametrize("cell", ["1e400", "Infinity"])
    def test_infinite_violation_is_a_validation_error(self, tmp_path, capsys, cell):
        doc = json.loads(rb.bundled_instance_text())
        assert doc["rules"][0]["id"] == "r1"
        doc["rules"][0]["violations"]["tau1"]["xi1"] = 12345.5
        doc["rules"][0]["risk"] = {"measure": "cvar", "alpha": 0.9, "threshold": 0}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc).replace("12345.5", cell), encoding="utf-8")
        assert main(["rank", str(path)]) == 1
        err = self.one_line_error(capsys)
        assert "'r1'" in err and "('tau1', 'xi1')" in err and "finite and nonnegative" in err

    @pytest.mark.parametrize("command", ["rank", "risk", "explain", "check"])
    def test_overflowing_risk_is_a_validation_error(self, tmp_path, capsys, command):
        # Probabilities within tolerance of 1 but above it turn finite costs
        # at the float maximum into an infinite expected cost.
        doc = json.loads(rb.bundled_instance_text())
        doc["scenarios"][0]["prob"] += 5e-10
        assert doc["rules"][1]["id"] == "r2" and doc["rules"][1]["risk"]["measure"] == "expected"
        for trajectory in ("tau1", "tau2"):
            doc["rules"][1]["violations"][trajectory] = {"xi1": sys.float_info.max, "xi2": sys.float_info.max}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        extra = {"risk": ["--rule", "r2"], "explain": ["tau1", "tau2"]}.get(command, [])
        assert main([command, str(path), "--json"] + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert "'r2'" in err and "'tau1'" in err and "inf" in err and "finite" in err

    @pytest.mark.parametrize(
        "args, code",
        [
            (["rank"], 1),
            (["check"], 1),
            (["explain", "tau1", "tau2"], 1),
            (["explain", "tau2", "tau4"], 1),
            (["explain", "tau2", "tau3"], 0),
        ],
    )
    def test_report_fails_on_a_non_finite_risk_it_reads(self, tmp_path, capsys, args, code):
        # Only tau4's r2 risk overflows.  Ranking and checking read every risk;
        # an explain reads its two trajectories' risks and those of the others
        # until each side's optimality is decided (tau1 is optimal, so it is
        # compared with every trajectory, tau4 included).
        doc = json.loads(rb.bundled_instance_text())
        doc["scenarios"][0]["prob"] += 5e-10
        assert doc["rules"][1]["id"] == "r2" and doc["rules"][1]["risk"]["measure"] == "expected"
        doc["rules"][1]["violations"]["tau4"] = {"xi1": sys.float_info.max, "xi2": sys.float_info.max}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([args[0], str(path), "--json"] + args[1:]) == code
        out, err = capsys.readouterr()
        assert "Infinity" not in out
        if code:
            assert out == "" and err.count("\n") == 1 and "'r2'" in err and "'tau4'" in err
        else:
            assert err == "" and json.loads(out)["verdict"] == "lower"

    def test_infinite_threshold_in_the_file_is_a_validation_error(self, tmp_path, capsys):
        text = rb.bundled_instance_text()
        path = tmp_path / "inf-threshold.json"
        path.write_text(text.replace('"threshold": 0', '"threshold": Infinity', 1), encoding="utf-8")
        assert main(["risk", str(path), "--rule", "r1", "--json"]) == 1
        err = self.one_line_error(capsys)
        assert "rules[0].risk" in err and "finite and nonnegative" in err

    def test_infinite_threshold_override_is_a_validation_error(self, av_file, capsys):
        assert main(["risk", av_file, "--rule", "r1", "--threshold", "inf", "--json"]) == 1
        err = self.one_line_error(capsys)
        assert "'r1'" in err and "finite and nonnegative" in err

    def test_override_before_rule_scope(self, av_file, capsys):
        assert main(["rank", av_file, "--measure", "expected"]) == 2
        assert "must follow a --rule" in capsys.readouterr().err

    def test_override_validation_failure(self, av_file, capsys):
        assert main(["rank", av_file, "--rule", "r2", "--measure", "var"]) == 1
        assert "alpha" in capsys.readouterr().err


class TestSharedParser:
    """``main`` parses every call with one parser per process; no call's
    overrides or errors reach a later call."""

    ARGVS = (
        ["rank", "{file}", "--rule", "r1", "--threshold", "175"],
        ["rank", "{file}"],
        ["rank", "{file}", "--json", "--rule", "r1", "--measure", "cvar", "--alpha", "0.9988"],
        ["rank", "{file}", "--json"],
        ["explain", "{file}", "tau2", "tau1", "--rule", "r1", "--measure", "worst_case", "--threshold", "175"],
        ["explain", "{file}", "tau2", "tau1"],
        ["risk", "{file}", "--rule", "r2"],
        ["check", "{file}"],
    )

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_each_call_matches_a_fresh_parser(self, av_file, capsys):
        argvs = [[a.format(file=av_file) for a in argv] for argv in self.ARGVS]
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert cli._parser() is cli._parser()
        assert [self.run(argv, capsys) for argv in argvs] == fresh
        assert [self.run(argv, capsys) for argv in reversed(argvs)] == fresh[::-1]
        assert fresh[2] != fresh[3] and fresh[4] != fresh[5]  # the overrides show in the output

    def test_usage_errors_exit_2_and_leave_the_parser_usable(self, av_file, capsys):
        expected = self.run(["rank", av_file], capsys)
        for argv in (["rank"], ["rank", av_file, "--measure", "nope"], ["bogus", av_file]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "usage" in capsys.readouterr().err
        assert self.run(["rank", av_file], capsys) == expected
        assert cli.build_parser() is not cli.build_parser()


class TestOverrideScopes:
    @pytest.mark.parametrize("override", [[], ["--threshold", "1"]])
    @pytest.mark.parametrize("command", ["rank", "risk", "explain", "check"])
    def test_undeclared_rule_is_a_validation_failure(self, av_file, capsys, command, override):
        extra = ["tau2", "tau1"] if command == "explain" else []
        assert main([command, av_file, *extra, "--rule", "nope", *override]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: unknown rule 'nope'\n"

    @pytest.mark.parametrize(
        "argv, code, built",
        [
            (["risk", "--rule", "r1"], 0, 1),
            (["rank", "--rule", "r1"], 0, 1),
            (["rank", "--rule", "r1", "--threshold", "1"], 0, 2),
            (["rank", "--rule", "r1", "--rule", "r2", "--threshold", "1"], 0, 2),
            (["rank", "--rule", "nope"], 1, 1),
        ],
    )
    def test_only_a_scope_with_overrides_builds_a_copy(self, av_file, capsys, monkeypatch, argv, code, built):
        """The loaded instance is the first construction; each scope that
        holds an override builds one reconfigured copy, and an empty scope
        builds none but must still name a declared rule."""
        constructions = []
        post_init = rb.Instance.__post_init__

        def counted(instance):
            constructions.append(instance)
            post_init(instance)

        monkeypatch.setattr(rb.Instance, "__post_init__", counted)
        assert main([argv[0], av_file, *argv[1:]]) == code
        assert len(constructions) == built
        if code:
            assert capsys.readouterr().err == "error: unknown rule 'nope'\n"

    def test_reopened_scope_collects_its_flags(self, av_file, capsys):
        once = ["--rule", "r1", "--measure", "worst_case", "--threshold", "175", "--rule", "r2"]
        reopened = ["--rule", "r1", "--threshold", "175", "--rule", "r2", "--rule", "r1", "--measure", "worst_case"]
        assert main(["rank", av_file, "--json", *once]) == 0
        expected = capsys.readouterr().out
        assert main(["rank", av_file, "--json", *reopened]) == 0
        assert capsys.readouterr().out == expected
        assert json.loads(expected)["optimal"] == ["tau2"]

    def test_abbreviated_flag_before_any_rule_is_a_usage_error(self, av_file, capsys):
        assert main(["rank", av_file, "--thr", "1", "--rule", "r1"]) == 2
        assert capsys.readouterr().err == "usage error: --threshold must follow a --rule flag naming its scope\n"


class TestFailedCheck:
    def test_intransitive_order_exits_1_naming_the_triple(self, tmp_path, capsys):
        # Violations 0, 6e-10 and 1.2e-9: each is within the absolute
        # tolerance of the next, but c is not within it of a.
        violations = {"a": 0.0, "b": 6e-10, "c": 1.2e-9}
        doc = {
            "scenarios": [{"id": "w", "prob": 1.0}],
            "system_trajectories": list(violations),
            "environment_trajectories": ["e"],
            "interaction": {t: {"w": "e"} for t in violations},
            "rules": [
                {
                    "id": "r",
                    "violations": {t: {"e": v} for t, v in violations.items()},
                    "risk": {"measure": "expected", "threshold": 0},
                }
            ],
            "priority": [],
        }
        path = tmp_path / "intransitive.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "check FAILED" in out and "not transitive at (c, b, a)" in out


def _set(path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


# Each edit breaks the document's shape; the one-line error names the JSON path.
SHAPE_ERRORS = {
    "object expected": (_set(["interaction"], []), "interaction: expected an object, got list"),
    "list expected": (_set(["scenarios"], {}), "scenarios: expected a list, got dict"),
    "string expected": (_set(["system_trajectories", 0], 1), "system_trajectories[0]: expected a string, got int"),
    "interaction cell not a string": (
        _set(["interaction", "tau1", "w2"], 7),
        "interaction.tau1.w2: expected a string, got int",
    ),
    "unexpected risk key": (_set(["rules", 0, "risk", "beta"], 1), "rules[0].risk: unexpected key 'beta'"),
    "priority entry not a pair": (
        lambda doc: doc["priority"].append(["r1"]),
        "priority[3]: expected a [higher, lower] pair",
    ),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_shape_error_exits_1_naming_the_json_path(tmp_path, capsys, case):
    edit, message = SHAPE_ERRORS[case]
    doc = json.loads(rb.bundled_instance_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rank", str(path)]) == 1
    assert TestExitCodes.one_line_error(capsys) == f"error: {message}\n"
