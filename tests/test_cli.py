import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

import solvrad
import solvrad.bsgs
import solvrad.cli
import solvrad.criteria
from solvrad.bsgs import GeneratorSet, build_bsgs
from solvrad.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    GroupContext,
    VerificationReport,
    cmd_suite,
    main,
)
from solvrad.perm import parse_cycles
from solvrad.zoo import construct
from solvrad.structure import is_solvable

BATTERY = Path(solvrad.__file__).parent / "data" / "default_battery.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def strip_timing(node):
    if isinstance(node, dict):
        return {
            k: (0 if k == "timing_ms" else strip_timing(v))
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


class TestInfo:
    def test_s5(self, capsys):
        code, rep = run(capsys, "info", "S(5)")
        assert code == EXIT_OK
        assert rep["group"] == {"spec_text": "S(5)", "degree": 5, "order": 120}
        assert rep["details"]["class_count"] == 7

    def test_trivial_group(self, capsys):
        code, rep = run(capsys, "info", "C(1)")
        assert code == EXIT_OK
        assert rep["group"]["order"] == 1

    def test_sz8_fixture(self, capsys):
        code, rep = run(capsys, "info", "file:sz8.json")
        assert code == EXIT_OK
        assert rep["group"]["order"] == 29120
        assert rep["details"]["prime_order_gt3_class_orders"] == [5, 7, 7, 7, 13, 13, 13]

    def test_parse_error_exit_code(self, capsys):
        assert main(["info", "Q(5)"]) == EXIT_USAGE

    def test_cap_exceeded_exit_code(self, capsys):
        assert main(["info", "S(5)", "--element-cap", "10"]) == EXIT_BUDGET

    def test_over_cap_named_group_is_refused_before_its_build(
        self, capsys, monkeypatch
    ):
        # the spec gives S(60)'s order, so no Schreier-Sims runs: building
        # S(60) takes about 8 s, and S(150) minutes
        def no_build(gens):
            pytest.fail("an over-cap named group was built")

        monkeypatch.setattr(solvrad.cli, "build_bsgs", no_build)
        t0 = time.perf_counter()
        code, rep = run(capsys, "info", "S(60)")
        assert time.perf_counter() - t0 < 2.0
        assert code == EXIT_BUDGET
        assert rep["details"]["error"] == (
            f"group order {math.factorial(60)} exceeds element cap 200000; "
            "every command enumerates the conjugacy classes first, so raise "
            "--element-cap"
        )

    @pytest.mark.parametrize("spec", ["S(6)", "direct(S(3),D(4),C(5))", "PSL2(11)"])
    def test_refusal_before_the_build_gives_the_built_groups_message(
        self, capsys, spec
    ):
        with pytest.raises(solvrad.bsgs.CapExceededError) as built:
            solvrad.bsgs.conjugacy_classes(build_bsgs(construct(spec)), 100)
        code, rep = run(capsys, "info", spec, "--element-cap", "100")
        assert code == EXIT_BUDGET
        assert rep["details"]["error"] == str(built.value)

    @pytest.mark.parametrize("spec", ["file:{}", "direct(file:{},C(2))"])
    def test_over_cap_file_group_is_refused_before_its_build(
        self, capsys, monkeypatch, tmp_path, spec
    ):
        # a file's checked claimed_order is the order of the group it names
        path = tmp_path / "s7.json"
        path.write_text(json.dumps({
            "format_version": 1, "name": "S7", "degree": 7,
            "generators": ["(1,2)", "(1,2,3,4,5,6,7)"], "claimed_order": 5040,
        }))
        spec = spec.format(path)
        with pytest.raises(solvrad.bsgs.CapExceededError) as built:
            solvrad.bsgs.conjugacy_classes(build_bsgs(construct(spec)), 1000)

        def no_build(gens):
            pytest.fail("an over-cap file group was built")

        monkeypatch.setattr(solvrad.cli, "build_bsgs", no_build)
        code, rep = run(capsys, "info", spec, "--element-cap", "1000")
        assert code == EXIT_BUDGET
        assert rep["details"]["error"] == str(built.value)


    @pytest.mark.parametrize("spec, order", [("file:sz8.json", 29120), ("S(6)", 720)])
    def test_a_context_builds_its_group_once(self, monkeypatch, spec, order):
        # a file with a claimed_order is built to check it, and that build
        # is the context's group
        made = []
        init = solvrad.bsgs.Bsgs.__init__

        def counted(self, gens, bound=None):
            made.append(bound)
            init(self, gens, bound)

        monkeypatch.setattr(solvrad.bsgs.Bsgs, "__init__", counted)
        ctx = GroupContext(spec, 200_000)
        assert made == [None]
        assert ctx.group.order == order

    @pytest.mark.parametrize(
        "argv, cap",
        [(["info", "S(5)"], "0"), (["info", "S(5)"], "-1"), (["sharpness", "5"], "0")],
        ids=["0", "-1", "sharpness-0"],
    )
    def test_non_positive_element_cap_is_usage_error(self, capsys, argv, cap):
        code, rep = run(capsys, *argv, "--element-cap", cap)
        assert code == EXIT_USAGE
        assert "element_cap must be >= 1" in rep["details"]["error"]


class TestVerify:
    def test_bs_s4(self, capsys):
        code, rep = run(capsys, "verify", "bs", "S(4)")
        assert code == EXIT_OK
        assert rep["oracle_comparison"] == {
            "oracle_order": 4, "criterion_order": 4, "equal": True,
        }
        assert len(rep["per_element_results"]) == 5

    def test_two_direct_product(self, capsys):
        code, rep = run(capsys, "verify", "two", "direct(C(5),A(5))")
        assert code == EXIT_OK
        results = rep["per_element_results"]
        claimed = [r for r in results if r["in_radical_claimed"]]
        refused = [r for r in results if not r["in_radical_claimed"]]
        assert claimed and refused
        assert all(r["witness"] is not None for r in refused)
        # the passing reps are exactly the ones inside the C(5) factor
        for r in claimed:
            p = parse_cycles(r["element"], 10)
            assert all(point <= 5 for point in p.support())
        for r in refused:
            p = parse_cycles(r["element"], 10)
            assert any(point > 5 for point in p.support())

    def test_pairs_a5_reports_witness(self, capsys):
        code, rep = run(capsys, "verify", "pairs", "A(5)")
        assert code == EXIT_OK  # nonsolvable group, criterion false: equivalent
        assert rep["details"]["criterion_holds"] is False
        assert rep["details"]["group_is_solvable"] is False
        w = rep["details"]["witness"]
        # the serialized witness regenerates to a nonsolvable subgroup
        element = parse_cycles(rep["details"]["witness_element"], 5)
        conjugators = [parse_cycles(t, 5) for t in w["conjugators"]]
        gens = [element] + [x * element * x.inverse() for x in conjugators]
        sub = build_bsgs(GeneratorSet(5, gens))
        assert sub.order == w["generated_order"]
        assert not is_solvable(sub)

    def test_thompson_solvable_group(self, capsys):
        code, rep = run(capsys, "verify", "thompson", "direct(C(4),S(3))")
        assert code == EXIT_OK
        assert rep["details"]["criterion_holds"] is True

    def test_four_budget_exceeded(self, capsys):
        assert main(["verify", "four", "S(5)", "--budget", "10"]) == EXIT_BUDGET

    def test_four_budget_bounds_the_reported_space(self, capsys):
        # S(4)'s largest reduced space is 4 * 8^2 = 256 (3-cycles), not 8^3
        code, rep = run(capsys, "verify", "four", "S(4)", "--budget", "256")
        assert code == EXIT_OK
        assert max(v["tuples_checked"] for v in rep["per_element_results"]) == 256
        assert main(["verify", "four", "S(4)", "--budget", "255"]) == EXIT_BUDGET

    @pytest.mark.parametrize("theorem", ["two", "bs", "pairs"])
    def test_exhaustive_budget_exceeded(self, capsys, theorem):
        code, rep = run(capsys, "verify", theorem, "A(5)", "--budget", "1")
        assert code == EXIT_BUDGET
        assert "exceed the tuple budget 1" in rep["details"]["error"]

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("four", "S(4)", "--budget", "255"),
             "256 reduced triples exceed the tuple budget 255"),
            (("two", "A(5)", "--budget", "1"),
             "4 orbit representatives exceed the tuple budget 1"),
        ],
    )
    def test_budget_error_names_the_scanned_space(self, capsys, argv, error):
        # one class scan serves both, with one conjugate or with three
        code, rep = run(capsys, "verify", *argv)
        assert code == EXIT_BUDGET
        assert rep["details"]["error"] == error

    @pytest.mark.parametrize("theorem", ["bs", "pairs"])
    def test_randomized_budget_is_not_a_tuple_budget(self, capsys, theorem):
        # bs and pairs always scan exhaustively; --budget counts samples only
        assert main(["verify", theorem, "A(5)", "--randomized", "--budget", "1"]) == EXIT_OK

    @pytest.mark.parametrize("theorem", ["bs", "pairs", "thompson"])
    def test_exhaustive_theorems_report_exhaustive_under_randomized(
        self, capsys, theorem
    ):
        code, rep = run(
            capsys, "verify", theorem, "A(5)", "--randomized", "--seed", "9"
        )
        assert code == EXIT_OK
        assert (rep["search_mode"], rep["rng_seed"]) == ("exhaustive", None)
        _, exhaustive = run(capsys, "verify", theorem, "A(5)")
        assert strip_timing(rep) == strip_timing(exhaustive)

    def test_randomized_two_records_seed(self, capsys):
        code, rep = run(
            capsys, "verify", "two", "A(5)", "--randomized", "--seed", "5",
            "--budget", "50",
        )
        assert code == EXIT_OK
        assert rep["search_mode"] == "randomized"
        assert rep["rng_seed"] == 5

    def test_unknown_theorem_is_usage_error(self, capsys):
        assert main(["verify", "nope", "S(4)"]) == EXIT_USAGE

    @pytest.mark.parametrize("mode", [[], ["--randomized"]])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_budget_is_usage_error(self, capsys, mode, budget):
        code, rep = run(capsys, "verify", "two", "A(5)", *mode, "--budget", budget)
        assert code == EXIT_USAGE
        assert "budget must be >= 1" in rep["details"]["error"]

    def test_negative_element_cap_is_usage_error(self, capsys):
        code, rep = run(capsys, "verify", "bs", "S(4)", "--element-cap", "-1")
        assert code == EXIT_USAGE
        assert "element_cap must be >= 1" in rep["details"]["error"]

    def test_negative_seed_is_usage_error(self, capsys):
        # Random(-s) is seeded like Random(s): a negative seed would rerun
        # seed s's stream under another name
        argv = ["verify", "four", "S(4)", "--randomized", "--budget", "20"]
        code, rep = run(capsys, *argv, "--seed", "-1")
        assert code == EXIT_USAGE
        assert rep["details"]["error"] == "seed must be >= 0, got -1"
        code, rep = run(capsys, *argv, "--seed", "0")
        assert code == EXIT_OK
        assert rep["rng_seed"] == 0


class TestSharpness:
    def test_n5(self, capsys):
        code, rep = run(capsys, "sharpness", "5")
        assert code == EXIT_OK
        assert rep["details"]["triples_checked"] == 120
        assert rep["details"]["all_solvable"] is True

    def test_out_of_range(self, capsys):
        assert main(["sharpness", "4"]) == EXIT_USAGE


class TestReports:
    def test_round_trip(self, capsys):
        _, rep = run(capsys, "verify", "bs", "S(3)")
        text = json.dumps(rep, sort_keys=True, indent=2)
        again = VerificationReport.from_json(text)
        assert json.loads(again.to_json()) == rep

    def test_suite_json_equals_the_deep_copied_json(self, capsys):
        # the shallow field dict serializes as dataclasses.asdict's copy did
        _, rep = cmd_suite(str(BATTERY))
        text = rep.to_json()
        assert text == json.dumps(asdict(rep), sort_keys=True, indent=2)
        assert VerificationReport.from_json(text).to_json() == text
        assert VerificationReport.from_json(text) == rep

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["info", "S(4)", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.read_text().strip() == stdout.strip()

    def test_error_report_still_written_with_out(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "four", "S(5)", "--budget", "10",
                     "--out", str(out)])
        assert code == EXIT_BUDGET
        doc = json.loads(out.read_text())
        assert "exceed" in doc["details"]["error"]

    def test_tool_version_recorded(self, capsys):
        _, rep = run(capsys, "info", "S(3)")
        assert rep["tool_version"] == solvrad.__version__


class TestSuite:
    def test_empty_config(self, capsys, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"entries": []}))
        code, rep = run(capsys, "suite", str(cfg))
        assert code == EXIT_OK
        assert rep["details"]["all_passed"] is True
        assert rep["details"]["entries"] == []

    def test_small_battery(self, capsys, tmp_path):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"entries": [
            {"command": "bs", "spec": "S(4)"},
            {"command": "pairs", "spec": "C(12)"},
            {"command": "sharpness", "flags": {"n": 5}},
        ]}))
        code, rep = run(capsys, "suite", str(cfg))
        assert code == EXIT_OK
        assert rep["details"]["all_passed"] is True
        assert rep["details"]["entry_count"] == 3

    def test_false_claimed_order_fixture_fails(self, capsys, tmp_path):
        lie = tmp_path / "lie.json"
        lie.write_text(json.dumps({
            "format_version": 1, "name": "lie", "degree": 4,
            "generators": ["(1,2)", "(1,2,3,4)"], "claimed_order": 100,
            "provenance": "unit test",
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"entries": [
            {"command": "info", "spec": f"file:{lie}"},
        ]}))
        code, rep = run(capsys, "suite", str(cfg))
        assert code != EXIT_OK
        assert rep["details"]["all_passed"] is False

    def test_missing_config(self, capsys):
        assert main(["suite", "no-such-config.json"]) == EXIT_USAGE

    def suite(self, capsys, tmp_path, entries, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"entries": entries}))
        return run(capsys, "suite", str(cfg), *argv)

    @pytest.mark.parametrize(
        "config, message",
        [
            ([], "must be a JSON object"),
            ({"entries": [5]}, "entry 0: an entry must be an object"),
            ({"entries": [{"command": "info", "spec": "S(3)", "flags": [1]}]},
             "entry 0: 'flags' must be an object"),
            ({"entries": [{"command": "two", "spec": "A(5)",
                           "flags": {"randomized": "no"}}]},
             "entry 0: 'randomized' must be true or false"),
            ({"entries": [{"command": "two", "spec": "A(5)",
                           "flags": {"randomized": True, "budjet": 3}}]},
             "entry 0: unknown flag 'budjet'"),
            ({"entries": [{"command": "two", "spec": "A(5)",
                           "flag": {"budget": 3}}]},
             "entry 0: unknown key 'flag'"),
            ({"entries": [{"command": ["bs"], "spec": "S(4)"}]},
             "entry 0: unknown command ['bs']"),
            ({"entries": [{"spec": "S(4)"}]},
             "entry 0: unknown command None"),
            ({"entries": [{"command": "info", "spec": "S(3)"},
                          {"command": "suite", "spec": "S(4)"}]},
             "entry 1: unknown command 'suite'"),
        ],
        ids=["top-level-list", "entry-not-object", "flags-not-object",
             "randomized-not-bool", "unknown-flag", "unknown-entry-key",
             "command-not-string", "command-missing", "command-unknown"],
    )
    def test_malformed_config_is_usage_error(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, rep = run(capsys, "suite", str(cfg))
        assert code == EXIT_USAGE
        assert message in rep["details"]["error"]
        assert "entries" not in rep["details"]

    @pytest.mark.parametrize(
        "bad_entry, message",
        [
            ({"command": "two", "spec": "A(5)", "flags": {"budget": 2.9}},
             "entry 1: 'budget' must be an integer, got 2.9"),
            ({"command": "two", "spec": "A(5)",
              "flags": {"randomized": True, "seed": True}},
             "entry 1: 'seed' must be an integer, got True"),
            ({"command": "two", "spec": "A(5)", "flags": {"budget": "ten"}},
             "entry 1: 'budget' must be an integer, got 'ten'"),
            ({"command": "info", "spec": "S(4)", "flags": {"element_cap": "x"}},
             "entry 1: 'element_cap' must be an integer, got 'x'"),
            ({"command": "sharpness"},
             "entry 1: a sharpness entry needs 'n' in its flags"),
            ({"command": "two"},
             "entry 1: a group spec must be a string, got None"),
            # a list spec is not hashable either
            ({"command": "info", "spec": ["S(4)"]},
             "entry 1: a group spec must be a string, got ['S(4)']"),
        ],
        ids=["float-budget", "bool-seed", "string-budget", "string-element-cap",
             "sharpness-without-n", "spec-missing", "spec-not-string"],
    )
    def test_bad_integer_flag_is_usage_error(
        self, capsys, tmp_path, bad_entry, message
    ):
        # the whole config is refused before its valid first entry runs
        code, rep = self.suite(
            capsys, tmp_path, [{"command": "info", "spec": "S(3)"}, bad_entry]
        )
        assert code == EXIT_USAGE
        assert message in rep["details"]["error"]
        assert "entries" not in rep["details"]

    def test_unknown_mode_is_usage_error(self, capsys, tmp_path):
        # `randomized` alone sets the search mode; `mode` is no flag, so the
        # whole config is refused before its valid first entry runs, even
        # with a mode that names one
        for mode in ("bogus", "exhaustive"):
            code, rep = self.suite(capsys, tmp_path, [
                {"command": "info", "spec": "S(3)"},
                {"command": "two", "spec": "A(5)",
                 "flags": {"randomized": True, "mode": mode}},
            ])
            assert code == EXIT_USAGE
            assert "entry 1: unknown flag 'mode'" in rep["details"]["error"]
            assert "entries" not in rep["details"]

    def test_negative_budget_is_usage_error(self, capsys, tmp_path):
        code, rep = self.suite(capsys, tmp_path, [
            {"command": "two", "spec": "A(5)",
             "flags": {"randomized": True, "budget": -3}},
        ])
        assert code == EXIT_USAGE
        entry = rep["details"]["entries"][0]
        assert entry["exit_code"] == EXIT_USAGE
        assert entry["report"]["per_element_results"] == []
        assert "budget must be >= 1" in entry["report"]["details"]["error"]

    def test_negative_entry_seed_is_usage_error(self, capsys, tmp_path):
        code, rep = self.suite(capsys, tmp_path, [
            {"command": "two", "spec": "A(5)",
             "flags": {"randomized": True, "budget": 5, "seed": -1}},
            {"command": "two", "spec": "A(5)",
             "flags": {"randomized": True, "budget": 5, "seed": 0}},
        ])
        assert code == EXIT_USAGE
        entries = rep["details"]["entries"]
        assert [e["exit_code"] for e in entries] == [EXIT_USAGE, EXIT_OK]
        assert entries[0]["report"]["details"]["error"] == (
            "seed must be >= 0, got -1"
        )
        assert entries[1]["report"]["rng_seed"] == 0

    def test_non_positive_entry_element_cap_is_usage_error(self, capsys, tmp_path):
        code, rep = self.suite(capsys, tmp_path, [
            {"command": "info", "spec": "S(4)", "flags": {"element_cap": 0}},
            {"command": "sharpness",
             "flags": {"n": 5, "element_cap": -2, "budget": 0}},
        ])
        assert code == EXIT_USAGE
        assert [e["exit_code"] for e in rep["details"]["entries"]] == [
            EXIT_USAGE, EXIT_USAGE,
        ]

    def test_negative_suite_element_cap_is_usage_error(self, capsys, tmp_path):
        code, _ = self.suite(
            capsys, tmp_path, [{"command": "info", "spec": "S(4)"}],
            "--element-cap", "-1",
        )
        assert code == EXIT_USAGE

    def test_negative_suite_seed_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(solvrad.cli, "_run_entry", None)  # no entry runs
        code, rep = self.suite(
            capsys, tmp_path, [{"command": "info", "spec": "S(4)"}],
            "--seed", "-1",
        )
        assert code == EXIT_USAGE
        assert rep["details"]["error"] == "seed must be >= 0, got -1"
        assert "entries" not in rep["details"]

    def test_entries_sharing_a_spec_match_their_solo_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        builds = []
        real = solvrad.cli.conjugacy_classes

        def counted(group, element_cap):
            builds.append(element_cap)
            return real(group, element_cap)

        # centralizers per (group, element) and oracles per group
        centralizers = Counter()
        real_centralizer = solvrad.bsgs.centralizer

        def counted_centralizer(group, x, cls=None):
            centralizers[group, x] += 1
            return real_centralizer(group, x, cls)

        oracles = Counter()
        real_oracle = solvrad.cli.solvable_radical_oracle

        def counted_oracle(group, classes):
            oracles[group] += 1
            return real_oracle(group, classes)

        monkeypatch.setattr(solvrad.cli, "conjugacy_classes", counted)
        monkeypatch.setattr(solvrad.criteria, "conjugacy_classes", counted)
        for module in (solvrad.bsgs, solvrad.criteria):
            monkeypatch.setattr(module, "centralizer", counted_centralizer)
        monkeypatch.setattr(solvrad.cli, "solvable_radical_oracle", counted_oracle)
        entries = [
            {"command": "info", "spec": "S(5)"},
            {"command": "info", "spec": "S(5)", "flags": {"element_cap": 10}},
            {"command": "bs", "spec": "S(5)"},
            {"command": "two", "spec": "S(5)"},
            {"command": "pairs", "spec": "S(5)"},
            {"command": "thompson", "spec": "S(5)"},
            {"command": "bs", "spec": "S(5)", "flags": {"budget": 1}},
            {"command": "two", "spec": "Q(5)"},
            {"command": "sharpness", "flags": {"n": 5}},
            {"command": "two", "spec": "S(5)",
             "flags": {"randomized": True, "budget": 30, "seed": 4}},
        ]
        code, rep = self.suite(capsys, tmp_path, entries)
        assert code == EXIT_BUDGET
        # one successful build shared by seven entries; the capped one is
        # refused from the order its spec gives, before a build
        assert builds == [200_000]
        # bs, two, pairs and thompson share the centralizer of each of the
        # six classes past the identity's, a one-member class that builds
        # none, and both two entries share the solvable-radical oracle
        assert len(centralizers) == 6 and set(centralizers.values()) == {1}
        assert list(oracles.values()) == [1]
        got = rep["details"]["entries"]
        assert [e["exit_code"] for e in got] == [
            EXIT_OK, EXIT_BUDGET, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK,
            EXIT_BUDGET, EXIT_USAGE, EXIT_OK, EXIT_OK,
        ]
        for entry, sub in zip(entries, got):
            flags = dict(entry.get("flags", {}))
            if entry["command"] == "sharpness":
                argv = ["sharpness", str(flags.pop("n"))]
            elif entry["command"] == "info":
                argv = ["info", entry["spec"]]
            else:
                argv = ["verify", entry["command"], entry["spec"]]
            for name, value in flags.items():
                argv += ["--randomized"] if name == "randomized" else [
                    "--" + name.replace("_", "-"), str(value),
                ]
            solo_code, solo = run(capsys, *argv)
            assert solo_code == sub["exit_code"]
            assert strip_timing(sub["report"]) == strip_timing(solo)


class TestDeterminism:
    def test_reports_independent_of_threads(self, capsys, tmp_path):
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps({"entries": [
            {"command": "two", "spec": "A(5)"},
            {"command": "four", "spec": "S(4)"},
            {"command": "two", "spec": "A(5)",
             "flags": {"randomized": True, "budget": 30}},
        ]}))
        _, rep1 = run(capsys, "suite", str(cfg), "--seed", "7", "--threads", "1")
        _, rep2 = run(capsys, "suite", str(cfg), "--seed", "7", "--threads", "8")
        assert strip_timing(rep1) == strip_timing(rep2)

    def test_identical_runs_identical_reports(self, capsys):
        _, rep1 = run(capsys, "verify", "bs", "S(4)")
        _, rep2 = run(capsys, "verify", "bs", "S(4)")
        assert strip_timing(rep1) == strip_timing(rep2)


def test_python_dash_m_runs_the_cli():
    src = str(Path(solvrad.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "solvrad", "verify", "two", "A(5)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["command"] == "verify two"


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # bytes hashes, unlike int-tuple hashes, are salted by PYTHONHASHSEED, so
    # a report that iterated a set of permutations would change with it
    entries = [
        {"command": "two", "spec": "file:sz8.json"},
        {"command": "pairs", "spec": "file:sz8.json"},
        {"command": "four", "spec": "direct(S(4),S(4))", "flags": {"randomized": True}},
        {"command": "thompson", "spec": "direct(S(4),S(3))"},
    ]
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"entries": entries}))
    src = str(Path(solvrad.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    texts = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED=hash_seed,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "solvrad", "suite", str(cfg)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(proc.stdout)
        assert [e["exit_code"] for e in report["details"]["entries"]] == [0] * 4
        texts.append(json.dumps(strip_timing(report)))
    assert texts[0] == texts[1]
