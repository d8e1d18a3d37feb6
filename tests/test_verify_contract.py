"""The contract of `verify`: recorded reports, exit 2 on a disagreeing
oracle, and the exit codes of failures around a run.

The golden reports in tests/data/verify_golden.json were recorded with
`timing_ms` zeroed; re-record them (only after a deliberate report change)
with `PYTHONPATH=src python tests/test_verify_contract.py`.
"""

import json
import sys
from pathlib import Path

import pytest

import solvrad.bsgs
import solvrad.cli
import solvrad.criteria
from solvrad import build_bsgs, construct, parse_cycles
from solvrad.cli import (
    CONTRADICTION_MESSAGE,
    EXIT_BUDGET,
    EXIT_CONTRADICTION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from solvrad.criteria import RANDOMIZED, four_conjugate_element_test
from solvrad.structure import (
    FITTING,
    ORACLE,
    SOLVABLE_RADICAL,
    RadicalResult,
)

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"

GOLDEN_ARGV = [
    # each theorem on a group where its criterion passes for some classes
    # (or the whole group) and on one where it fails
    ["verify", "bs", "S(4)"],
    ["verify", "bs", "A(5)"],
    ["verify", "four", "S(4)"],
    ["verify", "four", "A(5)"],
    ["verify", "two", "A(5)"],
    ["verify", "two", "direct(C(5),A(5))"],
    ["verify", "pairs", "S(4)"],
    ["verify", "pairs", "A(5)"],
    ["verify", "thompson", "S(4)"],
    ["verify", "thompson", "A(5)"],
    ["verify", "two", "direct(C(5),A(5))", "--randomized", "--budget", "40",
     "--seed", "3"],
    ["verify", "four", "A(5)", "--randomized", "--budget", "20", "--seed", "1"],
    # the four-conjugate cover's largest exhaustive scan among these, and
    # the benchmark's randomized group
    ["verify", "four", "direct(S(4),S(4))"],
    ["verify", "four", "direct(S(4),S(4))", "--randomized", "--budget", "60",
     "--seed", "3"],
]


def strip_timing(node):
    if isinstance(node, dict):
        return {
            k: (0 if k == "timing_ms" else strip_timing(v))
            for k, v in node.items()
        }
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


def run(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, strip_timing(json.loads(out))


def golden_cases():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "i", range(len(GOLDEN_ARGV)), ids=[" ".join(a[1:]) for a in GOLDEN_ARGV]
)
def test_report_matches_golden(capsys, i):
    case = golden_cases()[i]
    assert case["argv"] == GOLDEN_ARGV[i]
    code, report = run(capsys, case["argv"])
    assert code == case["exit_code"]
    assert report == case["report"]


# reports recorded while a one-member class still built its centralizer,
# C_G(z) = G, for its one orbit representative; no report may move
CENTRAL_GOLDEN = Path(__file__).parent / "data" / "central_class_golden.json"


@pytest.mark.parametrize("i", range(2), ids=["four", "thompson"])
def test_central_classes_build_no_centralizer(capsys, monkeypatch, i):
    case = json.loads(CENTRAL_GOLDEN.read_text())[i]
    built = []
    real = solvrad.bsgs.centralizer

    def logged(group, x, cls=None):
        built.append(all(x * s == s * x for s in group.generators))
        return real(group, x, cls)

    for module in (solvrad.bsgs, solvrad.criteria):
        monkeypatch.setattr(module, "centralizer", logged)
    code, report = run(capsys, case["argv"])
    assert code == case["exit_code"]
    assert report == case["report"]
    assert built and not any(built)  # centralizers, of no central element


def whole_group(kind):
    """A stand-in oracle that wrongly puts every element in the radical."""
    def oracle(group, classes):
        reps = [c.representative for c in classes]
        return RadicalResult(group, kind, reps, ORACLE)
    return oracle


def solvable(group):
    """A stand-in solvable residual that is wrongly trivial."""
    return 1


@pytest.mark.parametrize(
    "argv, name, stand_in",
    [
        (["bs"], "fitting_oracle", whole_group(FITTING)),
        (["four"], "solvable_radical_oracle", whole_group(SOLVABLE_RADICAL)),
        (["two"], "solvable_radical_oracle", whole_group(SOLVABLE_RADICAL)),
        (["four", "--randomized", "--budget", "50"],
         "solvable_radical_oracle", whole_group(SOLVABLE_RADICAL)),
        (["two", "--randomized", "--budget", "50"],
         "solvable_radical_oracle", whole_group(SOLVABLE_RADICAL)),
        (["pairs"], "solvable_residual_order", solvable),
        (["thompson"], "solvable_residual_order", solvable),
    ],
    ids=lambda p: " ".join(p) if isinstance(p, list) else None,
)
def test_wrong_oracle_is_a_contradiction(capsys, monkeypatch, argv, name, stand_in):
    # the oracle is replaced where the cli looks it up, so this also pins
    # that verify reads its oracles at call time
    monkeypatch.setattr(solvrad.cli, name, stand_in)
    code, report = run(capsys, ["verify", argv[0], "A(5)", *argv[1:]])
    assert code == EXIT_CONTRADICTION
    assert report["details"]["error"] == CONTRADICTION_MESSAGE
    assert report["oracle_comparison"]["equal"] is False


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    out = tmp_path / "no-such-dir" / "report.json"
    code = main(["info", "S(4)", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"cannot write the report to {out}" in captured.err
    assert json.loads(captured.out)["command"] == "info"


def test_cap_message_names_the_element_cap(capsys):
    code, report = run(capsys, [
        "verify", "four", "S(6)", "--element-cap", "100", "--randomized",
        "--budget", "10",
    ])
    assert code == EXIT_BUDGET
    assert "--element-cap" in report["details"]["error"]
    assert "randomized" not in report["details"]["error"]


def test_engine_error_in_a_suite_entry_is_not_a_usage_error(
    capsys, tmp_path, monkeypatch
):
    def broken(*args):
        raise KeyError("engine bug")

    monkeypatch.setattr(solvrad.cli, "cmd_info", broken)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"entries": [{"command": "info", "spec": "S(3)"}]}))
    with pytest.raises(KeyError, match="engine bug"):
        main(["suite", str(cfg)])


@pytest.mark.parametrize("theorem", ["two", "four"])
def test_one_default_sample_budget(capsys, theorem):
    budget = solvrad.criteria.DEFAULT_RANDOMIZED_BUDGET
    # every class of a solvable group passes, so each runs the full budget
    code, report = run(capsys, ["verify", theorem, "C(5)", "--randomized"])
    assert code == EXIT_OK
    counts = [r["tuples_checked"] for r in report["per_element_results"]]
    assert len(counts) >= 4 and set(counts) == {budget}


def test_four_randomized_default_is_the_sample_budget():
    group = build_bsgs(construct("C(2)"))
    x = parse_cycles("(1,2)", 2)
    v = four_conjugate_element_test(group, x, mode=RANDOMIZED)
    assert v.tuples_checked == solvrad.criteria.DEFAULT_RANDOMIZED_BUDGET


if __name__ == "__main__":
    import contextlib
    import io

    cases = []
    for argv in GOLDEN_ARGV:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        cases.append({
            "argv": argv,
            "exit_code": code,
            "report": strip_timing(json.loads(buf.getvalue())),
        })
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(cases)} reports to {GOLDEN}", file=sys.stderr)
