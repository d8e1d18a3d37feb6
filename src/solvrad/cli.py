"""Command-line surface and machine-readable verification reports.

Commands
    info SPEC                     degree, order, class count and sizes
    verify {bs|four|two|pairs|thompson} SPEC
                                  run one criterion against its oracle
    sharpness N                   exhaust transposition triples of S(N)
    suite CONFIG                  run a battery of entries from a config file

Exit codes: 0 = the checked equivalence holds, 2 = theorem contradiction
detected (a bug in this tool, not a counterexample to the established
theorems), 3 = a budget or element cap was exceeded, 4 = usage or parse
error.  Reports are a single JSON document on stdout (and --out); progress
goes to stderr only.  Report content is independent of --threads; identical
(command, spec, seed) runs are byte-identical except for timing fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__
from .bsgs import (
    Bsgs,
    CapExceededError,
    DEFAULT_ELEMENT_CAP,
    build_bsgs,
    conjugacy_classes,
    normal_closure,
    same_subgroup,
)
from .criteria import (
    BudgetExceededError,
    CriterionVerdict,
    DEFAULT_TUPLE_BUDGET,
    EXHAUSTIVE,
    RANDOMIZED,
    Witness,
    baer_suzuki_set,
    class_pair_solvability,
    four_conjugate_radical,
    prime_order_elements,
    thompson_test,
    transposition_triple_sharpness,
    two_conjugate_test,
)
from .perm import CycleFormatError, is_prime, print_cycles
from .structure import (
    derived_series,
    fitting_oracle,
    solvable_radical_oracle,
)
from .zoo import GroupFileError, GroupSpecError, construct

EXIT_OK = 0
EXIT_CONTRADICTION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4

DEFAULT_RANDOMIZED_BUDGET = 1000

# suite entry flags that must be JSON integers (not floats, strings or booleans)
INTEGER_FLAGS = ("budget", "seed", "element_cap", "n")

CONTRADICTION_MESSAGE = (
    "theorem contradiction detected: this indicates a bug in this tool, "
    "not a counterexample to the established theorems"
)


@dataclass
class VerificationReport:
    """One structured document per invocation; round-trips through JSON."""

    tool_version: str
    command: str
    group: Optional[dict]
    search_mode: Optional[str]
    rng_seed: Optional[int]
    per_element_results: list
    oracle_comparison: Optional[dict]
    timing_ms: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls(**json.loads(text))


def _witness_dict(w: Optional[Witness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "conjugators": [print_cycles(x) for x in w.conjugators],
        "generated_order": w.generated_order,
        "solvable": w.solvable,
        "nilpotent": w.nilpotent,
    }


def _verdict_dict(v: CriterionVerdict) -> dict:
    return {
        "element": print_cycles(v.element),
        "element_order": v.element.order(),
        "in_radical_claimed": v.in_radical_claimed,
        "witness": _witness_dict(v.witness),
        "search_mode": v.search_mode,
        "tuples_checked": v.tuples_checked,
    }


def _progress(msg: str) -> None:
    print(f"[solvrad] {msg}", file=sys.stderr, flush=True)


def _group_info(spec: str, group: Bsgs) -> dict:
    return {"spec_text": spec, "degree": group.degree, "order": group.order}


def _require_positive(name: str, value: Optional[int]) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _group_and_classes(
    spec: str, element_cap: int, memo: Optional[dict] = None
) -> tuple[Bsgs, list]:
    """The group of `spec` and its conjugacy classes.  With a memo, a pair
    that an earlier successful build stored under (spec, element_cap) is
    reused instead of being built again."""
    if not isinstance(spec, str):
        raise GroupSpecError(f"a group spec must be a string, got {spec!r}")
    key = (spec, element_cap)
    if memo is not None and key in memo:
        return memo[key]
    group = build_bsgs(construct(spec))
    built = group, conjugacy_classes(group, element_cap)
    if memo is not None:
        memo[key] = built
    return built


def cmd_info(
    spec: str, element_cap: int, memo: Optional[dict] = None
) -> tuple[int, VerificationReport]:
    _require_positive("element_cap", element_cap)
    t0 = time.perf_counter()
    group, classes = _group_and_classes(spec, element_cap, memo)
    profiles = prime_order_elements(classes)
    report = VerificationReport(
        tool_version=__version__,
        command="info",
        group=_group_info(spec, group),
        search_mode=None,
        rng_seed=None,
        per_element_results=[],
        oracle_comparison=None,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "class_count": len(classes),
            "class_sizes": sorted(c.class_size for c in classes),
            "element_orders": sorted({c.representative.order() for c in classes}),
            "prime_order_gt3_class_orders": sorted(p.order for p in profiles),
        },
    )
    return EXIT_OK, report


def _oracle_vs_criterion(group: Bsgs, oracle_sub: Bsgs, criterion_sub: Bsgs) -> dict:
    return {
        "oracle_order": oracle_sub.order,
        "criterion_order": criterion_sub.order,
        "equal": same_subgroup(oracle_sub, criterion_sub),
    }


def _solvability_oracle(group: Bsgs) -> tuple[bool, int]:
    """Whether the group is solvable, and the order of the last term of its
    derived series (the group's order when solvable), from one series."""
    series = derived_series(group)
    if series.terminated:
        return True, group.order
    return False, series.terms[-1].order


def cmd_verify(
    theorem: str,
    spec: str,
    mode: str = EXHAUSTIVE,
    budget: Optional[int] = None,
    seed: int = 0,
    element_cap: int = DEFAULT_ELEMENT_CAP,
    memo: Optional[dict] = None,
) -> tuple[int, VerificationReport]:
    if mode not in (EXHAUSTIVE, RANDOMIZED):
        raise ValueError(
            f"unknown search mode {mode!r}; use {EXHAUSTIVE!r} or {RANDOMIZED!r}"
        )
    _require_positive("budget", budget)
    _require_positive("element_cap", element_cap)
    # bs, pairs and thompson always scan exhaustively, and report so; a
    # --budget given with --randomized counts samples, so it bounds no scan
    if theorem not in ("four", "two") and mode == RANDOMIZED:
        mode, budget = EXHAUSTIVE, None
    if budget is None:
        budget = (
            DEFAULT_RANDOMIZED_BUDGET if mode == RANDOMIZED else DEFAULT_TUPLE_BUDGET
        )
    t0 = time.perf_counter()
    group, classes = _group_and_classes(spec, element_cap, memo)
    _progress(f"verify {theorem} {spec}: order {group.order}")

    per_element: list = []
    details: dict = {}
    comparison: dict

    if theorem == "bs":
        result = baer_suzuki_set(group, classes, budget)
        oracle = fitting_oracle(group, classes)
        comparison = _oracle_vs_criterion(group, oracle.subgroup, result.subgroup)
        per_element = [_verdict_dict(v) for v in result.verdicts]
    elif theorem == "four":
        result = four_conjugate_radical(
            group, classes, mode=mode, tuple_budget=budget, rng_seed=seed
        )
        oracle = solvable_radical_oracle(group, classes)
        if mode == EXHAUSTIVE:
            comparison = _oracle_vs_criterion(
                group, oracle.subgroup, result.subgroup
            )
        else:
            # randomized runs only falsify: a witness against an actual
            # radical member would contradict the theorem
            no_contradiction = all(
                v.witness is None or not oracle.subgroup.contains(v.element)
                for v in result.verdicts
            )
            comparison = {
                "oracle_order": oracle.subgroup.order,
                "criterion_order": result.subgroup.order,
                "equal": no_contradiction,
            }
        per_element = [_verdict_dict(v) for v in result.verdicts]
    elif theorem == "two":
        oracle = solvable_radical_oracle(group, classes)
        verdicts = []
        for cls in classes:
            rep = cls.representative
            n = rep.order()
            if not (is_prime(n) and n > 3):
                continue
            verdicts.append(
                two_conjugate_test(
                    group,
                    rep,
                    mode=mode,
                    budget=budget,
                    rng_seed=seed,
                    class_of_g=cls,
                )
            )
        per_element = [_verdict_dict(v) for v in verdicts]
        claimed = [v.element for v in verdicts if v.in_radical_claimed]
        criterion_sub = normal_closure(group, claimed)
        if mode == EXHAUSTIVE:
            ok = all(
                v.in_radical_claimed == oracle.subgroup.contains(v.element)
                for v in verdicts
            )
        else:
            ok = all(
                v.witness is None or not oracle.subgroup.contains(v.element)
                for v in verdicts
            )
        comparison = {
            "oracle_order": oracle.subgroup.order,
            "criterion_order": criterion_sub.order,
            "equal": ok,
        }
        details["tested_class_reps"] = len(verdicts)
    elif theorem == "pairs":
        pv = class_pair_solvability(group, classes, budget)
        solvable, oracle_order = _solvability_oracle(group)
        comparison = {
            "oracle_order": oracle_order,
            "criterion_order": (
                group.order
                if pv.all_classes_pass
                else pv.witness.generated_order
            ),
            "equal": pv.all_classes_pass == solvable,
        }
        details = {
            "criterion_holds": pv.all_classes_pass,
            "group_is_solvable": solvable,
            "pairs_checked": pv.pairs_checked,
            "witness_element": (
                print_cycles(pv.witness_element) if pv.witness_element else None
            ),
            "witness": _witness_dict(pv.witness),
        }
    elif theorem == "thompson":
        tv = thompson_test(group, element_cap, classes)
        solvable, oracle_order = _solvability_oracle(group)
        comparison = {
            "oracle_order": oracle_order,
            "criterion_order": (
                group.order if tv.all_pairs_solvable else tv.generated_order
            ),
            "equal": tv.all_pairs_solvable == solvable,
        }
        details = {
            "criterion_holds": tv.all_pairs_solvable,
            "group_is_solvable": solvable,
            "pairs_checked": tv.pairs_checked,
            "witness_pair": (
                [print_cycles(p) for p in tv.witness_pair]
                if tv.witness_pair
                else None
            ),
            "generated_order": tv.generated_order,
        }
    else:
        raise GroupSpecError(f"unknown theorem {theorem!r}")

    report = VerificationReport(
        tool_version=__version__,
        command=f"verify {theorem}",
        group=_group_info(spec, group),
        search_mode=mode,
        rng_seed=seed if mode == RANDOMIZED else None,
        per_element_results=per_element,
        oracle_comparison=comparison,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
        details=details,
    )
    if not comparison["equal"]:
        _progress(CONTRADICTION_MESSAGE)
        report.details["error"] = CONTRADICTION_MESSAGE
        return EXIT_CONTRADICTION, report
    return EXIT_OK, report


def cmd_sharpness(n: int) -> tuple[int, VerificationReport]:
    t0 = time.perf_counter()
    rep = transposition_triple_sharpness(n)
    report = VerificationReport(
        tool_version=__version__,
        command="sharpness",
        group={"spec_text": f"S({n})", "degree": n, "order": None},
        search_mode=EXHAUSTIVE,
        rng_seed=None,
        per_element_results=[],
        oracle_comparison=None,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "n": n,
            "triples_checked": rep.triples_checked,
            "all_solvable": rep.all_solvable,
            "max_generated_order": rep.max_generated_order,
        },
    )
    if not rep.all_solvable:
        report.details["error"] = CONTRADICTION_MESSAGE
        return EXIT_CONTRADICTION, report
    return EXIT_OK, report


def cmd_suite(
    config_path: str,
    seed: Optional[int] = None,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> tuple[int, VerificationReport]:
    _require_positive("element_cap", element_cap)
    t0 = time.perf_counter()
    try:
        with open(config_path) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise GroupFileError(f"cannot read suite config {config_path}: {e}") from e
    entries = _suite_entries(config, config_path)

    sub_reports = []
    worst = EXIT_OK
    built: dict = {}  # (spec, element_cap) -> (group, classes), this call only
    for entry in entries:
        command = entry.get("command")
        spec = entry.get("spec")
        flags = dict(entry.get("flags", {}))
        if seed is not None:
            flags["seed"] = seed
        code, rep = _run_entry(command, spec, flags, element_cap, built)
        sub_reports.append({"exit_code": code, "report": asdict(rep)})
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    report = VerificationReport(
        tool_version=__version__,
        command="suite",
        group=None,
        search_mode=None,
        rng_seed=seed,
        per_element_results=[],
        oracle_comparison=None,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "config": config_path,
            "entry_count": len(entries),
            "all_passed": worst == EXIT_OK,
            "entries": sub_reports,
        },
    )
    return worst, report


def _suite_entries(config, config_path: str) -> list:
    """The entries of a parsed suite config, checked for shape before any
    of them runs."""
    if not isinstance(config, dict):
        raise GroupFileError(f"suite config {config_path} must be a JSON object")
    entries = config.get("entries")
    if not isinstance(entries, list):
        raise GroupFileError(f"suite config {config_path} needs an 'entries' list")
    for i, entry in enumerate(entries):
        where = f"suite config {config_path}, entry {i}"
        if not isinstance(entry, dict):
            raise GroupFileError(f"{where}: an entry must be an object, got {entry!r}")
        flags = entry.get("flags", {})
        if not isinstance(flags, dict):
            raise GroupFileError(f"{where}: 'flags' must be an object, got {flags!r}")
        if not isinstance(flags.get("randomized", False), bool):
            raise GroupFileError(
                f"{where}: 'randomized' must be true or false, "
                f"got {flags['randomized']!r}"
            )
        for name in INTEGER_FLAGS:
            value = flags.get(name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise GroupFileError(
                    f"{where}: '{name}' must be an integer, got {value!r}"
                )
        if entry.get("command") == "sharpness" and "n" not in flags:
            raise GroupFileError(f"{where}: a sharpness entry needs 'n' in its flags")
    return entries


def _run_entry(
    command, spec, flags, element_cap, memo
) -> tuple[int, VerificationReport]:
    mode = RANDOMIZED if flags.get("randomized") else flags.get("mode", EXHAUSTIVE)
    budget = flags.get("budget")
    seed = flags.get("seed", 0)
    cap = flags.get("element_cap", element_cap)
    try:
        if command == "info":
            return cmd_info(spec, cap, memo)
        if command == "sharpness":
            return cmd_sharpness(flags["n"])
        if command in ("bs", "four", "two", "pairs", "thompson"):
            return cmd_verify(command, spec, mode, budget, seed, cap, memo)
        raise GroupSpecError(f"unknown suite command {command!r}")
    except (BudgetExceededError, CapExceededError) as e:
        return EXIT_BUDGET, _error_report(command or "?", spec, str(e))
    except (GroupSpecError, GroupFileError, CycleFormatError, ValueError, KeyError) as e:
        return EXIT_USAGE, _error_report(command or "?", spec, str(e))


def _error_report(command: str, spec, message: str) -> VerificationReport:
    return VerificationReport(
        tool_version=__version__,
        command=command,
        group={"spec_text": spec, "degree": None, "order": None},
        search_mode=None,
        rng_seed=None,
        per_element_results=[],
        oracle_comparison=None,
        timing_ms=0.0,
        details={"error": message},
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvrad",
        description="Verify conjugate-generation characterizations of the "
        "solvable and nilpotent radicals on concrete permutation groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_search=True):
        p.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
        p.add_argument("--threads", type=int, default=1,
                       help="parallelism hint; report content never depends on it")
        p.add_argument("--out", type=str, default=None,
                       help="also write the JSON report to this path")
        if with_search:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--exhaustive", action="store_true")
            g.add_argument("--randomized", action="store_true")
            p.add_argument("--budget", type=int, default=None,
                           help="tuple budget (exhaustive) or sample count "
                           "(randomized)")
            p.add_argument("--seed", type=int, default=0)

    p_info = sub.add_parser("info", help="degree, order and class data")
    p_info.add_argument("spec")
    common(p_info, with_search=False)

    p_verify = sub.add_parser("verify", help="check one criterion against its oracle")
    p_verify.add_argument("theorem", choices=["bs", "four", "two", "pairs", "thompson"])
    p_verify.add_argument("spec")
    common(p_verify)

    p_sharp = sub.add_parser("sharpness", help="transposition-triple exhaustion")
    p_sharp.add_argument("n", type=int)
    common(p_sharp, with_search=False)

    p_suite = sub.add_parser("suite", help="run a config of entries")
    p_suite.add_argument("config")
    p_suite.add_argument("--seed", type=int, default=None)
    common(p_suite, with_search=False)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; remap to the documented code
        if e.code not in (0, None):
            return EXIT_USAGE
        return 0

    if getattr(args, "threads", 1) < 1:
        print("--threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE

    spec = getattr(args, "spec", None)
    try:
        if args.command == "info":
            code, report = cmd_info(args.spec, args.element_cap)
        elif args.command == "verify":
            mode = RANDOMIZED if args.randomized else EXHAUSTIVE
            code, report = cmd_verify(
                args.theorem, args.spec, mode, args.budget, args.seed,
                args.element_cap,
            )
        elif args.command == "sharpness":
            code, report = cmd_sharpness(args.n)
        elif args.command == "suite":
            code, report = cmd_suite(args.config, args.seed, args.element_cap)
        else:  # pragma: no cover - argparse enforces choices
            return EXIT_USAGE
    except (BudgetExceededError, CapExceededError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        code, report = EXIT_BUDGET, _error_report(args.command, spec, str(e))
    except (GroupSpecError, GroupFileError, CycleFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        code, report = EXIT_USAGE, _error_report(args.command, spec, str(e))

    text = report.to_json()
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
