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

Suite entries with one spec and element cap share one GroupContext: its group,
classes, centralizers and oracles are computed once, and the group keeps
its own solvability and nilpotency facts.  Each class's orbit representatives
are one growing prefix, produced as far as a scan reads and shared by every
entry that scans the class.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

from . import __version__
from .bsgs import (
    CapExceededError,
    DEFAULT_ELEMENT_CAP,
    _check_element_cap,
    build_bsgs,
    conjugacy_classes,
)
from .criteria import (
    BudgetExceededError,
    CriterionVerdict,
    EXHAUSTIVE,
    RANDOMIZED,
    Witness,
    _budget_or_default,
    baer_suzuki_set,
    class_pair_solvability,
    four_conjugate_radical,
    prime_order_elements,
    thompson_test,
    transposition_triple_sharpness,
    two_conjugate_radical,
)
from .perm import CycleFormatError, print_cycles
from .structure import (
    fitting_oracle,
    solvable_radical_oracle,
    solvable_residual_order,
)
from .zoo import GroupFileError, GroupSpecError, construct

EXIT_OK = 0
EXIT_CONTRADICTION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4

# the expected failures of a run, and their exit codes; any other exception
# is a bug in this tool and propagates
BUDGET_ERRORS = (BudgetExceededError, CapExceededError)
USAGE_ERRORS = (GroupSpecError, GroupFileError, CycleFormatError, ValueError)

# the keys of a suite entry and the flags that the entry runner reads; the
# INTEGER_FLAGS must be JSON integers (not floats, strings or booleans)
ENTRY_KEYS = ("command", "spec", "flags")
INTEGER_FLAGS = ("budget", "seed", "element_cap", "n")
FLAGS = ("randomized", *INTEGER_FLAGS)

CONTRADICTION_MESSAGE = (
    "theorem contradiction detected: this indicates a bug in this tool, "
    "not a counterexample to the established theorems"
)


@dataclass
class VerificationReport:
    """One structured document per invocation; round-trips through JSON."""

    command: str
    tool_version: str = __version__
    group: Optional[dict] = None
    search_mode: Optional[str] = None
    rng_seed: Optional[int] = None
    per_element_results: list = field(default_factory=list)
    oracle_comparison: Optional[dict] = None
    timing_ms: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields by name.  They hold only plain JSON values, so they
        are shared, not copied as `dataclasses.asdict` would copy them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

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


def _group_info(ctx: GroupContext) -> dict:
    return {"spec_text": ctx.spec, "degree": ctx.group.degree, "order": ctx.group.order}


def _require_at_least(name: str, value: Optional[int], least: int) -> None:
    if value is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


class GroupContext:
    """The group of one (spec, element cap), its classes, and, on first use,
    its radical oracles, each computed once.  A group whose order the spec
    gives, a named family or a file with a claimed_order, is refused past
    the cap before it is built; a file group built to check its
    claimed_order is that build, not a second one.  The
    group keeps the order of its solvable residual and its nilpotency
    verdict, so the oracles, every entry's scans and the whole-group rows
    share them."""

    def __init__(self, spec: str, element_cap: int):
        self.spec = spec
        self.element_cap = element_cap
        gens = construct(spec)
        if gens.order is not None:
            _check_element_cap(gens.order, element_cap)
        self.group = build_bsgs(gens)
        self.classes = conjugacy_classes(self.group, element_cap)

    @cached_property
    def solvable_radical(self):
        return solvable_radical_oracle(self.group, self.classes)

    @cached_property
    def fitting_radical(self):
        return fitting_oracle(self.group, self.classes)


def cmd_info(ctx: GroupContext) -> tuple[int, VerificationReport]:
    profiles = prime_order_elements(ctx.classes)
    report = VerificationReport(
        command="info",
        group=_group_info(ctx),
        details={
            "class_count": len(ctx.classes),
            "class_sizes": sorted(c.class_size for c in ctx.classes),
            "element_orders": sorted({c.representative.order() for c in ctx.classes}),
            "prime_order_gt3_class_orders": sorted(p.order for p in profiles),
        },
    )
    return EXIT_OK, report


def _pairs_outcome(pv) -> tuple[bool, Optional[int], dict]:
    return pv.all_classes_pass, pv.witness and pv.witness.generated_order, {
        "pairs_checked": pv.pairs_checked,
        "witness_element": (
            print_cycles(pv.witness_element) if pv.witness_element else None
        ),
        "witness": _witness_dict(pv.witness),
    }


def _thompson_outcome(tv) -> tuple[bool, Optional[int], dict]:
    return tv.all_pairs_solvable, tv.generated_order, {
        "pairs_checked": tv.pairs_checked,
        "witness_pair": (
            [print_cycles(p) for p in tv.witness_pair] if tv.witness_pair else None
        ),
        "generated_order": tv.generated_order,
    }


# The theorems of `verify`.  A radical row runs a criterion and gives its
# RadicalResult and its oracle's, which are compared class by class.  A
# whole-group row runs a criterion on the whole group and gives whether it
# holds, the order of the failing subgroup, and its details; it is compared
# with the group's solvability, read from its solvable residual.  Each row,
# the context's oracles and the residual call module globals by name when
# they run, never a function captured at import, so a rebound global (a
# tracer's span, a test's stand-in) is the one that runs.
RADICAL_THEOREMS = {
    "bs": lambda ctx, mode, budget, seed: (
        baer_suzuki_set(ctx.group, ctx.classes, budget),
        ctx.fitting_radical,
    ),
    "four": lambda ctx, mode, budget, seed: (
        four_conjugate_radical(ctx.group, ctx.classes, mode, budget, seed),
        ctx.solvable_radical,
    ),
    "two": lambda ctx, mode, budget, seed: (
        two_conjugate_radical(ctx.group, ctx.classes, mode, budget, seed),
        ctx.solvable_radical,
    ),
}
WHOLE_GROUP_THEOREMS = {
    "pairs": lambda ctx, budget: _pairs_outcome(
        class_pair_solvability(ctx.group, ctx.classes, budget)
    ),
    "thompson": lambda ctx, budget: _thompson_outcome(
        thompson_test(ctx.group, ctx.element_cap, ctx.classes)
    ),
}
THEOREMS = (*RADICAL_THEOREMS, *WHOLE_GROUP_THEOREMS)
# the commands of a suite entry
COMMANDS = ("info", "sharpness", *THEOREMS)
# the theorems with a randomized search; the others always scan exhaustively
SAMPLED_THEOREMS = ("four", "two")


def _compare_radicals(result, oracle, mode: str) -> bool:
    """Whether every verdict agrees with the oracle's membership of its
    element.  An exhaustive verdict must equal it.  A randomized run only
    falsifies, so there only a witness against an oracle member disagrees.

    For the exhaustive rows this implies equal subgroups: each side is the
    normal closure of the class representatives it admits."""
    in_oracle = oracle.subgroup.contains
    return all(
        v.in_radical_claimed == in_oracle(v.element)
        or (mode == RANDOMIZED and v.in_radical_claimed)
        for v in result.verdicts
    )


def cmd_verify(
    theorem: str, ctx: GroupContext, mode: str, budget: Optional[int], seed: int
) -> tuple[int, VerificationReport]:
    # an exhaustive-only theorem reports so under --randomized; a --budget
    # given with --randomized counts samples, so it bounds no scan
    if theorem not in SAMPLED_THEOREMS and mode == RANDOMIZED:
        mode, budget = EXHAUSTIVE, None
    budget = _budget_or_default(budget, mode)
    _progress(f"verify {theorem} {ctx.spec}: order {ctx.group.order}")

    if theorem in RADICAL_THEOREMS:
        result, oracle = RADICAL_THEOREMS[theorem](ctx, mode, budget, seed)
        per_element = [_verdict_dict(v) for v in result.verdicts]
        comparison = {
            "oracle_order": oracle.subgroup.order,
            "criterion_order": result.subgroup.order,
            "equal": _compare_radicals(result, oracle, mode),
        }
        details = {}
        if len(result.verdicts) < len(ctx.classes):
            details["tested_class_reps"] = len(result.verdicts)
    else:
        holds, failing_order, details = WHOLE_GROUP_THEOREMS[theorem](ctx, budget)
        residual = solvable_residual_order(ctx.group)
        solvable = residual == 1
        per_element = []
        comparison = {
            "oracle_order": ctx.group.order if solvable else residual,
            "criterion_order": ctx.group.order if holds else failing_order,
            "equal": holds == solvable,
        }
        details.update(criterion_holds=holds, group_is_solvable=solvable)

    report = VerificationReport(
        command=f"verify {theorem}",
        group=_group_info(ctx),
        search_mode=mode,
        rng_seed=seed if mode == RANDOMIZED else None,
        per_element_results=per_element,
        oracle_comparison=comparison,
        details=details,
    )
    if not comparison["equal"]:
        _progress(CONTRADICTION_MESSAGE)
        report.details["error"] = CONTRADICTION_MESSAGE
        return EXIT_CONTRADICTION, report
    return EXIT_OK, report


def cmd_sharpness(n: int) -> tuple[int, VerificationReport]:
    rep = transposition_triple_sharpness(n)
    report = VerificationReport(
        command="sharpness",
        group={"spec_text": f"S({n})", "degree": n, "order": None},
        search_mode=EXHAUSTIVE,
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
    t0 = time.perf_counter()
    try:
        _require_at_least("element_cap", element_cap, 1)
        _require_at_least("seed", seed, 0)
        entries = _suite_entries(config_path)
    except USAGE_ERRORS as e:
        return _failure("suite", None, e)

    sub_reports = []
    worst = EXIT_OK
    built: dict = {}  # (spec, element_cap) -> GroupContext, this call only
    for entry in entries:
        flags = {"element_cap": element_cap, **entry.get("flags", {})}
        if seed is not None:
            flags["seed"] = seed
        code, rep = _run_entry(entry["command"], entry.get("spec"), flags, built)
        sub_reports.append({"exit_code": code, "report": rep.as_dict()})
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    report = VerificationReport(
        command="suite",
        rng_seed=seed,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
        details={
            "config": config_path,
            "entry_count": len(entries),
            "all_passed": worst == EXIT_OK,
            "entries": sub_reports,
        },
    )
    return worst, report


def _suite_entries(config_path: str) -> list:
    """The entries of a suite config file, checked for shape, keys and flag
    types before any of them runs."""
    try:
        with open(config_path) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise GroupFileError(f"cannot read suite config {config_path}: {e}") from e
    if not isinstance(config, dict):
        raise GroupFileError(f"suite config {config_path} must be a JSON object")
    entries = config.get("entries")
    if not isinstance(entries, list):
        raise GroupFileError(f"suite config {config_path} needs an 'entries' list")
    for i, entry in enumerate(entries):
        where = f"suite config {config_path}, entry {i}"
        if not isinstance(entry, dict):
            raise GroupFileError(f"{where}: an entry must be an object, got {entry!r}")
        for key in entry:
            if key not in ENTRY_KEYS:
                raise GroupFileError(f"{where}: unknown key {key!r}; use {ENTRY_KEYS}")
        command = entry.get("command")
        if not (isinstance(command, str) and command in COMMANDS):
            raise GroupFileError(
                f"{where}: unknown command {command!r}; use one of {COMMANDS}"
            )
        flags = entry.get("flags", {})
        if not isinstance(flags, dict):
            raise GroupFileError(f"{where}: 'flags' must be an object, got {flags!r}")
        for name, value in flags.items():
            if name not in FLAGS:
                raise GroupFileError(f"{where}: unknown flag {name!r}; use {FLAGS}")
            if name == "randomized" and not isinstance(value, bool):
                raise GroupFileError(
                    f"{where}: 'randomized' must be true or false, got {value!r}"
                )
            if name in INTEGER_FLAGS and type(value) is not int:
                raise GroupFileError(
                    f"{where}: '{name}' must be an integer, got {value!r}"
                )
        if command == "sharpness" and "n" not in flags:
            raise GroupFileError(f"{where}: a sharpness entry needs 'n' in its flags")
        spec = entry.get("spec")
        if command != "sharpness" and not isinstance(spec, str):
            raise GroupFileError(
                f"{where}: a group spec must be a string, got {spec!r}"
            )
    return entries


def _run_entry(
    command, spec, flags: dict, memo: dict
) -> tuple[int, VerificationReport]:
    """The exit code and report of one command-line or suite entry, whose
    command is one of COMMANDS, whose spec is a string unless the command is
    sharpness, and whose flags are named as in a suite config; `memo` shares
    one GroupContext per (spec, element cap) between entries.  An expected
    failure is reported under the success report's name.  The `cmd_*`
    functions and `conjugacy_classes` are read as module globals at call
    time, so a rebound one runs."""
    name = f"verify {command}" if command in THEOREMS else command
    mode = RANDOMIZED if flags.get("randomized") else EXHAUSTIVE
    budget = flags.get("budget")
    cap = flags["element_cap"]
    t0 = time.perf_counter()
    try:
        _require_at_least("budget", budget, 1)
        _require_at_least("seed", flags.get("seed"), 0)
        _require_at_least("element_cap", cap, 1)
        if command == "sharpness":
            code, report = cmd_sharpness(flags["n"])
        else:
            if (spec, cap) not in memo:
                memo[spec, cap] = GroupContext(spec, cap)
            ctx = memo[spec, cap]
            if command == "info":
                code, report = cmd_info(ctx)
            else:
                code, report = cmd_verify(
                    command, ctx, mode, budget, flags.get("seed", 0)
                )
    except BUDGET_ERRORS + USAGE_ERRORS as e:
        return _failure(name, spec, e)
    report.timing_ms = (time.perf_counter() - t0) * 1000.0
    return code, report


def _failure(command: str, spec, error: Exception) -> tuple[int, VerificationReport]:
    """The exit code and report of an expected failure, whose message also
    goes to stderr."""
    code = EXIT_BUDGET if isinstance(error, BUDGET_ERRORS) else EXIT_USAGE
    kind = "budget exceeded" if code == EXIT_BUDGET else "error"
    print(f"{kind}: {error}", file=sys.stderr)
    return code, VerificationReport(
        command=command,
        group={"spec_text": spec, "degree": None, "order": None},
        details={"error": str(error)},
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
    p_verify.add_argument("theorem", choices=THEOREMS)
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

    if args.command == "suite":
        code, report = cmd_suite(args.config, args.seed, args.element_cap)
    else:
        # the parsed options carry the flag names of a suite entry
        code, report = _run_entry(
            getattr(args, "theorem", args.command), getattr(args, "spec", None),
            vars(args), {},
        )

    text = report.to_json()
    print(text)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as f:
                f.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write the report to {args.out}: {e}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
