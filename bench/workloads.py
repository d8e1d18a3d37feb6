"""Workload inputs for the solvrad benchmark, and the relabelling-invariant
facts its correctness gate compares against `expected.json`.

A workload is a list of suite entries fed to `solvrad.cli.cmd_suite`.  Seed 0
keeps the shipped point labels.  Any other seed relabels the points of every
distinct group by a seeded permutation and writes each relabelled group out
as a `file:` generator file, so canonical orders, class representatives and
witnesses move while the mathematics (orders, class sizes, radicals) does
not.  One file per distinct spec, so entries that share a group keep sharing
it after relabelling.
"""

from __future__ import annotations

import json
import os
import random

BATTERY_PATH = os.path.join("src", "solvrad", "data", "default_battery.json")

# Exhaustive scans on small groups: classes and centralizers are cheap here,
# so nearly all the time goes to subgroup builds, normal closures and
# derived series.  The two Thompson groups are solvable, so every pair is
# scanned with no early exit.
SCAN_ENTRIES = [
    {"command": "four", "spec": "direct(C(4),S(4))"},
    {"command": "four", "spec": "direct(C(3),S(4))"},
    {"command": "four", "spec": "S(4)"},
    {"command": "four", "spec": "direct(C(5),A(5))"},
    {"command": "thompson", "spec": "direct(S(4),C(6))"},
    {"command": "thompson", "spec": "direct(S(4),S(3))"},
    {"command": "sharpness", "flags": {"n": 7}},
]

# Every class of S(4) x S(4) lies in the (whole, solvable) radical, so each
# class runs its full sample budget: 25 classes x 200 samples, i.e. 15,000
# random elements and 5,000 subgroup builds.
RANDOMIZED_SPEC = "direct(S(4),S(4))"
RANDOMIZED_BUDGET = 200

WORKLOADS = ("battery", "scan", "randomized")


def entries_for(workload: str, seed: int) -> list[dict]:
    """The suite entries of a workload before relabelling."""
    if workload == "battery":
        with open(BATTERY_PATH) as f:
            return json.load(f)["entries"]
    if workload == "scan":
        return [dict(e) for e in SCAN_ENTRIES]
    if workload == "randomized":
        flags = {"randomized": True, "budget": RANDOMIZED_BUDGET, "seed": seed}
        return [{"command": "four", "spec": RANDOMIZED_SPEC, "flags": flags}]
    raise ValueError(f"unknown workload {workload!r}")


def relabel_file(spec: str, rng: random.Random) -> dict:
    """The group of `spec` with its points renamed by a random permutation,
    as the contents of a generator file."""
    from solvrad.perm import Permutation, print_cycles
    from solvrad.zoo import construct, load_group_file

    claimed = None
    if spec.startswith("file:"):
        gens, meta = load_group_file(spec[len("file:"):])
        claimed = meta.claimed_order
    else:
        gens = construct(spec)
    images = list(range(1, gens.degree + 1))
    rng.shuffle(images)
    sigma = Permutation(images)
    relabelled = [print_cycles(sigma * g * sigma.inverse()) for g in gens.generators]
    doc = {
        "format_version": 1,
        "name": spec,
        "degree": gens.degree,
        "generators": relabelled,
        "provenance": "points of " + spec + " relabelled by a seeded permutation",
    }
    if claimed is not None:
        doc["claimed_order"] = claimed
    return doc


def write_config(workload: str, seed: int, directory: str) -> str:
    """Write the workload's suite config (and, for seed != 0, its relabelled
    generator files) under `directory`; return the config path."""
    entries = entries_for(workload, seed)
    os.makedirs(directory, exist_ok=True)
    if seed != 0:
        rng = random.Random(seed)
        files: dict[str, str] = {}
        for entry in entries:
            spec = entry.get("spec")
            if spec is None:
                continue  # sharpness: S(n) on its natural points
            if spec not in files:
                path = os.path.join(directory, f"g{len(files):02d}.json")
                with open(path, "w") as f:
                    json.dump(relabel_file(spec, rng), f)
                files[spec] = path
            entry["spec"] = "file:" + files[spec]
    path = os.path.join(directory, f"{workload}.json")
    with open(path, "w") as f:
        json.dump({"entries": entries}, f)
    return path


def facts(sub_report: dict) -> dict:
    """Facts of one suite entry that no relabelling of points can change."""
    r = sub_report["report"]
    d = r["details"]
    command = r["command"]
    out = {"command": command, "order": (r["group"] or {}).get("order")}
    if command == "info":
        out["class_sizes"] = d["class_sizes"]
        out["element_orders"] = d["element_orders"]
    elif command == "sharpness":
        out["triples_checked"] = d["triples_checked"]
        out["max_generated_order"] = d["max_generated_order"]
    else:
        oc = r["oracle_comparison"]
        out["oracle_order"] = oc["oracle_order"]
        out["criterion_order"] = oc["criterion_order"]
        results = r["per_element_results"]
        out["classes_reported"] = len(results)
        out["classes_claimed_in_radical"] = sum(
            1 for v in results if v["in_radical_claimed"]
        )
        if "group_is_solvable" in d:
            out["group_is_solvable"] = d["group_is_solvable"]
    return out


def without_timing(obj):
    """A copy of a report with every `timing_ms` field, at any depth, zeroed."""
    if isinstance(obj, dict):
        return {
            k: (0.0 if k == "timing_ms" else without_timing(v))
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [without_timing(v) for v in obj]
    return obj
