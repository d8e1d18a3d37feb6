"""Self-tests for the benchmark's tracer.

Run from the root of a solvrad checkout:

    python3 bench/selftest.py
"""

import json
import os
import shutil
import sys
import unittest
from dataclasses import asdict

sys.path.insert(0, os.path.abspath("src"))

import solvrad  # noqa: E402
import solvrad.cli  # noqa: E402
from tracer import Tracer, layer_functions, layer_metrics  # noqa: E402
from workloads import without_timing  # noqa: E402

WORK = ".bench_work"

# One small entry per command, so every layer is crossed.
ENTRIES = [
    {"command": "info", "spec": "S(4)"},
    {"command": "bs", "spec": "S(4)"},
    {"command": "four", "spec": "S(4)"},
    {"command": "four", "spec": "S(4)", "flags": {"randomized": True, "budget": 20}},
    {"command": "two", "spec": "A(5)"},
    {"command": "pairs", "spec": "A(5)"},
    {"command": "thompson", "spec": "D(4)"},
    {"command": "sharpness", "flags": {"n": 5}},
]


class TracedRun(unittest.TestCase):
    """One untraced and one traced cmd_suite call on the same config."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(WORK, exist_ok=True)
        cls.config = os.path.join(WORK, "suite.json")
        with open(cls.config, "w") as f:
            json.dump({"entries": ENTRIES}, f)
        cls.untraced = solvrad.cli.cmd_suite(cls.config)
        cls.tracer = Tracer()
        cls.tracer.install({})
        cls.traced = solvrad.cli.cmd_suite(cls.config)
        cls.metrics = layer_metrics(
            {"names": cls.tracer.names, "spans": cls.tracer.spans, "counters": {}}
        )

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_no_module_keeps_an_unwrapped_original(self):
        self.assertEqual(self.tracer.unwrapped_left(), [])
        # every namespace that imported the function by name holds the wrapper
        for module in (solvrad, solvrad.bsgs, solvrad.structure, solvrad.criteria):
            self.assertTrue(hasattr(module.normal_closure, "__wrapped__"))
        self.assertIs(solvrad.normal_closure, solvrad.criteria.normal_closure)
        self.assertTrue(hasattr(solvrad.Bsgs.__init__, "__wrapped__"))

    def test_every_layer_is_traced(self):
        layers = {name.split(".")[0] for name in self.tracer.names}
        self.assertEqual(layers, {"zoo", "bsgs", "structure", "criteria", "cli"})
        self.assertGreater(len(layer_functions()), 20)
        calls = self.metrics["names"]
        self.assertEqual(calls["cli.cmd_suite"]["calls"], 1)
        self.assertGreater(calls["bsgs.Bsgs.__init__"]["calls"], 0)
        self.assertGreater(calls["bsgs.random_element"]["calls"], 0)

    def test_traced_and_untraced_reports_match(self):
        code_u, rep_u = self.untraced
        code_t, rep_t = self.traced
        self.assertEqual(code_u, 0)
        self.assertEqual(code_t, code_u)
        self.assertEqual(
            json.dumps(without_timing(asdict(rep_t)), sort_keys=True),
            json.dumps(without_timing(asdict(rep_u)), sort_keys=True),
        )

    def test_spans_nest(self):
        spans = self.tracer.spans
        for name_id, start, end, parent in spans:
            self.assertLessEqual(start, end)
            if parent >= 0:
                self.assertLessEqual(spans[parent][1], start)
                self.assertLessEqual(end, spans[parent][2])


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        trace = {
            "names": ["cli.a", "bsgs.b", "bsgs.c", "structure.d"],
            "spans": [
                [0, 0.0, 10.0, -1],  # cli.a: 10 s, children 3 + 4
                [1, 1.0, 4.0, 0],    # bsgs.b: 3 s, child 1
                [2, 2.0, 3.0, 1],    # bsgs.c: 1 s inside bsgs.b
                [3, 5.0, 9.0, 0],    # structure.d: 4 s, child 2
                [1, 6.0, 8.0, 3],    # bsgs.b again: 2 s inside structure.d
            ],
            "counters": {"x": 1},
        }
        m = layer_metrics(trace)
        self.assertEqual(m["names"]["cli.a"]["self_s"], 3.0)
        self.assertEqual(m["names"]["bsgs.b"]["calls"], 2)
        self.assertEqual(m["names"]["bsgs.b"]["total_s"], 5.0)
        self.assertEqual(m["names"]["bsgs.b"]["self_s"], 4.0)
        self.assertEqual(m["layers"]["bsgs"]["self_s"], 5.0)
        self.assertEqual(m["layers"]["structure"]["self_s"], 2.0)
        # bsgs.c sits inside bsgs.b, so only the two bsgs.b spans are outermost
        self.assertEqual(m["layers"]["bsgs"]["outer_s"], 5.0)
        self.assertEqual(m["counters"], {"x": 1})


if __name__ == "__main__":
    unittest.main()
