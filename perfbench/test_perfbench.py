"""Tests of the benchmark's own arithmetic, tracer and correctness gate.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


class SelfTimeArithmetic(unittest.TestCase):
    """A synthetic span tree (name, start, end, parent) in start order."""

    TREE = [
        ("root", 0, 100, -1),    # 0
        ("a", 10, 30, 0),        # 1
        ("leaf", 12, 18, 1),     # 2
        ("a", 20, 50, 0),        # 3 overlaps span 1: the union [10, 50] counts once
        ("b", 60, 70, 0),        # 4
        ("b", 90, 120, 0),       # 5 outlives its parent: clipped to [90, 100]
        ("b", 95, 110, 5),       # 6 inside span 5 only up to its end
    ]

    def totals(self, tree):
        names = [row[0] for row in tree]
        starts = [row[1] for row in tree]
        ends = [row[2] for row in tree]
        parents = [row[3] for row in tree]
        return spans.self_times(names, starts, ends, parents)

    def test_self_time_is_duration_minus_covered_union(self):
        totals = self.totals(self.TREE)
        self.assertEqual(totals["root"], [1, 100 - (40 + 10 + 10)])
        self.assertEqual(totals["leaf"], [1, 6])
        self.assertEqual(totals["a"], [2, (20 - 6) + 30])
        self.assertEqual(totals["b"], [3, 10 + (30 - 15) + 15])

    def test_properly_nested_self_times_add_up_to_root_duration(self):
        tree = [("root", 0, 100, -1), ("a", 10, 30, 0), ("leaf", 12, 18, 1),
                ("b", 60, 70, 0), ("b", 90, 100, 0), ("b", 95, 100, 4)]
        totals = self.totals(tree)
        self.assertEqual(sum(self_ns for _, self_ns in totals.values()), 100)

    def test_same_layer_nesting_is_not_double_counted(self):
        tree = [("x", 0, 10, -1), ("x", 2, 8, 0), ("x", 3, 4, 1)]
        self.assertEqual(self.totals(tree)["x"], [3, 10])

    def test_recorder_builds_the_tree_from_begin_and_end(self):
        ticks = iter([0, 10, 12, 18, 30, 60, 70, 100])
        recorder = spans.Recorder(op_id=7, clock=lambda: next(ticks))
        root = recorder.begin(0)
        a = recorder.begin(1)
        leaf = recorder.begin(2)
        recorder.end(leaf)
        recorder.end(a)
        b = recorder.begin(1)
        recorder.end(b)
        recorder.end(root)
        self.assertEqual(list(recorder.parents), [-1, 0, 1, 0])
        totals = spans.self_times(recorder.names, recorder.starts, recorder.ends, recorder.parents)
        self.assertEqual(totals[0], [1, 100 - 20 - 10])
        self.assertEqual(totals[1], [2, 14 + 10])
        self.assertEqual(totals[2], [1, 6])


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_above(self):
        values = list(range(21, 0, -1))
        value = run.tail(values)
        self.assertEqual(value, 11)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(run.tail_percentile(21), 100 * 11 / 21)

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), 3.0)


class Gate(unittest.TestCase):
    VERIFY = ["verify", "thm1"]

    def test_counts_passing_records(self):
        lines = [{"verdict": "Pass", "params": {}}, {"verdict": "Pass", "params": {}}]
        data = "".join(json.dumps(x) + "\n" for x in lines).encode()
        self.assertEqual(run.gate(self.VERIFY, 0, data, None), (2, None))

    def test_rejects_failed_verdict_status_and_mismatch(self):
        data = (json.dumps({"verdict": "Fail", "params": {"p": 5}}) + "\n").encode()
        self.assertIn("verdict", run.gate(self.VERIFY, 0, data, None)[1])
        self.assertIn("exit status", run.gate(self.VERIFY, 1, b"", None)[1])
        bad = json.dumps({"match": False, "mismatches": ["bound"]}).encode()
        self.assertIn("mismatch", run.gate(["reproduce", "paper-7-8"], 0, bad, None)[1])

    def test_rejects_summary_disagreement(self):
        objects = [{"verdict": "Pass"}, {"summary": {"pass": 2, "total": 2}}]
        data = "".join(json.dumps(x) + "\n" for x in objects).encode()
        self.assertIn("summary", run.gate(["scan", "eq6.4"], 0, data, None)[1])

    def test_rejects_output_that_differs_from_reference(self):
        data = (json.dumps({"verdict": "Pass"}) + "\n").encode()
        references = {"verify thm1": {"sha256": "0" * 64, "records": 1}}
        self.assertEqual(run.gate(self.VERIFY, 0, data, references)[1],
                         "output differs from the reference")
        self.assertEqual(run.gate(self.VERIFY, 0, data, {})[1], "no reference output recorded")


INSTALL_CHECK = r"""
import importlib
import sys
import spans
def binding(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:
        cls, method = attr.split(".")
        return getattr(mod, cls).__dict__[method]
    return getattr(mod, attr)
cong = "eiscong.congruences"
targets = [(m, a) for _, m, a in spans.TARGETS]
targets += [(cong, name) for name in spans._congruence_checks(importlib.import_module(cong))]
originals = [binding(m, a) for m, a in targets]
spans.install(spans.Recorder(1))
left = [f"{m}.{a}" for m, mod in sys.modules.items() if m.startswith("eiscong")
        for a, v in vars(mod).items() if any(v is o for o in originals)]
left += [f"{m}.{a}" for (m, a), o in zip(targets, originals) if binding(m, a) is o]
assert not left, left
assert sys.modules["eiscong.cli"].g_series.cache_info().misses == 0
print("ok")
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EISCONG_BERNOULLI_CACHE", None)
    env["PYTHONPATH"] = str(run.SRC)
    return env


class Tracer(unittest.TestCase):
    ARGV = ["verify", "thm1", "--p", "5,7", "--m", "1..2", "--alpha", "0..3", "--prec", "20",
            "--jobs", "1"]

    def run_child(self, work: Path, trace_id):
        report = work / "report.json"
        spec = json.dumps({"argv": self.ARGV, "report": str(report), "trace": trace_id})
        out = subprocess.run([sys.executable, str(run.CHILD), spec], capture_output=True,
                             env=child_env(), cwd=work, timeout=120, check=True)
        return out.stdout, json.loads(report.read_text())

    def test_every_binding_is_patched(self):
        out = subprocess.run([sys.executable, "-c", INSTALL_CHECK], capture_output=True, text=True,
                             env=dict(child_env(), PYTHONPATH=os.pathsep.join([str(run.SRC), str(HERE)])),
                             timeout=120)
        self.assertEqual(out.stdout.strip(), "ok", out.stderr)

    def test_tracing_keeps_output_and_counts_repeat(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            work = Path(tmp)
            plain, plain_report = self.run_child(work, None)
            first, first_report = self.run_child(work, 1)
            second, second_report = self.run_child(work, 2)
        self.assertEqual(plain, first)
        self.assertEqual(plain, second)
        self.assertNotIn("layers", plain_report)
        counts = [{k: v for k, v in report["layers"].items() if not k.endswith("self_s")}
                  for report in (first_report, second_report)]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["series.mul.calls"], 0)
        self.assertGreater(counts[0]["eisenstein.series.misses"], 0)
        self.assertEqual(counts[0]["cli.main.calls"], 1)


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual([w["why"] for w in doc["workloads"]],
                         [w["why"] for w in run.WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], run.PER_LAYER)

    def test_every_per_layer_metric_has_a_prediction(self):
        groups = json.loads((HERE / "predictions.json").read_text())["groups"]
        for name, _ in run.PER_LAYER:
            self.assertTrue(any(name == g or name.startswith(g + ".") for g in groups), name)
        for group in groups.values():
            for metric, workload in group["moves"]:
                self.assertIn(metric, dict(run.END_TO_END))
                self.assertIn(workload, run.WORKLOADS)

    def test_every_argv_has_a_reference(self):
        references = json.loads(run.REFERENCES.read_text())
        for workload in run.WORKLOADS.values():
            for argv in workload["cycle"] + [workload.get("template", workload["cycle"][0])]:
                self.assertIn(run.argv_key(argv), references)


if __name__ == "__main__":
    unittest.main()
