"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  They cover the tail rule, the
self-time subtraction, every oracle against a right and a deliberately
wrong output, failure classification, seeded inputs, and the metric
names in BENCHMARK.json.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from rhodf.generators import cubic, spchain  # noqa: E402
from rhodf.semantics import SatisfactionReport, Violation  # noqa: E402

WORK = HERE / ".work" / f"selftest-{os.getpid()}"


def cli(op, args, files, expect=0, oracle=W._no_check, trace=False):
    """Run one real command on ``files`` through the benchmark's runner."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (inputs / name).write_text(text, encoding="utf-8")
    with run.launcher() as spawner:
        rec = run.Runner(SimpleNamespace(), inputs, trace, WORK, spawner).run_command(W.Command(op, args, expect, oracle))
    return rec, (WORK / "out.txt").read_text()


class Stats(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail(xs), (90.0, 90.0))
        self.assertEqual(run.tail(xs[:30]), (20.0, 100.0 * 20 / 30))
        # Too few samples for a tail above the median: report the median.
        self.assertEqual(run.tail(xs[:15]), (8.0, 50.0))

    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        xs = [1.0] * 9 + [2.0] * 9 + [100.0, 0.0]
        self.assertEqual(run.trimmed_mean(xs), 1.5)
        self.assertEqual(run.trimmed_mean([3.0]), 3.0)

    def test_self_time_subtracts_children_and_overhead_closes_the_wall(self):
        def span(i, name, parent, start, end):
            return {"id": i, "name": name, "parent": parent, "start": start, "end": end}

        tree = [
            span(0, "parser.parse", None, 0.0, 1.0),
            span(1, "entailment.entails", None, 1.0, 5.0),
            span(2, "reasoner.closure", 1, 1.5, 4.0),
            span(3, "entailment.proof", 1, 4.0, 4.5),
        ]
        tree[2].update(rounds=3, input=4, triples=10, fires={"2a": 6})
        own = spans.self_times(tree)
        self.assertEqual(own, {0: 1.0, 1: 1.0, 2: 2.5, 3: 0.5})
        row = spans.layer_breakdown(tree, wall=6.0)
        self.assertEqual(row["overhead_s"], 1.0)
        self.assertEqual(row["entailment.entails_self_s"], 1.0)
        self.assertEqual(row["reasoner.fires.2a"], 6)
        self_total = sum(v for k, v in row.items() if k.endswith("_self_s"))
        self.assertAlmostEqual(self_total + row["overhead_s"], 6.0)


    def test_layers_the_named_operation_skips_come_from_the_next_kind(self):
        def op(kind, wall, *spans_):
            return {"op": kind, "wall_s": wall, "spans": [
                {"id": i, "name": name, "parent": None, "start": a, "end": b, **extra}
                for i, (name, a, b, extra) in enumerate(spans_)]}

        closure = ("reasoner.closure", 0.0, 2.0, {"rounds": 4, "input": 10, "triples": 50, "fires": {"2a": 40}})
        plan = W.Plan("close", ops={"close": [None], "model": [None], "entail": []})
        fake = SimpleNamespace(plan=plan, ops=[
            op("close", 2.5, closure),
            op("model", 0.3, ("reasoner.closure", 0.0, 0.1, {"rounds": 1, "input": 2, "triples": 3, "fires": {}}),
               ("semantics.check_model", 0.1, 0.2, {"violations": 0})),
        ])
        layers, sources = run.per_layer(fake, ["2a", "2b"])
        self.assertEqual(layers["reasoner.closure_s"]["value"], 2.0)
        self.assertEqual(layers["reasoner.derived_per_s"]["value"], 20.0)
        self.assertEqual(layers["reasoner.fires.2a"]["value"], 40)
        self.assertEqual(layers["reasoner.fires.2b"]["value"], 0)
        self.assertEqual(sources["semantics.check_model_s"], "model")
        self.assertAlmostEqual(layers["semantics.check_model_s"]["value"], 0.1)
        self.assertAlmostEqual(layers["cli.overhead_s"]["value"], 0.5)


class Oracles(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_close_oracle_rejects_truncated_output(self):
        n = 3
        files = {"g.rnt": W.graph_text(cubic(n), random.Random(1))}
        rec, out = cli("close", ["g.rnt"], files, oracle=W.cubic_close_oracle(n))
        self.assertIsNone(rec["failure"])
        truncated = out[: len(out) // 2]
        self.assertIsNotNone(W.cubic_close_oracle(n)(truncated))
        chain = {"s.rnt": W.graph_text(spchain(5), random.Random(1))}
        rec, out = cli("close", ["s.rnt"], chain, oracle=W.spchain_close_oracle(5))
        self.assertIsNone(rec["failure"])
        self.assertIsNotNone(W.spchain_close_oracle(5)(out.replace("p1 sp p5 .\n", "")))
        self.assertIsNotNone(W._has_lines(["p1 sp p5 ."])(out.replace("p1 sp p5 .\n", "")))

    def test_model_oracles_reject_missing_pairs_and_other_verdicts(self):
        files = {"s.rnt": W.graph_text(spchain(6), random.Random(2))}
        rec, out = cli("model", ["s.rnt"], files, oracle=W.spchain_model_oracle(6))
        self.assertIsNone(rec["failure"])
        self.assertIsNotNone(W.spchain_model_oracle(6)(out.replace("P+ sp p2 p4\n", "")))
        self.assertIsNotNone(W.spchain_model_oracle(6)(out.replace("satisfiable", "not satisfied")))
        files = {"c.rnt": W.graph_text(cubic(3), random.Random(2))}
        rec, out = cli("model", ["c.rnt"], files, oracle=W.cubic_model_oracle(3))
        self.assertIsNone(rec["failure"])
        self.assertIsNotNone(W.cubic_model_oracle(3)(out.replace("P+ p2 a1 a3\n", "")))

    def test_entail_checks_exit_code_and_final_map_step(self):
        files = {"g.rnt": "a p b .\nb p c .\n", "q.rnt": "a p _:x .\n_:x p c .\n"}
        rec, out = cli("entail", ["g.rnt", "q.rnt", "--proof"], files, oracle=W.entail_oracle(True))
        self.assertIsNone(rec["failure"])
        self.assertIsNotNone(W.entail_oracle(True)(out.rsplit("\n", 2)[0]))
        rec, _ = cli("entail", ["g.rnt", "q.rnt"], files, expect=1)
        self.assertEqual(rec["failure"], "exit 0, expected 1")

    def test_batch_oracle_is_criterion_five(self):
        self.assertIsNone(W.batch_oracle(SatisfactionReport(True)))
        bad = SatisfactionReport(False, (Violation("Simple.2", "x"),))
        self.assertIsNotNone(W.batch_oracle(bad))


class Failures(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_traceback_counts_as_failure_not_as_not_entailed(self):
        # A 1,500-pattern chain overflows the recursive witness search;
        # rhodf exits 1 with a traceback, which must not read as a verdict.
        hops = 1500
        query = "".join(f"_:x{i} p _:x{i + 1} .\n" for i in range(hops))
        rec, _ = cli("entail", ["g.rnt", "q.rnt"], {"g.rnt": "a p a .\n", "q.rnt": query}, expect=1)
        self.assertTrue(rec["failure"].startswith("traceback: RecursionError"), rec["failure"])

    def test_timeout_counts_as_failure(self):
        saved = run.CMD_TIMEOUT_S
        run.CMD_TIMEOUT_S = 0.01
        try:
            rec, _ = cli("close", ["g.rnt"], {"g.rnt": "a p b .\n"})
        finally:
            run.CMD_TIMEOUT_S = saved
        self.assertTrue(rec["timed_out"])
        self.assertTrue(rec["failure"].startswith("timed out"))

    def test_peak_rss_is_the_command_own(self):
        # Linux counts the spawner's peak in a child's ru_maxrss; the
        # launcher keeps the benchmark's own growth out of it.
        ballast = b"x" * (100 << 20)
        rec, _ = cli("close", ["g.rnt"], {"g.rnt": "a p b .\n"})
        del ballast
        self.assertLess(rec["rss_mb"], 60)

    def test_traced_command_records_spans_that_close_the_wall(self):
        files = {"g.rnt": W.graph_text(spchain(6), random.Random(3))}
        rec, _ = cli("model", ["g.rnt"], files, oracle=W.spchain_model_oracle(6), trace=True)
        self.assertIsNone(rec["failure"])
        names = {s["name"] for s in rec["spans"]}
        self.assertLessEqual({"parser.parse", "reasoner.closure", "semantics.canonical_model", "semantics.check_model"}, names)
        row = spans.layer_breakdown(rec["spans"], rec["wall_s"])
        self.assertGreater(row["overhead_s"], 0.0)
        self.assertEqual(row["semantics.check_model.violations"], 0)


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in W.WORKLOADS:
            a, b, c = W.build(w, 5), W.build(w, 5), W.build(w, 6)
            self.assertEqual(a.files, b.files, w)
            self.assertNotEqual(a.files, c.files, w)
            self.assertEqual(a.batch, b.batch, w)

    def test_inputs_do_not_depend_on_the_hash_seed(self):
        code = (
            "import hashlib, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads as W; "
            "print(hashlib.sha256(repr([(sorted(p.files.items()), p.batch) for p in map(lambda w: W.build(w, 5), W.WORKLOADS)]).encode()).hexdigest())"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
                                 env=env, capture_output=True, text=True, timeout=120, check=True)
            digests.add(out.stdout)
        self.assertEqual(len(digests), 1)

    def test_benchmark_json_names_every_reported_metric(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(W.WORKLOADS))
        plan = W.Plan("close", ops={"close": [], "model": [], "entail": []})
        fake = SimpleNamespace(ops=[], plan=plan)
        e2e, _ = run.end_to_end(fake, [0.1])
        layers, _ = run.per_layer(fake, run.FIRE_RULES)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(e2e))
        self.assertEqual(sorted(m["name"] for m in bench["per_layer"]), sorted(layers))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertEqual(m["unit"], {**e2e, **layers}[m["name"]]["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()
