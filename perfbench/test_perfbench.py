"""Self-tests of the benchmark, on small graphs.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the programs under test the same way run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_SCALE = "10"


def bench(workload, trace, *extra):
    """Runs run.py on a scale-10 graph; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", SMALL_SCALE, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class MetricsMatchSpec(unittest.TestCase):
    def test_every_metric_printed_with_the_spec_unit(self):
        spec = run.load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for name in units:
                        self.assertIn(name, "\n".join(lines[:-1]))


class WrongCountFailsTheRun(unittest.TestCase):
    def test_offset_reference_fails_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 0, "--expect-offset", "1")
                self.assertNotEqual(code, 0)
                self.assertFalse(json.loads(lines[-1])["correct"])


class Generators(unittest.TestCase):
    def take(self, reads, n):
        return [reads.next() for _ in range(n)]

    def test_zipf_reads_deterministic_per_seed(self):
        a = self.take(workloads.ZipfReads(5), 500)
        self.assertEqual(a, self.take(workloads.ZipfReads(5), 500))
        self.assertNotEqual(a, self.take(workloads.ZipfReads(6), 500))

    def test_read_key_set_exceeds_the_cache(self):
        keys = workloads.read_keys()
        self.assertGreater(len(keys), 128)
        self.assertEqual(len({workloads.request_line(0, v, p) for v, p in keys}),
                         len(keys))

    def test_delta_batches_deterministic_and_valid(self):
        bins = run.build()
        work = os.path.join(ROOT, run.WORK_ROOT, "selftest-deltas")
        os.makedirs(work, exist_ok=True)
        graph = os.path.join(work, "graph.bin")
        run.generate_graph(bins, 10, 4, graph)
        n, base = workloads.read_binary_graph(graph)

        def batches(seed):
            gen = workloads.DeltaBatches(seed, n, base)
            return [gen.next() for _ in range(30)]

        first = batches(9)
        self.assertEqual(first, batches(9))
        self.assertNotEqual(first, batches(10))
        for ops in first:
            self.assertEqual(len(ops), len(set(op[1:] for op in ops)))
            self.assertTrue(any(op[0] == "+" for op in ops))
            self.assertTrue(any(op[0] == "-" for op in ops))
        ops_path = os.path.join(work, "deltas.ops")
        with open(ops_path, "w") as f:
            for ops in first:
                f.write(";".join(ops) + "\n")
        # stream::validate accepts every batch in sequence, and the
        # maintained count equals a serial recount of the replayed edges.
        validated = run.probe(bins, "validate", "--graph", graph, "--ops", ops_path)
        self.assertEqual(validated["batches"], len(first))
        replayed = run.probe(bins, "replay", "--graph", graph, "--ops", ops_path)
        self.assertEqual(validated["triangles"], replayed["triangles"])


if __name__ == "__main__":
    unittest.main()
