"""Self-tests of the benchmark (they build and run it in smoke mode):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "cmake", "perfbench_bin")
WORKLOADS = ("analyze-exact", "serve-mix", "live-certified")


def run(workload, trace=0, seed=5, extra=()):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "2", "--trace", str(trace), "--smoke", *extra],
                         capture_output=True, text=True, timeout=900)
    return out


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = subprocess.run([sys.executable, RUN, "--selftest"], capture_output=True,
                             text=True, timeout=900)
        cls.selftest = out

    def test_span_self_time_arithmetic(self):
        self.assertEqual(self.selftest.returncode, 0, self.selftest.stdout + self.selftest.stderr)
        self.assertIn("span arithmetic ok", self.selftest.stdout)

    def test_every_metric_present_with_its_unit(self):
        self.assertEqual(sorted(w["name"] for w in spec()["workloads"]), sorted(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec()[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = run(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    lines = out.stdout.strip().splitlines()
                    self.assertTrue(lines[0].startswith("host: nproc="), lines[0])
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_expected_verdict_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = run(workload, extra=["--inject-wrong-verdict"])
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_a_missing_metric_is_an_error(self):
        sys.path.insert(0, HERE)
        import run as bench
        measured = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec()["per_layer"]
                    if m["name"].startswith(("io.", "analysis.thm4_us", "runtime.", "trace."))}
        # live-certified never calls the serve layer: its metrics read 0.
        done = bench.complete_metrics("live-certified", True, dict(measured))
        self.assertEqual(done["serve.cache_find_us"]["value"], 0)
        self.assertEqual(done["runtime.aborts"]["value"], 1.0)
        # But a metric of a layer it calls must be measured.
        del measured["runtime.aborts"]
        with self.assertRaises(SystemExit):
            bench.complete_metrics("live-certified", True, dict(measured))

    def test_replay_spans_cover_the_requests(self):
        # The traced replay's layer spans must account for its request
        # spans: a layer call left outside every span shows up here.
        out = run("serve-mix", trace=1)
        self.assertEqual(out.returncode, 0, out.stderr)
        line = next(l for l in out.stdout.splitlines() if l.startswith("replay coverage"))
        request = float(line.split("request span ")[1].split(",")[0])
        outside = float(line.split("outside every layer span ")[1])
        self.assertGreater(request, 0)
        self.assertLess(outside, 0.05 * request, line)

    def test_same_seed_same_inputs(self):
        def digest(workload, seed):
            out = subprocess.run([BINARY, "digest", workload, "--seed", str(seed)],
                                 capture_output=True, text=True, check=True)
            return out.stdout.split("digest=")[1].strip()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(digest(workload, 17), digest(workload, 17))
                self.assertNotEqual(digest(workload, 17), digest(workload, 18))

    def test_refuses_outside_a_checkout(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-copy")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-mix",
                              "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                             capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
