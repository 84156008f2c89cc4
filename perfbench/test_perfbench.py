"""Self-test of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs every workload at a tiny size, untraced and traced, and checks that
every metric BENCHMARK.json lists is reported and nothing fails; checks that a perturbed
certificate and a wrong ``analyze`` answer are counted as failures; and
checks the generator's cusp data are isotropic in its own arithmetic.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "cert-small": lambda seed: gen.cert_small(seed, count=15),
    "cert-large": lambda seed: gen.cert_large(seed, shapes=[(8, 1), (8, 4)]),
    "analyze-search": lambda seed: gen.analyze_search(seed, count=6),
    "lattice-queries": lambda seed: gen.lattice_queries(seed, count=2),
}
TINY_CYCLE = {"cert-small": 15, "cert-large": 2, "analyze-search": 6, "lattice-queries": 2}


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_listed_metric(self):
        with mock.patch.dict(gen.WORKLOADS, TINY), mock.patch.dict(run.CYCLE, TINY_CYCLE):
            for workload in run.WORKLOADS:
                for fn, listed in ((run.end_to_end, run.END_TO_END),
                                  (run.per_layer, run.PER_LAYER)):
                    with self.subTest(workload=workload, mode=fn.__name__):
                        report, attempted, failed, fails = quiet(fn, workload, 3, 0)
                        self.assertGreater(attempted, 0)
                        self.assertEqual(failed, 0, fails)
                        values = report.values(listed)
                        self.assertEqual(list(values), list(listed))
                        if fn is run.end_to_end:
                            self.assertIn("fail_ratio", {row[0] for row in report.rows})
                            self.assertEqual(values["setup_s"]["unit"], "s")

    def test_benchmark_json_matches_the_listed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class FailuresAreCounted(unittest.TestCase):
    def setUp(self):
        self.main = run.load_program()
        self.base = run.WORK / "selftest"
        self.base.mkdir(parents=True, exist_ok=True)

    def _cert(self):
        inst = next(i for i in gen.cert_small(5, count=20)
                    if i.expect["node_first"] != i.expect["node_last"])
        run.write_files(run.encode([inst]), self.base)
        p = lambda name: str(self.base / f"0.{name}.json")
        code, out, _ = run.run_cli(self.main, ["chain", "--space", p("space"),
                                               "--i1", p("i1"), "--i2", p("i2")])
        self.assertEqual(code, 0)
        return inst, out, p

    def test_good_certificate_passes(self):
        inst, out, p = self._cert()
        Path(p("cert")).write_text(out, encoding="utf-8")
        code, report, _ = run.run_cli(self.main, ["verify", "--cert", p("cert")])
        self.assertEqual(checks.check_chain(inst.expect, 0, out), [])
        self.assertEqual(checks.check_verify(code, report), [])

    def test_perturbed_certificate_is_a_failure(self):
        inst, out, p = self._cert()
        cert = json.loads(out)
        self.assertTrue(cert["links"], "instance must have at least one link")
        bump_first_entry(cert["links"][0])
        bad = json.dumps(cert)
        Path(p("cert")).write_text(bad, encoding="utf-8")
        code, report, _ = run.run_cli(self.main, ["verify", "--cert", p("cert")])
        fails = [checks.check_chain(inst.expect, 0, bad), checks.check_verify(code, report)]
        self.assertEqual(fails[0], [])
        self.assertIn("verify exit 1", fails[1])
        tally = run.Tally()
        tally.add([("chain", 0.1, 1), ("verify", 0.1, 1)], fails, [])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_moved_endpoint_is_a_failure(self):
        inst, out, _ = self._cert()
        cert = json.loads(out)
        bump_first_entry(cert["nodes"][-1])
        self.assertIn("last node is not the canonical second input",
                      checks.check_chain(inst.expect, 0, json.dumps(cert)))

    def test_wrong_analyze_answers_are_failures(self):
        planted, aniso = gen.analyze_search(1, count=2)
        self.assertIsNotNone(planted.expect["planted"])
        self.assertIsNone(aniso.expect["planted"])
        run.write_files(run.encode([planted, aniso]), self.base)
        for k, inst, vector in ((0, planted, None), (1, aniso, [1] + [0] * 2),
                                (0, planted, [2] + [0] * (len(planted.expect["diag"]) - 1))):
            diag = inst.expect["diag"]
            answer = {"kind": "symmetric", "dim": len(diag), "isotropic": vector,
                      "signature": [sum(a > 0 for a in diag), sum(a < 0 for a in diag), 0]}

            def fake_main(argv, answer=answer):
                sys.stdout.write(json.dumps(answer))
                return 0

            with self.subTest(vector=vector):
                tally = run.Tally()
                tally.add(*run.run_instance(fake_main, inst, self.base / str(k)))
                self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_crash_is_a_failure_not_an_error(self):
        inst = gen.lattice_queries(1, count=1)[0]
        run.write_files(run.encode([inst]), self.base)

        def crashing_main(argv):
            raise RuntimeError("boom")

        tally = run.Tally()
        tally.add(*run.run_instance(crashing_main, inst, self.base / "0"))
        self.assertEqual(tally.failed, 1)


def bump_first_entry(obj):
    """Add one to the first rational entry found (depth first)."""
    stack = [obj]
    while stack:
        cur = stack.pop()
        items = cur.items() if isinstance(cur, dict) else enumerate(cur)
        for key, value in items:
            if key == "base":
                continue
            if isinstance(value, str) and isinstance(key, int):
                cur[key] = str(Fraction(value) + 1)
                return
            if isinstance(value, (dict, list)):
                stack.append(value)
    raise AssertionError("no rational entry to perturb")


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, make in gen.WORKLOADS.items():
            with self.subTest(workload=name):
                a = [i.files for i in make(4)]
                self.assertEqual(a, [i.files for i in make(4)])
                self.assertNotEqual(a, [i.files for i in make(5)])

    def test_shell3_pairs_sit_at_fixed_positions(self):
        period = len(gen.CERT_SMALL_PATTERN) * gen.SHELL3_EVERY
        first = len(gen.CERT_SMALL_PATTERN) * gen.SHELL3_AT + gen.CERT_SMALL_PATTERN.index(
            "orthogonal")
        for seed in (1, 2):
            insts = gen.cert_small(seed)
            self.assertEqual([i for i, inst in enumerate(insts) if inst.expect.get("shell3")],
                             list(range(first, len(insts), period)))
            for inst in insts:
                a, b = inst.expect["node_first"], inst.expect["node_last"]
                gram = inst.files["space"]["gram"]
                if inst.expect["tag"] != "orthogonal" or len(a) != 1 \
                        or not gen._interior_pair(a, b, gram):
                    continue
                height = gen.interior_search_height(a[0], b[0], gram, 3)
                self.assertEqual(height == 3, bool(inst.expect.get("shell3")), height)
                self.assertIn(height, (1, 2, 3))

    def test_cusp_data_are_isotropic(self):
        cases = gen.cert_small(2, count=60) + gen.cert_large(2, shapes=[(8, 4)])
        for inst in cases:
            space = inst.files["space"]
            d = space.get("D")
            gram = space["gram"]
            for key in ("i1", "i2"):
                rows = inst.files[key]["basis"]
                if d is None:
                    rows = [[Fraction(x) for x in r] for r in rows]
                    pair = lambda u, v: sum(u[i] * gram[i][j] * v[j]
                                            for i in range(len(u)) for j in range(len(v)))
                    zero = 0
                else:
                    rows = [[(Fraction(x["a"]), Fraction(x["b"])) for x in r] for r in rows]

                    def pair(u, v):
                        total = (Fraction(0), Fraction(0))
                        for i in range(len(u)):
                            for j in range(len(v)):
                                if gram[i][j]:
                                    t = gen.hmul(u[i], gen.hconj(v[j]), d)
                                    total = gen.hadd(total, (t[0] * gram[i][j], t[1] * gram[i][j]))
                        return total

                    zero = (0, 0)
                for u in rows:
                    for v in rows:
                        self.assertEqual(pair(u, v), zero, inst.expect["tag"])


class Tracing(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        run.load_program()
        tracer = tracing.Tracer()
        before = {name: dict(vars(mod)) for name, mod in tracer.mods.items()}
        matrix_mul = tracer.mods["exact"].Matrix.__dict__["__mul__"]
        tracer.install()
        self.assertIsNot(tracer.mods["cli"].BUILDERS["alternating"],
                         before["cli"]["BUILDERS"]["alternating"])
        tracer.uninstall()
        for name, mod in tracer.mods.items():
            self.assertEqual(dict(vars(mod)), before[name], name)
        self.assertIs(tracer.mods["exact"].Matrix.__dict__["__mul__"], matrix_mul)


if __name__ == "__main__":
    unittest.main()
