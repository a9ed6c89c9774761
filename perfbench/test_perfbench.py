"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from limshape import asymptotics, polyhedra  # noqa: E402
from limshape.groebner import LastVariableError  # noqa: E402
from limshape.linalg import rank  # noqa: E402
from limshape.staircase import MonomialStaircase  # noqa: E402
from spans import Recorder, Span, coverage, layer_times, patch, self_times, unpatch  # noqa: E402
from workloads import (  # noqa: E402
    CliWorkload,
    StaircaseSweep,
    _check_intersecting_lines,
    intersecting_lines_config,
    load_pool,
    make_pool,
    two_lines_config,
)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_spans(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
            Span("a", 1.5, 2.0, 1),  # a inside a
            Span("later", 12.0, 13.0, None),
        ]
        self.assertEqual(self_times(spans), [5.0, 2.5, 3.0, 0.5, 1.0])
        times = layer_times(spans)
        self.assertEqual(times["a"], {"s": 3.0, "calls": 2, "self_s": 3.0})
        self.assertEqual(coverage(spans, 20.0), 11.0 / 20.0)

    def test_wrapped_calls_nest(self):
        ticks = iter(range(100))
        rec = Recorder(clock=lambda: float(next(ticks)))

        class Owner:
            @staticmethod
            def inner(x):
                return x + 1

            @staticmethod
            def outer(x):
                return Owner.inner(x) * 2

        saved = patch(rec, [(Owner, "inner", "inner"), (Owner, "outer", "outer")])
        try:
            self.assertEqual(Owner.outer(1), 4)
        finally:
            unpatch(saved)
        self.assertEqual([s.name for s in rec.spans], ["outer", "inner"])
        self.assertEqual(rec.spans[1].parent, 0)
        self.assertEqual(self_times(rec.spans), [2.0, 1.0])
        self.assertEqual(Owner.inner(1), 2)  # unpatched


class FailureAccountingTest(unittest.TestCase):
    def setUp(self):
        scratch = HERE.parent / ".perfbench_work"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=scratch)
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def cli_pass(self):
        wl = CliWorkload("intersecting-lines", intersecting_lines_config, m_max=2,
                         row_check=_check_intersecting_lines)
        result = wl.run_pass(wl.build(1, self.workdir), self.workdir / "out")
        if result.outputs is not None:
            wl.check(1, result)
        return result

    def test_clean_cli_pass(self):
        result = self.cli_pass()
        self.assertEqual(result.failures, [None, None])
        self.assertEqual(result.problems, [])

    def test_escaping_exception_counts_every_row(self):
        # compute_report_row does not catch LastVariableError; the CLI maps
        # it to exit code 3 and the pass must not crash the benchmark
        def boom(*args, **kwargs):
            raise LastVariableError("injected")

        original = asymptotics.compute_report_row
        asymptotics.compute_report_row = boom
        try:
            result = self.cli_pass()
        finally:
            asymptotics.compute_report_row = original
        self.assertEqual(len(result.failures), 2)
        self.assertTrue(all(f.startswith("exit code 3") for f in result.failures))

    def test_uncaught_class_is_counted_by_name(self):
        def boom(*args, **kwargs):
            raise ZeroDivisionError("injected")

        original = MonomialStaircase.count_gamma
        MonomialStaircase.count_gamma = boom
        try:
            sweep = StaircaseSweep()
            sweep.family_size = 2
            result = sweep.run_pass(sweep.build(1, self.workdir), None)
        finally:
            MonomialStaircase.count_gamma = original
        self.assertEqual(result.failures[:2], ["ZeroDivisionError"] * 2)

    def test_wrong_output_is_a_problem(self):
        def skewed(hull, t, apex_last=False):
            return original(hull, t, apex_last) + apex_last

        original = polyhedra.clipped_volume
        polyhedra.clipped_volume = skewed
        try:
            sweep = StaircaseSweep()
            sweep.family_size = 2
            result = sweep.run_pass(sweep.build(1, self.workdir), None)
        finally:
            polyhedra.clipped_volume = original
        sweep.check(1, result)
        self.assertEqual(result.problems, ["apex volumes disagree"] * 2)


class InputsTest(unittest.TestCase):
    def test_pool_is_made_as_documented(self):
        pool = load_pool()
        self.assertEqual(len(pool), 16)
        self.assertEqual(make_pool(2), pool[:2])

    def test_every_seed_presents_the_same_lines(self):
        one, two = (two_lines_config(s)["components"] for s in (1, 2))
        self.assertNotEqual(one, two)
        for a, b in zip(one, two):
            self.assertEqual(rank(a["forms"] + b["forms"]), 2)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )


if __name__ == "__main__":
    unittest.main()
