"""Tests of the benchmark's pure helpers: python3 -m unittest discover e2ebench"""

import json
import unittest
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent


def by_benchmark(job):
    return job[1]["benchmark"]


# The first round of serve-search jobs for seed 1: one per benchmark.
SEARCH_SEED1 = ["BZIP2/SPARC-II/serial", "CRAFTY/SPARC-II/serial", "TWOLF/SPARC-II/serial",
                "GZIP/SPARC-II/serial", "VORTEX/SPARC-II/serial", "MESA/SPARC-II/serial"]


class SeededOrder(unittest.TestCase):
    def test_same_seed_same_order(self):
        for workload in ("serve-search", "serve-figure7"):
            menu = benchlib.serve_menu(workload)
            self.assertEqual(benchlib.seeded_order(menu, 7), benchlib.seeded_order(menu, 7))

    def test_order_is_pinned(self):
        self.assertEqual(benchlib.seeded_order(range(8), 1), [4, 3, 2, 7, 5, 6, 0, 1])
        jobs = benchlib.seeded_jobs(benchlib.serve_menu("serve-search"), 1, by_benchmark)
        self.assertEqual([k for k, _ in jobs][:6], SEARCH_SEED1)
        cells = benchlib.seeded_jobs(benchlib.table1_menu(), 1, lambda c: c["benchmark"])
        self.assertEqual([c["id"] for c in cells][:3],
                         ["VORTEX/SPARC-II", "GZIP/SPARC-II", "EQUAKE/SPARC-II"])

    def test_benchmarks_are_dealt_round_robin_in_menu_order(self):
        menu = benchlib.serve_menu("serve-search")
        for seed in range(10):
            jobs = benchlib.seeded_jobs(menu, seed, by_benchmark)
            self.assertEqual(sorted(jobs), sorted(menu))
            n = len(benchlib.SEARCH_BENCHMARKS)
            rounds = [jobs[i:i + n] for i in range(0, len(jobs), n)]
            for r in rounds:
                self.assertEqual([by_benchmark(j) for j in r], [by_benchmark(j) for j in rounds[0]])
            for bench in benchlib.SEARCH_BENCHMARKS:
                self.assertEqual([j for j in jobs if by_benchmark(j) == bench],
                                 [j for j in menu if by_benchmark(j) == bench])

    def test_seed_changes_only_the_order(self):
        menu = benchlib.serve_menu("serve-search")
        orders = [benchlib.seeded_order(menu, seed) for seed in range(20)]
        for order in orders:
            self.assertEqual(sorted(k for k, _ in order), sorted(k for k, _ in menu))
        self.assertGreater(len({tuple(k for k, _ in o) for o in orders}), 1)

    def test_input_is_not_modified(self):
        items = list(range(10))
        benchlib.seeded_order(items, 3)
        self.assertEqual(items, list(range(10)))


class Menus(unittest.TestCase):
    def test_sizes_and_unique_keys(self):
        for workload, size in (("serve-search", 36), ("serve-figure7", 12)):
            keys = [k for k, _ in benchlib.serve_menu(workload)]
            self.assertEqual(len(keys), size)
            self.assertEqual(len(set(keys)), size)
        cells = [c["id"] for c in benchlib.table1_menu()]
        self.assertEqual(len(cells), 20)
        self.assertEqual(len(set(cells)), 20)

    def test_requests_carry_their_key_and_deadline(self):
        for workload in ("serve-search", "serve-figure7"):
            for key, req in benchlib.serve_menu(workload):
                self.assertEqual(req["id"], key)
                self.assertEqual(req["kind"], "tune")
                self.assertEqual(req["deadline_ms"], benchlib.DEADLINE_MS)
        serial = dict(benchlib.serve_menu("serve-search"))["VORTEX/SPARC-II/serial"]
        self.assertNotIn("strategy", serial)
        self.assertNotIn("method", serial)

    def test_every_served_job_has_an_expected_answer(self):
        answers = json.loads((HERE / "expected" / "serve_answers.json").read_text())
        keys = [k for w in ("serve-search", "serve-figure7") for k, _ in benchlib.serve_menu(w)]
        self.assertEqual(sorted(keys), sorted(answers))
        for key in keys:
            self.assertEqual(set(answers[key]), {"best_bits", "result"})

    def test_every_table1_cell_has_committed_rows(self):
        root = HERE.parent
        expected = benchlib.table1_expected({
            "SPARC-II": json.loads((root / "results_table1_sparc.json").read_text()),
            "Pentium-IV": json.loads((root / "results_table1_p4.json").read_text()),
        })
        for cell in benchlib.table1_menu():
            self.assertTrue(expected.get(cell["id"]), cell["id"])


class TailPercentile(unittest.TestCase):
    def test_small_n_has_no_tail(self):
        self.assertIsNone(benchlib.tail_percentile([]))
        self.assertIsNone(benchlib.tail_percentile([1.0] * 10))

    def test_smallest_n_with_a_tail(self):
        value, pct, n = benchlib.tail_percentile([float(x) for x in range(11, 0, -1)])
        self.assertEqual((value, n), (1.0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_exact_boundaries(self):
        self.assertEqual(benchlib.tail_percentile(list(range(1, 21))), (10, 50.0, 20))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 101))), (90, 90.0, 100))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))), (990, 99.0, 1000))

    def test_ties_are_ranked(self):
        samples = [5.0] * 15 + [1.0] * 5
        self.assertEqual(benchlib.tail_percentile(samples), (5.0, 50.0, 20))
        self.assertEqual(benchlib.tail_percentile([2.0] * 12), (2.0, 100.0 * 2 / 12, 12))

    def test_other_beyond_counts(self):
        self.assertEqual(benchlib.tail_percentile([3, 1, 2], beyond=1), (2, 100.0 * 2 / 3, 3))


class Helpers(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_diff_answer(self):
        want = {"tuned_cycles": 5, "search": {"ratings": 3, "runs": 2}}
        self.assertEqual(benchlib.diff_answer(json.loads(json.dumps(want)), want), [])
        got = {"tuned_cycles": 6, "search": {"ratings": 3, "runs": 1}}
        self.assertEqual(benchlib.diff_answer(got, want), ["tuned_cycles", "search.runs"])
        self.assertEqual(benchlib.diff_answer(None, want), ["result"])


if __name__ == "__main__":
    unittest.main()
