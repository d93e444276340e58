"""Tests for ``scripts/perf_ab.py``, the paired A/B benchmark runner.

Only the runner's own logic is tested, on synthetic run records: the
alternating pair order, the sign test, the report's shape and the check
that both trees' references agree.  No benchmark is run here.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "perf_ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("perf_ab", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(**values):
    return {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()},
    }


class TestPairing:
    def test_sides_alternate_which_goes_first(self, ab):
        calls = []

        def run_side(side):
            calls.append(side)
            return _run(estimate_s=1.0)

        records = ab.run_pairs(4, run_side)
        assert calls == ["base", "change", "change", "base"] * 2
        assert len(records) == 4
        assert all(set(record) == {"base", "change"} for record in records)

    def test_pair_order(self, ab):
        assert [ab.pair_order(i) for i in range(3)] == [
            ("base", "change"),
            ("change", "base"),
            ("base", "change"),
        ]


class TestSignTest:
    @pytest.mark.parametrize(
        "wins, losses, p",
        [(10, 0, 2 / 1024), (0, 10, 2 / 1024), (9, 1, 22 / 1024), (5, 5, 1.0), (0, 0, 1.0)],
    )
    def test_exact_two_sided_p(self, ab, wins, losses, p):
        assert ab.sign_test_p(wins, losses) == pytest.approx(p)

    def test_never_above_one(self, ab):
        assert ab.sign_test_p(3, 4) == 1.0


class TestReport:
    def test_shape_wins_and_direction(self, ab):
        records = [
            {
                "base": _run(estimate_s=1.0 + i, jobs_per_s=5.0, only_base=1.0),
                "change": _run(estimate_s=0.5 + i, jobs_per_s=5.0 - (i % 2)),
            }
            for i in range(4)
        ]
        report = ab.summarize(records, {"estimate_s": "lower", "jobs_per_s": "higher"})
        assert set(report) == {"estimate_s", "jobs_per_s"}  # only metrics both sides report
        estimate = report["estimate_s"]
        assert (estimate["wins"], estimate["losses"], estimate["ties"]) == (4, 0, 0)
        assert estimate["p"] == pytest.approx(2 / 16)
        assert estimate["base"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
        assert estimate["change"]["median"] == 2.0
        assert (estimate["unit"], estimate["better"]) == ("s", "lower")
        jobs = report["jobs_per_s"]  # higher is better: the change loses or ties
        assert (jobs["wins"], jobs["losses"], jobs["ties"]) == (0, 2, 2)
        json.dumps(report)  # the record the runner prints is plain JSON

    def test_one_pair_has_degenerate_quartiles(self, ab):
        report = ab.summarize([{"base": _run(x=2.0), "change": _run(x=3.0)}], {})
        assert report["x"]["base"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
        assert report["x"]["losses"] == 1  # unknown metrics count lower as better


class TestReferences:
    META = {
        "edges": 10,
        "triangles": 4,
        "references": [{"est_seed": 1, "digest": "aa", "root_rng_sha256": "bb", "estimate": 4.0}],
    }

    def test_equal_references_agree(self, ab):
        assert ab.reference_problems(self.META, json.loads(json.dumps(self.META))) == []

    def test_a_differing_digest_is_reported(self, ab):
        other = json.loads(json.dumps(self.META))
        other["references"][0]["root_rng_sha256"] = "cc"
        assert ab.reference_problems(self.META, other)

    def test_a_missing_reference_is_reported(self, ab):
        assert ab.reference_problems(self.META, None)
