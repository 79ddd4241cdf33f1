import json
import random
from pathlib import Path

import pytest

import indpoly.verify
from indpoly import DomainError, graph_to_text
from indpoly.verify import (
    SUITES,
    all_3cnf_formulas,
    all_graphs,
    random_3cnf,
    random_graph,
    random_x3sat,
    run_suites,
    suite_clone_identity,
)

GOLDEN_SEED7 = Path(__file__).parent / "data" / "verify_seed7.jsonl"


class TestGenerators:
    def test_all_graphs_counts(self):
        assert sum(1 for _ in all_graphs(0)) == 1
        assert sum(1 for _ in all_graphs(3)) == 8
        assert sum(1 for _ in all_graphs(4)) == 64

    def test_random_graph_deterministic(self):
        a = random_graph(random.Random(5), 6)
        b = random_graph(random.Random(5), 6)
        assert a == b

    def test_random_3cnf_valid(self):
        rng = random.Random(6)
        for _ in range(50):
            f = random_3cnf(rng, rng.randint(1, 5), rng.randint(0, 3))
            assert all(1 <= len(c) <= 3 for c in f.clauses)

    def test_random_x3sat_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_x3sat(rng)
            assert sum(len(c) for c in f.clauses) <= 15
            for clause in f.clauses:
                assert len(clause) in (2, 3)
                assert len({abs(l) for l in clause}) == len(clause)

    def test_all_3cnf_formulas_counts(self):
        # 6 + 15 + 20 = 41 clauses of width 1..3 over 3 variables; the
        # formulas are the multisets of up to max_clauses of them.
        formulas = all_3cnf_formulas(3, 1)
        assert len(formulas) == 1 + 41
        assert formulas[0].clauses == ()
        assert len(set(formulas)) == len(formulas)
        assert len(all_3cnf_formulas(3, 2)) == 1 + 41 + 41 * 42 // 2 == 903


class TestRunSuites:
    def test_all_registered_suites_pass(self):
        records = []
        assert run_suites(list(SUITES), 7, records.append) == (len(records), 0)
        assert all(r["status"] == "pass" for r in records)
        assert {r["suite"] for r in records} == set(SUITES)
        # The seed-7 report is pinned: refactors must keep it byte-identical.
        expected = GOLDEN_SEED7.read_text().splitlines()
        assert [json.dumps(r, sort_keys=True) for r in records] == expected

    def test_records_are_json_serializable_and_deterministic(self):
        first, second = [], []
        run_suites(["clone-identity"], 3, first.append)
        run_suites(["clone-identity"], 3, second.append)
        assert [json.dumps(r, sort_keys=True) for r in first] == [
            json.dumps(r, sort_keys=True) for r in second
        ]

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suites(["nope"], 7, lambda r: None)

    def test_failure_writes_counterexample_files(self, tmp_path):
        def failing_suite(seed):
            yield {"case": "fabricated pass", "status": "pass"}
            yield {
                "case": "fabricated failure",
                "status": "fail",
                "counterexample": {"formula.cnf": "p cnf 1 1\n1 0\n"},
            }

        SUITES["_fabricated"] = failing_suite
        try:
            records = []
            passed_failed = run_suites(["_fabricated"], 7, records.append, dump_dir=str(tmp_path))
            assert passed_failed == (1, 1)
            assert [r["status"] for r in records] == ["pass", "fail"]
            # Counterexample directories are numbered by position in the run.
            (path,) = records[1]["counterexample_files"]
            assert Path(path).parent.name == "case-001"
            with open(path) as handle:
                assert handle.read() == "p cnf 1 1\n1 0\n"
        finally:
            del SUITES["_fabricated"]


class TestSweep:
    def test_stops_at_first_failure_and_counts_it(self, monkeypatch):
        calls = []
        real = indpoly.verify.k_clone_identity_holds

        def fails_on_fifth(g, k, x):
            calls.append((g, k, x))
            return len(calls) != 5 and real(g, k, x)

        monkeypatch.setattr(indpoly.verify, "k_clone_identity_holds", fails_on_fifth)
        records = list(suite_clone_identity(7))
        (record,) = [r for r in records if r["case"].startswith("k-clone identity")]
        assert record["status"] == "fail"
        assert record["checked"] == 5
        failing_graph = calls[-1][0]
        assert record["counterexample"]["graph.txt"] == graph_to_text(failing_graph)
        assert len(calls) == 5
