import json
import random
import shlex
import subprocess
import sys

import pytest

from indpoly import (
    clique_cover,
    comb,
    format_rational,
    graph_to_json_dict,
    isp_coeffs,
    parse_dimacs,
    path_graph,
    reduce_to_graph,
)
from indpoly.cli import _build_parser, main
from indpoly.verify import SUITES, random_graph

CLI = [sys.executable, "-m", "indpoly"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


def records_of(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def conforming_oracle(tmp_path) -> str:
    """Command of an external oracle that answers with the internal
    evaluator and appends each request to ``requests.jsonl``."""
    script = tmp_path / "oracle.py"
    log = tmp_path / "requests.jsonl"
    script.write_text(
        "import json, sys\n"
        "from indpoly import graph_from_json_dict, isp_eval, format_rational\n"
        "line = sys.stdin.readline()\n"
        f"with open({str(log)!r}, 'a') as handle:\n"
        "    handle.write(line)\n"
        "request = json.loads(line)\n"
        "value = isp_eval(graph_from_json_dict(request['graph']), request['point'])\n"
        "print(json.dumps({'value': format_rational(value)}))\n"
    )
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


@pytest.fixture
def one_clause(tmp_path):
    path = tmp_path / "one.cnf"
    path.write_text("p cnf 3 1\n1 2 3 0\n")
    return str(path)


@pytest.fixture
def p4_graph(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("p is 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    return str(path)


@pytest.fixture
def k2_graph(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"n": 2, "edges": [[0, 1]]}')
    return str(path)


class TestCountingCommands:
    def test_count_sat(self, one_clause):
        proc = run_cli("count-sat", one_clause)
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["count"] == 7
        assert record["n"] == 3 and record["m"] == 1

    def test_count_x3sat(self, one_clause):
        proc = run_cli("count-x3sat", one_clause)
        assert proc.returncode == 0
        assert records_of(proc.stdout)[0]["count"] == 3

    def test_count_via_is(self, one_clause):
        proc = run_cli("count-via-is", one_clause)
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["count"] == 7
        assert record["vertices"] == 14
        assert record["target_size"] == 5
        assert record["multiplier"] == 1


class TestReductionCommands:
    def test_reduce_x3sat(self, one_clause, tmp_path):
        out = tmp_path / "reduced.cnf"
        proc = run_cli("reduce-x3sat", one_clause, "--out", str(out))
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["clauses_out"] == 5 and record["vars_out"] == 9
        assert out.read_text() == record["dimacs"]
        check = run_cli("count-x3sat", str(out))
        assert records_of(check.stdout)[0]["count"] == 7

    def test_reduce_graph(self, one_clause):
        proc = run_cli("reduce-graph", one_clause)
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["vertices"] == 3
        assert record["target_size"] == 1
        assert record["labels"] == [1, 2, 3]

    def test_reduce_graph_labels_follow_clause_order(self, tmp_path):
        # Widths 2 and 3 and negated literals, so a wrong order shows.
        f = parse_dimacs("p cnf 4 3\n1 -2 3 0\n-1 4 0\n2 -3 -4 0\n")
        reduction = reduce_to_graph(f)
        records = []
        for formula, name in ((f, "x3.cnf"), (reduction.reduced, "reduced.cnf")):
            path = tmp_path / name
            path.write_text(formula.to_dimacs())
            (record,) = records_of(run_cli("reduce-graph", str(path)).stdout)
            assert record["labels"] == [lit for clause in formula.clauses for lit in clause]
            records.append(record)
        assert records[0]["labels"] == [1, -2, 3, -1, 4, 2, -3, -4]
        # The count's cliques are the reduced clauses, as consecutive runs
        # of the record's vertices, and the record's graph is the one counted.
        labels = records[1]["labels"]
        assert records[1]["graph"] == graph_to_json_dict(reduction.graph)
        start = 0
        for clique, clause in zip(reduction.cliques, reduction.reduced.clauses, strict=True):
            assert clique == tuple(range(start, start + len(clause)))
            assert [labels[v] for v in clique] == list(clause)
            start += len(clause)
        assert start == len(labels)


class TestPolynomialCommands:
    def test_isp_eval(self, p4_graph):
        proc = run_cli("isp-eval", p4_graph, "--at", "2/1")
        assert proc.returncode == 0
        assert records_of(proc.stdout)[0]["value"] == "21/1"

    def test_isp_eval_json_graph(self, k2_graph):
        proc = run_cli("isp-eval", k2_graph, "--at", "-1/5")
        assert proc.returncode == 0
        assert records_of(proc.stdout)[0]["value"] == "3/5"

    def test_isp_coeffs(self, p4_graph):
        proc = run_cli("isp-coeffs", p4_graph)
        assert records_of(proc.stdout)[0]["coeffs"] == ["1/1", "4/1", "3/1"]

    def test_clone(self, k2_graph):
        proc = run_cli("clone", k2_graph, "--s", "1")
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["vertices_out"] == 4
        assert record["result"]["n"] == 4

    def test_normalize_point(self):
        proc = run_cli("normalize-point", "--at", "-1/2")
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["target_point"] == "48/1"
        assert record["steps"] == [{"op": "comb", "k": 4}, {"op": "two_clone"}]

    def test_interpolate(self, k2_graph):
        proc = run_cli("interpolate", k2_graph, "--at", "2/1")
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["coeffs"] == ["1/1", "2/1"]
        assert record["oracle"] == "internal_definitional"
        # K2 is one clique, so the degree bound is 1 and the family has 2 members.
        assert record["degree_bound"] == 1
        assert "family" not in record

    def test_interpolate_family_sized_by_clique_cover(self, p4_graph):
        proc = run_cli("interpolate", p4_graph, "--at", "2")
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["coeffs"] == ["1/1", "4/1", "3/1"]
        assert record["degree_bound"] == len(clique_cover(path_graph(4))) == 2
        assert "family" not in record

    @pytest.mark.parametrize("x", ["-1/2", "-3"])
    def test_interpolate_at_hard_point(self, tmp_path, x):
        # Points where the path reduction is degenerate are interpolated
        # straight from the comb family.
        g = random_graph(random.Random(47), 7, 0.3)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json_dict(g)))
        proc = run_cli("interpolate", str(path), "--at", x)
        assert proc.returncode == 0 and proc.stderr == ""
        (record,) = records_of(proc.stdout)
        (direct,) = records_of(run_cli("isp-coeffs", str(path)).stdout)
        assert record["coeffs"] == direct["coeffs"]
        assert record["degree_bound"] == len(clique_cover(g))

    def test_interpolate_with_external_oracle(self, k2_graph, tmp_path):
        proc = run_cli("interpolate", k2_graph, "--at", "2/1", "--oracle", conforming_oracle(tmp_path))
        assert proc.returncode == 0
        assert records_of(proc.stdout)[0]["coeffs"] == ["1/1", "2/1"]

    @pytest.mark.parametrize("external", [False, True], ids=["internal", "external"])
    def test_interpolate_empty_graph_is_a_one_member_family(self, tmp_path, external):
        empty = tmp_path / "empty.txt"
        empty.write_text("p is 0 0\n")
        oracle = ["--oracle", conforming_oracle(tmp_path)] if external else []
        proc = run_cli("interpolate", str(empty), "--at", "2", *oracle)
        assert proc.returncode == 0
        (record,) = records_of(proc.stdout)
        assert record["coeffs"] == ["1/1"]
        assert record["degree_bound"] == 0
        assert "family" not in record
        if external:
            requests = records_of((tmp_path / "requests.jsonl").read_text())
            assert requests == [{"graph": {"n": 0, "edges": []}, "point": "2/1"}]

    def test_interpolate_queries_comb_i_in_order(self, tmp_path):
        # The external-oracle contract: query i is on comb(g, i), G with i
        # leaves on every vertex, at the given point.
        g = random_graph(random.Random(46), 8, 0.3)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json_dict(g)))
        proc = run_cli("interpolate", str(path), "--at", "1/2", "--oracle", conforming_oracle(tmp_path))
        assert proc.returncode == 0 and proc.stderr == ""
        requests = records_of((tmp_path / "requests.jsonl").read_text())
        assert len(requests) == len(clique_cover(g)) + 1
        for i, request in enumerate(requests):
            assert request == {"graph": graph_to_json_dict(comb(g, i)), "point": "1/2"}
        (record,) = records_of(proc.stdout)
        del record["timing_ms"]
        assert record == {
            "at": "1/2",
            "coeffs": [format_rational(c) for c in isp_coeffs(g).coeffs],
            "command": "interpolate",
            "degree_bound": len(clique_cover(g)),
            "graph": str(path),
            "oracle": "external_command",
            "vertices": 8,
        }


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self):
        assert run_cli("frobnicate").returncode == 64

    def test_unknown_flag_is_usage(self, one_clause):
        assert run_cli("count-sat", one_clause, "--bogus").returncode == 64

    def test_domain_error_degenerate_point(self, k2_graph):
        for x in ("0", "-1", "-2"):
            proc = run_cli("interpolate", k2_graph, "--at", x)
            assert proc.returncode == 1
            assert proc.stdout == ""
            assert "degenerate for the comb family" in proc.stderr

    def test_domain_error_degenerate_point_on_empty_graph(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("p is 0 0\n")
        proc = run_cli("interpolate", str(empty), "--at", "0")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "indpoly: error: x = 0 is degenerate for the comb family: its points x/(1 + x)^k "
            "are pairwise distinct only for x outside {0, -1, -2}\n"
        )

    def test_domain_error_unsupported_point(self):
        proc = run_cli("normalize-point", "--at", "-1/1")
        assert proc.returncode == 1
        assert "cycle" in proc.stderr

    def test_domain_error_invalid_formula(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 3 0\n")
        assert run_cli("count-sat", str(bad)).returncode == 1

    def test_domain_error_malformed_json_graph(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": 5}')
        proc = run_cli("isp-coeffs", str(bad))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("indpoly: error: ")
        assert "Traceback" not in proc.stderr

    def test_capacity_error(self, tmp_path):
        wide = tmp_path / "wide.cnf"
        wide.write_text("p cnf 30 1\n1 2 0\n")
        proc = run_cli("count-sat", str(wide))
        assert proc.returncode == 2
        assert "capacity" in proc.stderr

    def test_io_error_missing_file(self):
        assert run_cli("count-sat", "/nonexistent/file.cnf").returncode == 3

    def test_inconsistent_oracle_answers(self, k2_graph, tmp_path):
        script = tmp_path / "off_by_one.py"
        script.write_text(
            "import json, sys\n"
            "from indpoly import graph_from_json_dict, isp_eval, format_rational\n"
            "request = json.loads(sys.stdin.readline())\n"
            "value = isp_eval(graph_from_json_dict(request['graph']), request['point']) + 1\n"
            "print(json.dumps({'value': format_rational(value)}))\n"
        )
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
        proc = run_cli("interpolate", k2_graph, "--at", "2", "--oracle", command)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "inconsistent" in proc.stderr
        assert "a_0 = 2/3" in proc.stderr

    def test_oracle_protocol_error(self, k2_graph):
        proc = run_cli("interpolate", k2_graph, "--at", "2/1", "--oracle", "echo garbage")
        assert proc.returncode == 3
        assert "oracle" in proc.stderr


class TestVerifyCommand:
    def test_single_suite_passes(self):
        proc = run_cli("verify", "--suite", "gadget", "--seed", "7")
        assert proc.returncode == 0
        records = records_of(proc.stdout)
        summary = records[-1]
        assert summary["status"] == "pass"
        assert summary["failed"] == 0
        assert all(r["status"] == "pass" for r in records[:-1])

    def test_unknown_suite_is_usage(self):
        assert run_cli("verify", "--suite", "bogus").returncode == 64

    def test_all_suites_deterministic_modulo_timing(self):
        first = run_cli("verify", "--suite", "all", "--seed", "7")
        second = run_cli("verify", "--suite", "all", "--seed", "7")
        assert first.returncode == second.returncode == 0

        def strip_timing(stdout):
            out = []
            for line in stdout.splitlines():
                record = json.loads(line)
                record.pop("timing_ms", None)
                out.append(json.dumps(record, sort_keys=True))
            return "\n".join(out)

        assert strip_timing(first.stdout) == strip_timing(second.stdout)

    def test_failed_suite_exits_with_domain_code(self, monkeypatch, tmp_path, capsys):
        def failing_suite(seed):
            yield {"case": "fabricated failure", "status": "fail"}

        monkeypatch.setitem(SUITES, "_fabricated", failing_suite)
        # --suite choices are read from SUITES when the cached parser is built.
        _build_parser.cache_clear()
        try:
            code = main(["verify", "--suite", "_fabricated", "--dump-dir", str(tmp_path)])
        finally:
            _build_parser.cache_clear()
        assert code == 1
        case, summary = records_of(capsys.readouterr().out)
        assert case["status"] == "fail"
        assert summary["command"] == "verify"
        assert summary["status"] == "fail" and summary["failed"] == 1

    def test_seed_changes_sampled_cases(self):
        a = run_cli("verify", "--suite", "clone-identity", "--seed", "1")
        b = run_cli("verify", "--suite", "clone-identity", "--seed", "2")
        assert a.returncode == b.returncode == 0
        # different seeds still pass; reports exist for both
        assert records_of(a.stdout) and records_of(b.stdout)


class TestInProcessMain:
    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        four = tmp_path / "four.cnf"
        four.write_text("p cnf 4 1\n1 2 3 0\n")
        assert main(["count-sat", str(four), "--max-vars", "3"]) == 2
        assert "capacity" in capsys.readouterr().err
        assert main(["count-sat", str(four)]) == 0
        (record,) = records_of(capsys.readouterr().out)
        assert record["count"] == 14
        assert _build_parser() is _build_parser()
