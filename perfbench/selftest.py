"""Self-test of the indpoly benchmark.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout, that

* a deliberately wrong answer (every oracle or kernel result + 1) is
  caught: failed == attempted and the exit code is 1, on every workload;
* the tracer reports a traced function that does not exist as absent,
  with zero metrics, instead of crashing;
* per-layer self times, counting time and unattributed time add up to the
  traced job time;
* call and size counts repeat exactly for the same seed, in runs of
  different lengths;
* the metric and workload names match BENCHMARK.json;
* the host reference task still does the same work;
* without the package source the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def check(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_corrupt_answers_fail(names):
    for name in names:
        code, result, _ = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                "--trace", "0", "--corrupt")
        check(code == 1 and result["correct"] is False
              and result["failed"] == result["attempted"] > 0,
              f"{name}: corrupted answers give failed_ratio 1 and exit code 1")


def test_absent_layer():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import indpoly.interpolate  # noqa: F401  (the tracer looks modules up)
    from tracer import Layer, Tracer

    tracer = Tracer()
    tracer.install([Layer("interpolate.removed", "indpoly.interpolate", "no_such_function"),
                    Layer("gone.module", "indpoly.no_such_module", "f")])
    tracer.uninstall()
    check(tracer.absent == ["interpolate.removed", "gone.module"] and not tracer.stats,
          "missing functions and modules are reported absent, not raised")


def test_trace_accounting_and_determinism(names):
    # Runs of different lengths make different numbers of passes, so equal
    # counts show that they do not depend on how many passes fit in a run.
    runs = {}
    for name in names:
        attempted = []
        for seconds in ("1", "10"):
            code, result, _ = bench("--workload", name, "--seed", "5", "--seconds", seconds,
                                    "--trace", "1")
            check(code == 0 and result["correct"], f"{name}: traced {seconds} s run correct")
            attempted.append(result["attempted"])
            runs.setdefault(name, []).append(
                {k: v["value"] for k, v in result["metrics"].items()})
        check(attempted[0] != attempted[1], f"{name}: the two traced runs made different passes")
        m = runs[name][0]
        parts = sum(v for k, v in m.items() if k.endswith(".self_ms"))
        parts += m["trace.counting_ms"] + m["trace.unattributed_ms"]
        check(math.isclose(parts, m["trace.job_ms"], rel_tol=1e-9),
              f"{name}: self times + counting + unattributed = traced job time")
        counts = [{k: v for k, v in r.items() if not k.endswith("_ms") and "ratio" not in k}
                  for r in runs[name]]
        check(counts[0] == counts[1], f"{name}: calls and size counts repeat exactly")
    x2 = runs["interp_x2"][0]
    check(x2["interpolate.build_clone_family.calls"] == 2,
          "interp_x2: build_clone_family runs twice per CLI job")


def test_names_match_benchmark_json():
    sys.path.insert(0, str(BENCH_DIR))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "end-to-end metrics match BENCHMARK.json")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {**run.LAYER_METRICS, **run.TRACE_METRICS},
          "per-layer metrics match BENCHMARK.json")
    return [w["name"] for w in spec["workloads"]]


def test_reference_task_unchanged():
    sys.path.insert(0, str(BENCH_DIR))
    import hostref

    check(hostref.reference_task() == 40 * 63657,
          "host reference task unchanged (every adjusted time is relative to it)")


def test_fails_without_source():
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", "sat_via_is", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare, script=bare / BENCH_DIR.name / "run.py")
        check(code != 0 and result is None, "no package source: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it


def main():
    names = test_names_match_benchmark_json()
    test_reference_task_unchanged()
    test_absent_layer()
    test_fails_without_source()
    test_corrupt_answers_fail(names)
    test_trace_accounting_and_determinism(names)
    print("selftest passed")


if __name__ == "__main__":
    main()
