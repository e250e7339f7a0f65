"""Self-tests of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

They check that a seed fixes the job lists, that the output checks count a
corrupted byte and a failing `verify` exit code as failures, that the metric
names match BENCHMARK.json, and that two traced rounds give identical
counts.  The last check runs the library and takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402


def refs() -> dict:
    return json.loads(run.REFS.read_text())


def test_seed_fixes_jobs():
    catalogue = refs()["catalogue"]
    for workload in jobs.WORKLOADS:
        first = [jobs.round_jobs(workload, 7, r, catalogue) for r in range(3)]
        again = [jobs.round_jobs(workload, 7, r, catalogue) for r in range(3)]
        assert first == again, workload
    a = jobs.round_jobs("cyl-expand", 7, 0, catalogue)
    b = jobs.round_jobs("cyl-expand", 8, 0, catalogue)
    assert a != b
    assert jobs.repeat_share(a) == 0.5
    assert jobs.repeat_share(jobs.round_jobs("gw-table", 7, 0, catalogue)) == 0
    assert jobs.repeat_share(jobs.round_jobs("verify", 7, 0, catalogue)) == 0


def test_every_job_has_a_reference():
    data = refs()
    for workload in jobs.WORKLOADS:
        for seed in range(20):
            for argv in jobs.round_jobs(workload, seed, seed % 5, data["catalogue"]):
                assert jobs.job_key(argv) in data["outputs"], argv


def test_checks_count_failures():
    golden = run.GOLDEN.read_bytes()
    argv = list(jobs.GOLDEN_JOB)
    outputs = {jobs.job_key(argv): hashlib.sha256(golden).hexdigest()}
    good = {"exit": 0, "stdout": golden.decode()}
    assert run.check_jobs([argv], [good], outputs, golden) == [True]
    corrupt = golden.replace(b"1", b"2", 1)
    bad = {"exit": 0, "stdout": corrupt.decode()}
    assert run.check_jobs([argv], [bad], outputs, golden) == [False]
    crashed = {"exit": None, "stdout": golden.decode()}
    assert run.check_jobs([argv], [crashed], outputs, golden) == [False]

    suite = jobs.verify_argv("symmetry", 5, 2)
    text = "fusion symmetries (n=5, k=2): 64800 checks, ok\n"
    outputs = {jobs.job_key(suite): hashlib.sha256(text.encode()).hexdigest()}
    assert run.check_jobs([suite], [{"exit": 0, "stdout": text}], outputs, golden) == [True]
    assert run.check_jobs([suite], [{"exit": 1, "stdout": text}], outputs, golden) == [False]


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_traced_counts_repeat():
    declared = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    measured = []
    for _ in range(2):
        r = run.Run("verify", 3)
        rounds, metrics = r.traced()
        assert all(r.verdicts(rounds))
        assert {k: u for k, (_, u) in metrics.items()} == declared
        measured.append({k: v for k, (v, u) in metrics.items()
                         if k.endswith((".calls", ".hit_ratio", ".cache_size", ".errors",
                                        ".weights_built"))})
    assert measured[0] == measured[1]
    assert measured[0]["cli.main.calls"] == len(jobs.VERIFY_SUITES)


def main() -> int:
    tests = [test_seed_fixes_jobs, test_every_job_has_a_reference, test_checks_count_failures,
             test_metric_names_match_benchmark_json, test_traced_counts_repeat]
    for test in tests:
        test()
        print("ok", test.__name__, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
