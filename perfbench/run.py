"""Benchmark of the `cylsym` command line.

    python3 perfbench/run.py --workload all                 # every metric, by name
    python3 perfbench/run.py --workload cyl-expand --seed 3 --seconds 40 --trace 0

A run replays seeded job lists in rounds.  Each round starts a fresh worker
process (worker.py), so the library's caches start cold, and sends it one
job list; the worker runs the jobs through `cylsym.cli.main` one at a time, a
closed loop with one client in one thread.  Rounds repeat while they are
expected to end within `--seconds`, at least MIN_ROUNDS of them, and times
are medians over rounds.
Outputs are checked after the last round against digests in refs.json.

With `--trace 1` the run instead makes one untraced and one traced round of
the seed's first job list and reports per-layer metrics from the trace.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
GOLDEN = ROOT / "tests" / "golden" / "gw_n4_k2_d2.json"
TRACE_DIR = HERE / "out"
MIN_ROUNDS = 3
# Worker starts with no jobs before each round: more setup_s samples, spread
# over the run so that one slow second of the host does not set the median.
SETUP_PROBES = 2
ROUND_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracer  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# rounds


def run_round(make_jobs, trace_file=None) -> dict:
    """Spawn a worker, hand it the jobs from make_jobs() and collect its results.

    setup_s runs from the spawn to the worker's "ready": interpreter start,
    `import cylsym` and, overlapping them, the generation of the job list.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        job_list = make_jobs()
        request = {"jobs": job_list, "trace_file": str(trace_file) if trace_file else None}
        proc.stdin.write(json.dumps(request) + "\n")
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - spawn
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    result = json.loads(out)
    result["setup_s"] = setup
    result["argv"] = job_list
    return result


def check_jobs(argv_list, results, outputs: dict, golden: bytes | None) -> list[bool]:
    """Per job: exit code 0 and stdout equal to its checked reference."""
    verdicts = []
    for argv, res in zip(argv_list, results):
        data = res["stdout"].encode()
        ok = res["exit"] == 0 and outputs.get(jobs.job_key(argv)) == hashlib.sha256(data).hexdigest()
        if argv == jobs.GOLDEN_JOB:
            ok = ok and data == golden
        verdicts.append(ok)
    return verdicts


# ---------------------------------------------------------------------------
# runs


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        refs = json.loads(REFS.read_text())
        self.catalogue, self.outputs = refs["catalogue"], refs["outputs"]
        self.golden = GOLDEN.read_bytes() if GOLDEN.exists() else None
        self.calib_s = calibrate()

    def jobs_of(self, rnd: int):
        return lambda: jobs.round_jobs(self.workload, self.seed, rnd, self.catalogue)

    def verdicts(self, rounds) -> list[bool]:
        out = []
        for r in rounds:
            out += check_jobs(r["argv"], r["jobs"], self.outputs, self.golden)
        return out

    def measure(self, seconds: float) -> tuple[list[dict], dict, dict]:
        start = time.perf_counter()
        rounds, durations, setups = [], [], []
        # Start a round only while it is expected to end within the budget.
        while len(rounds) < MIN_ROUNDS or (
                time.perf_counter() - start + statistics.median(durations) <= seconds):
            began = time.perf_counter()
            setups += [run_round(lambda: [])["setup_s"] for _ in range(SETUP_PROBES)]
            rounds.append(run_round(self.jobs_of(len(rounds))))
            setups.append(rounds[-1]["setup_s"])
            durations.append(time.perf_counter() - began)
        latencies = [j["seconds"] * 1000 for r in rounds for j in r["jobs"]]
        p90 = statistics.quantiles(latencies, n=10)[-1]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "job_p50_ms": statistics.median(latencies),
            "job_p90_ms": p90,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        notes = {
            "rounds": len(rounds),
            "samples": len(latencies),
            "beyond_p90": sum(x > p90 for x in latencies),
            "repeat_share": sum(jobs.repeat_share(r["argv"]) * len(r["argv"]) for r in rounds)
            / len(latencies),
        }
        return rounds, metrics, notes

    def traced(self) -> tuple[list[dict], dict]:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{self.workload}-seed{self.seed}.jsonl"
        plain = run_round(self.jobs_of(0))
        traced = run_round(self.jobs_of(0), trace_file)
        metrics = layer_metrics(traced["trace"])
        job_wall = sum(j["seconds"] for j in traced["jobs"])
        self_sum = sum(s[1] for s in traced["trace"]["stats"].values())
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        metrics["trace.self_sum_ratio"] = (self_sum / job_wall, "ratio")
        metrics["host.calib_s"] = (self.calib_s, "s")
        return [plain, traced], metrics


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics, name -> (value, unit), from a traced round."""
    stats, caches = trace["stats"], trace["caches"]

    def calls(*names):
        return sum(stats.get(n, [0])[0] for n in names)

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0])[1] for n in names)

    def hit_ratio(name):
        c = caches[name]
        total = c["hits"] + c["misses"]
        return c["hits"] / total if total else 0.0

    m = {}

    def per_function(module, functions):
        for label, names in functions.items():
            m[f"{module}.{label}.calls"] = (calls(*names), "count")
            m[f"{module}.{label}.self_s"] = (self_s(*names), "s")

    for module in tracer.MODULES:
        m[f"{module}.self_s"] = (
            sum(v[1] for n, v in stats.items() if n.startswith(module + ".")), "s")
    per_function("cyclotomic", {
        "CycloNum.mul": ["cyclotomic.CycloNum.__mul__", "cyclotomic.CycloNum.__rmul__"],
        "CycloNum.add": ["cyclotomic.CycloNum.__add__"],
        "CycloNum.inv": ["cyclotomic.CycloNum.inv"],
        "eval_alternant": ["cyclotomic.eval_alternant"],
        "eval_msym": ["cyclotomic.eval_msym"],
    })
    m["cyclotomic.zeta_pow.hit_ratio"] = (hit_ratio("cyclotomic.zeta_pow"), "ratio")
    per_function("grassmannian", {f: [f"grassmannian.{f}"]
                                  for f in ("gw_bvi", "gw_ribbon", "gw_table", "cyl_schur")})
    m["grassmannian.GrassContext.build_s"] = (
        stats["grassmannian.GrassContext.__init__"][2], "s")
    m["grassmannian.grass_context.hit_ratio"] = (
        hit_ratio("grassmannian.grass_context"), "ratio")
    per_function("fusion", {f: [f"fusion.{f}"]
                            for f in ("n_verlinde", "n_count", "n_reduce", "symmetry_suite")})
    fc = caches["fusion.fusion_count"]
    m["fusion.fusion_count.calls"] = (fc["hits"] + fc["misses"], "count")
    m["fusion.fusion_count.hit_ratio"] = (hit_ratio("fusion.fusion_count"), "ratio")
    m["fusion.fusion_count.cache_size"] = (fc["size"], "count")
    m["fusion.FusionContext.build_s"] = (stats["fusion.FusionContext.__init__"][2], "s")
    per_function("cylindric", {f: [f"cylindric.{f}"] for f in
                               ("cyl_h", "cyl_e", "coproduct_cyl_check", "antipode_check")})
    m["cylindric.step_weight.calls"] = (
        calls("cylindric.theta_cyl", "cylindric.psi_cyl", "cylindric.phi_cyl"), "count")
    per_function("symfunc", {f: [f"symfunc.{f}"] for f in ("multiply", "convert")})
    mn = caches["symfunc.mn_character"]
    m["symfunc.mn_character.calls"] = (mn["hits"] + mn["misses"], "count")
    m["symfunc.mn_character.hit_ratio"] = (hit_ratio("symfunc.mn_character"), "ratio")
    per_function("partitions", {f: [f"partitions.{f}"]
                                for f in ("enumerate_alcove", "enumerate_boxed", "n_core")})
    m["partitions.weights_built"] = (calls("partitions.AlcoveWeight.__post_init__",
                                           "partitions.BoxedPartition.__post_init__"), "count")
    m["affine.ShiftedShape.calls"] = (calls("affine.ShiftedShape.__post_init__"), "count")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    for module in tracer.MODULES:
        m[f"{module}.errors"] = (trace["errors"][module], "count")
    return m


# ---------------------------------------------------------------------------
# reporting


def report(workload: str, seed: int, trace: bool, seconds: float) -> dict:
    run = Run(workload, seed)
    if trace:
        rounds, metrics = run.traced()
        notes = {"rounds": 2}
    else:
        rounds, values, notes = run.measure(seconds)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in values.items()}
    verdicts = run.verdicts(rounds)
    attempted, failed = len(verdicts), verdicts.count(False)
    correct = failed == 0
    if trace:
        # the tracer's self times must account for the traced job time
        correct = correct and 0.9 <= metrics["trace.self_sum_ratio"][0] <= 1.0 + 1e-9

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  rounds {notes['rounds']}"
          f"  jobs {attempted}  (closed loop: one client, one thread)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':42s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    if not trace:
        print(f"  {'job samples':42s} {notes['samples']:14d} count"
              f" ({notes['beyond_p90']} beyond p90)")
        print(f"  {'repeat_share':42s} {notes['repeat_share']:14.6g} ratio")
        print(f"  {'round wall_s':42s} " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
        print(f"  {'host.calib_s':42s} {run.calib_s:14.6g} s")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = report(workload, args.seed, bool(args.trace), args.seconds)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
