"""Seeded job lists for the three benchmark workloads.

A job is the argv list one `cylsym` command line would receive.  A run of
the benchmark is made of rounds; each round replays one job list in a fresh
worker process, so the library's caches start cold.  The list of round `r`
depends only on the workload, the seed and `r`.
"""

from __future__ import annotations

import random

WORKLOADS = ("gw-table", "cyl-expand", "verify")

# Gromov-Witten tables, (n, k, dmax).  Gr(1,7) brings the degree-6 field
# Q(zeta_7) in place of Gr(2,7): even its degree-0 table takes 5 to 8 s at the
# seed commit, which leaves a run too few rounds for steady medians.  Gr(2,4)
# is always the golden job.
GW_TABLES = ((7, 1, 2), (6, 3, 2), (6, 2, 2), (5, 3, 2))
GOLDEN_JOB = ["gw", "--n", "4", "--k", "2", "--dmax", "2", "--format", "json"]
GW_FORMATS = ("json", "csv", "text")

# Verification suites, (suite, n, k), sized to about 6 s per round.
VERIFY_SUITES = (
    ("formula-oracle", 4, 3),
    ("coalgebra", 4, 3),
    ("symmetry", 5, 2),
    ("route-equivalence", 4, 2),
    ("route-equivalence", 3, 3),
    ("orthogonality", 5, 1),
)

# Cylindric expansions: every (n, k, d, kind) cell of this grid gets the same
# number of distinct requests per round, drawn from a fixed catalogue, so the
# cost of a round varies little between seeds.
CYL_NK = ((5, 2), (6, 2), (5, 3), (6, 3), (7, 3))
CYL_DEGREES = (1, 2, 3)
CYL_KINDS = ("h", "e", "s")
CYL_PER_CELL = 3
CYL_FORMATS = ("text", "json")


def cyl_cells():
    return [(n, k, d, kind) for n, k in CYL_NK for d in CYL_DEGREES for kind in CYL_KINDS]


def cell_key(cell) -> str:
    n, k, d, kind = cell
    return f"{n},{k},{d},{kind}"


def gw_argv(n: int, k: int, dmax: int, fmt: str) -> list[str]:
    return ["gw", "--n", str(n), "--k", str(k), "--dmax", str(dmax), "--format", fmt]


def verify_argv(suite: str, n: int, k: int) -> list[str]:
    return ["verify", suite, "--n", str(n), "--k", str(k)]


def cyl_argv(cell, lam: str, mu: str, fmt: str) -> list[str]:
    n, k, d, kind = cell
    return ["cyl", kind, "--n", str(n), "--k", str(k), "--lambda", lam, "--mu", mu,
            "--d", str(d), "--format", fmt]


def job_key(argv) -> str:
    return " ".join(argv)


def round_jobs(workload: str, seed: int, rnd: int, catalogue: dict) -> list[list[str]]:
    """The job list of round `rnd`; `catalogue` maps cell keys to (lambda, mu) pairs."""
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    if workload == "gw-table":
        jobs = [gw_argv(n, k, d, rng.choice(GW_FORMATS)) for n, k, d in GW_TABLES]
        jobs.append(list(GOLDEN_JOB))
        rng.shuffle(jobs)
        return jobs
    if workload == "verify":
        jobs = [verify_argv(*s) for s in VERIFY_SUITES]
        rng.shuffle(jobs)
        return jobs
    if workload == "cyl-expand":
        return _cyl_round(seed, rnd, rng, catalogue)
    raise ValueError(f"unknown workload {workload!r}")


def _cyl_round(seed: int, rnd: int, rng: random.Random, catalogue: dict) -> list[list[str]]:
    distinct = []
    for cell in cyl_cells():
        # Successive rounds walk one seeded order of the cell's catalogue, so
        # a run covers the catalogue evenly whatever the seed.
        order = list(catalogue[cell_key(cell)])
        random.Random(f"cyl-expand:{seed}:{cell_key(cell)}").shuffle(order)
        for i in range(CYL_PER_CELL):
            lam, mu = order[(CYL_PER_CELL * rnd + i) % len(order)]
            distinct.append(cyl_argv(cell, lam, mu, rng.choice(CYL_FORMATS)))
    rng.shuffle(distinct)
    # Half of the stream repeats a request issued earlier in the same round.
    pattern = ["new"] * len(distinct) + ["repeat"] * len(distinct)
    rng.shuffle(pattern)
    pattern.remove("new")
    pattern.insert(0, "new")
    jobs, fresh = [], iter(distinct)
    for step in pattern:
        jobs.append(next(fresh) if step == "new" else list(rng.choice(jobs)))
    return jobs


def repeat_share(jobs) -> float:
    """Share of jobs identical to an earlier job of the same list."""
    seen, repeats = set(), 0
    for argv in jobs:
        key = job_key(argv)
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs)
