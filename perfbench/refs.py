"""Build or re-check the stored references in refs.json.

    python3 perfbench/refs.py           # rebuild refs.json (a few minutes)
    python3 perfbench/refs.py --check   # re-verify refs.json against the code

Every stored output was produced by the `cylsym` command line and then
checked against a second, independent route of the library:

* `gw` tables against `gw_table(..., route=gw_ribbon)`;
* `cyl h` against `convert(cyl_h_in_h(...), "m")`;
* `cyl e` against `convert(cyl_p_expand(..., "e"), "m")`;
* `cyl s` against `convert(cyl_schur_p(...), "m")`;
* `verify` suites by their own verdict, exit code 0.

The `gw` golden job is also compared with tests/golden/gw_n4_k2_d2.json.
The benchmark itself only compares output digests with this file, so that
its checks cost little and warm no cache.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
GOLDEN = ROOT / "tests" / "golden" / "gw_n4_k2_d2.json"
CATALOGUE_SIZE = 8  # (lambda, mu) pairs per cyl cell
# Degree bound of the catalogued cyl requests.  The independent routes go
# through the power-sum basis and grow steeply with the degree: a degree-18
# h-check takes about 1 s, a degree-20 one 3 s.
MAX_DEGREE = 18

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_output(argv) -> tuple[int, bytes]:
    from cylsym.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode()


@functools.lru_cache(maxsize=None)
def _ribbon_table(n: int, k: int, dmax: int):
    from cylsym import grassmannian as gr

    return gr.gw_table(gr.grass_context(n, k), dmax, route=gr.gw_ribbon)


def expected_gw(n: int, k: int, dmax: int, fmt: str) -> bytes:
    from cylsym.cli import _table_text

    table = _ribbon_table(n, k, dmax)
    text = {"json": table.to_json, "csv": table.to_csv, "text": lambda: _table_text(table)}[fmt]()
    return (text if text.endswith("\n") else text + "\n").encode()


def expected_cyl(cell, lam: str, mu: str, fmt: str) -> bytes:
    from cylsym import grassmannian as gr
    from cylsym.cylindric import cyl_h_in_h, cyl_p_expand
    from cylsym.partitions import AlcoveWeight, BoxedPartition, format_partition, parse_partition
    from cylsym.symfunc import convert

    n, k, d, kind = cell
    lam_p, mu_p = parse_partition(lam), parse_partition(mu)
    if kind == "s":
        ctx = gr.grass_context(n, k)
        f = gr.cyl_schur_p(ctx, BoxedPartition(lam_p, n, k), d, BoxedPartition(mu_p, n, k))
    else:
        lam_w, mu_w = AlcoveWeight(lam_p, n, k), AlcoveWeight(mu_p, n, k)
        f = cyl_h_in_h(lam_w, d, mu_w) if kind == "h" else cyl_p_expand(lam_w, d, mu_w, "e")
    f = convert(f, "m")
    if fmt == "json":
        return (f.to_json() + "\n").encode()
    lines = "".join(f"{format_partition(p)}  {c}\n" for p, c in f.coeffs)
    return f"basis {f.basis}\n{lines}".encode()


def _checked(argv, expected: bytes) -> str:
    code, out = cli_output(argv)
    if code != 0 or out != expected:
        raise SystemExit(f"reference check failed for {jobs.job_key(argv)} (exit {code})")
    return digest(out)


def _cyl_candidates(cell):
    from cylsym.partitions import enumerate_alcove, enumerate_boxed, format_partition

    n, k, d, kind = cell
    pool = enumerate_boxed(n, k) if kind == "s" else enumerate_alcove(n, k)
    pairs = [(format_partition(a.parts), format_partition(b.parts))
             for a in pool for b in pool if a.size - b.size + n * d <= MAX_DEGREE]
    random.Random(f"catalogue:{jobs.cell_key(cell)}").shuffle(pairs)
    return pairs


def build() -> dict:
    outputs = {}
    for n, k, dmax in jobs.GW_TABLES + ((4, 2, 2),):
        for fmt in jobs.GW_FORMATS:
            argv = jobs.gw_argv(n, k, dmax, fmt)
            outputs[jobs.job_key(argv)] = _checked(argv, expected_gw(n, k, dmax, fmt))
            print("checked", jobs.job_key(argv), flush=True)
    for suite in jobs.VERIFY_SUITES:
        argv = jobs.verify_argv(*suite)
        code, out = cli_output(argv)
        if code != 0:
            raise SystemExit(f"{jobs.job_key(argv)} exited {code}")
        outputs[jobs.job_key(argv)] = digest(out)
    catalogue = {}
    for cell in jobs.cyl_cells():
        chosen = []
        for lam, mu in _cyl_candidates(cell):
            probe = jobs.cyl_argv(cell, lam, mu, "text")
            if cli_output(probe)[1] == b"basis m\n":
                continue  # a zero function: keep requests that do work
            for fmt in jobs.CYL_FORMATS:
                argv = jobs.cyl_argv(cell, lam, mu, fmt)
                outputs[jobs.job_key(argv)] = _checked(argv, expected_cyl(cell, lam, mu, fmt))
            chosen.append([lam, mu])
            if len(chosen) == CATALOGUE_SIZE:
                break
        catalogue[jobs.cell_key(cell)] = chosen
        print("catalogued", jobs.cell_key(cell), flush=True)
    return {"catalogue": catalogue, "outputs": outputs}


def check(refs: dict) -> None:
    """Recompute every stored output by its independent route."""
    outputs = refs["outputs"]
    for n, k, dmax in jobs.GW_TABLES + ((4, 2, 2),):
        for fmt in jobs.GW_FORMATS:
            key = jobs.job_key(jobs.gw_argv(n, k, dmax, fmt))
            if digest(expected_gw(n, k, dmax, fmt)) != outputs[key]:
                raise SystemExit(f"stale reference: {key}")
    for cell in jobs.cyl_cells():
        for lam, mu in refs["catalogue"][jobs.cell_key(cell)]:
            for fmt in jobs.CYL_FORMATS:
                key = jobs.job_key(jobs.cyl_argv(cell, lam, mu, fmt))
                if digest(expected_cyl(cell, lam, mu, fmt)) != outputs[key]:
                    raise SystemExit(f"stale reference: {key}")
    for suite in jobs.VERIFY_SUITES:
        argv = jobs.verify_argv(*suite)
        code, out = cli_output(argv)
        if code != 0 or digest(out) != outputs[jobs.job_key(argv)]:
            raise SystemExit(f"stale reference: {jobs.job_key(argv)}")
    check_golden(outputs)
    print(f"all {len(outputs)} references hold")


def check_golden(outputs: dict) -> None:
    if outputs[jobs.job_key(jobs.GOLDEN_JOB)] != digest(GOLDEN.read_bytes()):
        raise SystemExit("the golden gw job does not match tests/golden")


def main(argv) -> int:
    if argv[1:] == ["--check"]:
        check(json.loads(REFS.read_text()))
        return 0
    refs = build()
    check_golden(refs["outputs"])
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
