import ast
import contextlib
import hashlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import cylsym
from cylsym import cli, cylindric, fusion, grassmannian, symfunc
from cylsym.cli import build_parser, main
from cylsym.cylindric import antipode_check
from cylsym.partitions import BoxedPartition, enumerate_alcove


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fusion_json_full_grid(capsys):
    code, out, _ = run(capsys, "fusion", "--n", "2", "--k", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["k"] == 1
    assert len(data["entries"]) == 8
    hit = [
        e
        for e in data["entries"]
        if e["lambda"] == [1] and e["mu"] == [1] and e["nu"] == [2]
    ]
    assert hit and hit[0]["N"] == 1 and hit[0]["d"] == 0


def test_fusion_csv_filters_zeros(capsys):
    code, out, _ = run(capsys, "fusion", "--n", "3", "--k", "2", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "lambda,mu,nu,d,value"
    body = rows[1:]
    # all values nonzero; count matches the full cube filtered to nonzero
    from cylsym.fusion import FusionContext, build_table

    table = build_table(FusionContext(3, 2))
    assert len(body) == len(table.entries)
    assert all(r.rsplit(",", 1)[1] != "0" for r in body)


def test_fusion_byte_stability(capsys):
    code1, out1, _ = run(capsys, "fusion", "--n", "3", "--k", "2", "--format", "json")
    code2, out2, _ = run(capsys, "fusion", "--n", "3", "--k", "2", "--format", "json")
    assert code1 == code2 == 0 and out1 == out2


def test_gw_contains_delta_rows(capsys):
    code, out, _ = run(capsys, "gw", "--n", "4", "--k", "2", "--dmax", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    deltas = [
        e for e in data["entries"] if e["lambda"] == [] and e["mu"] == e["nu"] and e["d"] == 0
    ]
    assert len(deltas) == 6 and all(e["C"] == 1 for e in deltas)


def test_cyl_h_text(capsys):
    code, out, _ = run(
        capsys,
        "cyl", "h", "--n", "3", "--k", "2",
        "--lambda", "2,1", "--mu", "2,1", "--d", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "basis m"
    assert "3  3" in out  # theta of the single-row weight


def test_cyl_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "cyl", "s", "--n", "4", "--k", "2",
        "--lambda", "2,1", "--mu", "1", "--d", "1",
        "--format", "json",
    )
    assert code == 0
    from cylsym.symfunc import SymFunc

    f = SymFunc.from_json(out)
    assert f.basis == "m" and not f.is_zero()


def test_parse_error_exit_2(capsys):
    code, _, err = run(
        capsys,
        "cyl", "h", "--n", "3", "--k", "2",
        "--lambda", "2,3", "--mu", "1,1", "--d", "0",
    )
    assert code == 2
    assert "decreasing" in err


def test_non_alcove_weight_exit_2(capsys):
    code, _, err = run(
        capsys,
        "cyl", "h", "--n", "3", "--k", "2",
        "--lambda", "4,1", "--mu", "1,1", "--d", "0",
    )
    assert code == 2


def test_unknown_suite_exit_2(capsys):
    code = main(["verify", "bogus", "--n", "3", "--k", "2"])
    assert code == 2


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n", "2", "--k", "2")
    assert code == 0
    assert "ok" in out and "FAILED" not in out


VERIFY_ALL_SUMMARIES = {
    (4, 3): (
        "formula vs oracle (n=4, k=3): 4800 checks, ok\n"
        "fusion symmetries (n=4, k=3): 193200 checks, ok\n"
        "fusion route equivalence (n=4, k=3): 8016 checks, ok\n"
        "coalgebra (n=4, k=3): 1209 checks, ok\n"
        "monomial orthogonality (n=4, k=3): 820 checks, ok\n"
    ),
    (5, 2): (
        "formula vs oracle (n=5, k=2): 2700 checks, ok\n"
        "fusion symmetries (n=5, k=2): 64800 checks, ok\n"
        "fusion route equivalence (n=5, k=2): 3563 checks, ok\n"
        "coalgebra (n=5, k=2): 559 checks, ok\n"
        "monomial orthogonality (n=5, k=2): 465 checks, ok\n"
    ),
}


@pytest.mark.parametrize("n, k", sorted(VERIFY_ALL_SUMMARIES))
def test_verify_all_runs_every_suite_on_one_context(capsys, monkeypatch, n, k):
    built = []
    init = fusion.FusionContext.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fusion.FusionContext, "__init__", counted)
    code, out, _ = run(capsys, "verify", "all", "--n", str(n), "--k", str(k))
    assert (code, out) == (0, VERIFY_ALL_SUMMARIES[(n, k)])
    assert built == [(n, k)]


def test_verify_symmetry_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "symmetry", "--n", "5", "--k", "2")
    assert code == 0
    assert out == "fusion symmetries (n=5, k=2): 64800 checks, ok\n"


def test_verify_coalgebra_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "coalgebra", "--n", "4", "--k", "3")
    assert code == 0
    assert out == "coalgebra (n=4, k=3): 1209 checks, ok\n"


def test_verify_coalgebra_summary_lines_at_the_edges(capsys):
    # n = 1 and k > n leave one or few alcove points; (5, 3) is one size up from (4, 3)
    expected = {
        (1, 1): "coalgebra (n=1, k=1): 3 checks, ok\n",
        (1, 3): "coalgebra (n=1, k=3): 3 checks, ok\n",
        (2, 3): "coalgebra (n=2, k=3): 45 checks, ok\n",
        (2, 5): "coalgebra (n=2, k=5): 101 checks, ok\n",
        (5, 3): "coalgebra (n=5, k=3): 4109 checks, ok\n",
    }
    for (n, k), line in expected.items():
        assert run(capsys, "verify", "coalgebra", "--n", str(n), "--k", str(k)) == (0, line, ""), (n, k)


def test_verify_coalgebra_detects_a_wrong_antipode_row(capsys, monkeypatch):
    row = symfunc._m_antipode_row

    def flipped(lam):
        # S(m_21) = m_21 + 2 m_3; the wrong row gives -m_21 + 2 m_3
        return tuple((mu, -c if lam == mu == (2, 1) else c) for mu, c in row(lam))

    monkeypatch.setattr(symfunc, "_m_antipode_row", flipped)
    code, out, _ = run(capsys, "verify", "coalgebra", "--n", "3", "--k", "2")
    assert code == 1
    assert out == (
        "coalgebra (n=3, k=2): 90 checks, FAILED (8)\n"
        "  first counterexample: antipode at (1, 1)/1/(1, 1)\n"
    )


def test_route_equivalence_third_route_reads_the_array(capsys, monkeypatch):
    # an off-by-one row count shows against the array's count by partners
    row = fusion.count_row

    def off_by_one(ctx, lam, mu):
        out = row(ctx, lam, mu)
        if (lam.parts, mu.parts) == ((2, 1), (2, 1)):
            out[ctx.index[(3, 3)]] += 1
        return out

    monkeypatch.setattr(fusion, "count_row", off_by_one)
    code, out, _ = run(capsys, "verify", "route-equivalence", "--n", "3", "--k", "2")
    assert code == 1
    assert out == (
        "fusion route equivalence (n=3, k=2): 225 checks, FAILED (1)\n"
        "  first counterexample: routes at (2, 1),(2, 1),(3, 3): 3,2,2\n"
    )


def patch_cached(monkeypatch, cls, name, change):
    """Rebind the cached property cls.name to change(self, original value)."""
    original = getattr(cls, name).func
    prop = cached_property(lambda self: change(self, original(self)))
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)


def test_route_equivalence_fails_on_a_packed_dual_slot_off_by_one(capsys, monkeypatch):
    # nu = (3, 3)'s constant slot in the column (unit, x^0) off by n^k k!, one
    # unit of N after the division: m_lam m_mu at the unit is |S_k lam| |S_k mu| x^0
    def bumped(ctx, value):
        packed, widths = value
        phi = len(widths) // len(ctx.alcove)
        column = ctx.index[ctx.unit().parts] * ctx.n
        packed = list(packed)
        packed[column] += ctx.scale << (widths[0] * phi * ctx.index[(3, 3)])
        return packed, widths

    patch_cached(monkeypatch, fusion.FusionContext, "_packed_duals", bumped)
    code, out, _ = run(capsys, "verify", "route-equivalence", "--n", "3", "--k", "2")
    assert code == 1
    assert out == (
        "fusion route equivalence (n=3, k=2): 225 checks, FAILED (36)\n"
        "  first counterexample: routes at (1, 1),(1, 1),(3, 3): 0,1,0\n"
    )


def test_route_equivalence_fails_on_a_packed_gw_dual_slot_off_by_one(capsys, monkeypatch):
    # nu = (1,)'s constant slot in the column (sigma = (2, 1), x^3) of Gr(2,4) off
    # by L, one unit of C after the division: each of the 8 lawful pairs with
    # nu = (1,) reads that column, so each moves by +-(A_lam A_mu)(x^sigma)'s count at x^3
    def bumped(ctx, value):
        packed, widths = value
        phi = len(widths) // len(ctx.boxed)
        packed = list(packed)
        packed[3] += ctx.scale << (widths[0] * phi * ctx.boxed.index(BoxedPartition((1,), 4, 2)))
        return packed, widths

    patch_cached(monkeypatch, grassmannian.GrassContext, "_packed_duals", bumped)
    monkeypatch.setattr(grassmannian, "grass_context", grassmannian.GrassContext)  # no memoised context
    code, out, _ = run(capsys, "verify", "route-equivalence", "--n", "4", "--k", "2")
    assert code == 1
    assert out == (
        "fusion route equivalence (n=4, k=2): 1054 checks, FAILED (8)\n"
        "  first counterexample: GW routes at (),(1,),(1,),0\n"
    )


def test_gw_and_cyl_s_build_no_alternant_tables(capsys, monkeypatch):
    # the alternant tables are built on first use, and only the alternant route uses them
    built = []

    def fresh(n, k):
        built.append(grassmannian.GrassContext(n, k))
        return built[-1]

    monkeypatch.setattr(grassmannian, "grass_context", fresh)
    assert run(capsys, "gw", "--n", "4", "--k", "2", "--dmax", "1")[0] == 0
    assert run(capsys, "cyl", "s", "--n", "4", "--k", "2", "--lambda", "2,1", "--mu", "1", "--d", "1")[0] == 0
    assert len(built) == 2
    for ctx in built:
        assert not {"alt", "denom_inv", "alt_counts", "scale", "_packed_duals"} & set(vars(ctx))


def test_route_equivalence_fails_on_an_array_entry_off_by_one(capsys, monkeypatch):
    def bumped(ctx, planes):
        planes[ctx.index[(2, 1)]][ctx.index[(3, 2)]][ctx.index[(3, 2)]] += 1
        return planes

    patch_cached(monkeypatch, fusion.FusionContext, "fusion", bumped)
    code, out, _ = run(capsys, "verify", "route-equivalence", "--n", "3", "--k", "2")
    assert code == 1
    assert out == (
        "fusion route equivalence (n=3, k=2): 225 checks, FAILED (1)\n"
        "  first counterexample: routes at (2, 1),(3, 2),(3, 2): 1,1,2\n"
    )


PACKAGE = Path(cylsym.__file__).resolve().parent


@pytest.mark.parametrize(
    "line,mutant,failed",
    [
        # theta's lower bound on every b_i off by one
        (
            "theta[d] += _compositions_within(d, low, None)",
            "theta[d] += _compositions_within(d, tuple(x + 1 for x in low), None)",
            "FAILED (123)\n  first counterexample: theta at (1, 1)/0/(1, 1)\n",
        ),
        # psi's lam_i - alpha_i + n b_i in {0, 1} narrowed to {0}
        (
            "high = tuple((a - l + 1) // n",
            "high = tuple((a - l) // n",
            "FAILED (15)\n  first counterexample: psi at (1, 1)/1/(3, 1)\n",
        ),
    ],
    ids=["theta-bound", "psi-strip"],
)
def test_formula_oracle_fails_on_a_mutant_oracle(tmp_path, line, mutant, failed):
    target = tmp_path / "cylsym"
    target.mkdir()
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        if path.name == "cylindric.py":
            assert text.count(line) == 1
            text = text.replace(line, mutant)
        (target / path.name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "cylsym.cli", "verify", "formula-oracle", "--n", "3", "--k", "2"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "formula vs oracle (n=3, k=2): 432 checks, " + failed)


def per_pair_antipode_failures(n, k):
    """The coalgebra suite's antipode witnesses from one check per pair."""
    A = enumerate_alcove(n, k)
    return [f"antipode at {lam.parts}/1/{mu.parts}"
            for lam in A for mu in A if not antipode_check(lam, 1, mu)]


def test_coalgebra_packing_tells_a_carry_shaped_corruption(monkeypatch):
    # +2 in one slot and -1 in the next slot of one degree leave the packed e
    # unchanged when slots are 1 bit wide; the chosen widths must not
    n, k = 3, 2
    A = enumerate_alcove(n, k)
    mu, lam1, lam2, rho = A[0], A[2], A[3], (5,)
    assert lam1.size == lam2.size and lam1.size - mu.size + n == sum(rho)
    walk = cylindric._expansions

    def corrupted(start, ends, kind):
        out = walk(start, ends, kind)
        if start == mu and kind == "row-strict":
            for lam, delta in ((lam1, 2), (lam2, -1)):
                if (lam, 1) in out:
                    e = out[(lam, 1)] = dict(out[(lam, 1)])
                    e[rho] = e.get(rho, 0) + delta
        return out

    monkeypatch.setattr(cylindric, "_expansions", corrupted)
    monkeypatch.setattr(cli, "_expansions", corrupted)
    expected = per_pair_antipode_failures(n, k)
    assert expected == [f"antipode at {lam1.parts}/1/{mu.parts}", f"antipode at {lam2.parts}/1/{mu.parts}"]
    rep = cli._suite_coalgebra(fusion.FusionContext(n, k))
    assert rep.failures == expected and rep.checks == 90


def test_coalgebra_packing_bounds_a_large_negative_antipode_coefficient(monkeypatch):
    row = symfunc._m_antipode_row

    def spiked(nu):
        # S(m_21) = m_21 + 2 m_3; the spiked row gives m_21 - 2^40 m_3
        return tuple((rho, -(2**40) if nu == (2, 1) and rho == (3,) else c) for rho, c in row(nu))

    monkeypatch.setattr(symfunc, "_m_antipode_row", spiked)
    expected = per_pair_antipode_failures(3, 2)
    rep = cli._suite_coalgebra(fusion.FusionContext(3, 2))
    assert expected and rep.failures == expected and rep.checks == 90


def test_verify_single_suite(capsys):
    # k = 1 adds the 3 modular relation checks to 9 orthogonality, 9 S-inverse and 3 T checks
    code, out, _ = run(capsys, "verify", "orthogonality", "--n", "3", "--k", "1")
    assert (code, out) == (0, "monomial orthogonality (n=3, k=1): 24 checks, ok\n")
    code, out, _ = run(capsys, "verify", "orthogonality", "--n", "3", "--k", "2")
    assert (code, out) == (0, "monomial orthogonality (n=3, k=2): 78 checks, ok\n")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "fusion", "--n", "2", "--k", "1", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    data = json.loads(target.read_text())
    assert len(data["entries"]) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ("gw", "--n", "4", "--k", "2", "--dmax", "2"),
        ("fusion", "--n", "3", "--k", "2"),
        ("fusion", "--n", "2", "--k", "1", "--dmax", "0"),
        ("cyl", "h", "--n", "3", "--k", "2", "--lambda", "2,1", "--mu", "1,1", "--d", "1"),
        ("cyl", "s", "--n", "4", "--k", "2", "--lambda", "1", "--mu", "-", "--d", "1"),
    ],
)
def test_output_file_holds_the_bytes_of_stdout(tmp_path, capsys, argv):
    formats = ("json", "text") if argv[0] == "cyl" else ("json", "csv", "text")
    for fmt in formats:
        code, out, _ = run(capsys, *argv, "--format", fmt)
        target = tmp_path / f"out.{fmt}"
        assert run(capsys, *argv, "--format", fmt, "--out", str(target)) == (0, "", "")
        assert code == 0 and target.read_bytes() == out.encode(), fmt


def test_gw_bad_context_exit_2(capsys):
    code, out, err = run(capsys, "gw", "--n", "4", "--k", "4", "--dmax", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "(n=4, k=4)" in err


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.json"
    code, _, err = run(
        capsys, "fusion", "--n", "2", "--k", "1", "--format", "json", "--out", str(target)
    )
    assert code == 2
    assert err.startswith("error:")


SRC = str(Path(cylsym.__file__).resolve().parent.parent)


def run_with_stdout(stdout, argv, buffered):
    """Run the command line in a fresh interpreter with the given stdout."""
    env = {key: v for key, v in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "cylsym.cli", *argv]
    return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exit_2(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = run_with_stdout(write_end, ["fusion", "--n", "3", "--k", "2", "--format", "csv"], buffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_full_stdout_device_exit_2(buffered):
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(full, ["verify", "symmetry", "--n", "3", "--k", "2"], buffered)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gw", "--n", "4", "--k", "2", "--dmax", "-1"),
        ("fusion", "--n", "3", "--k", "2", "--dmax", "-1"),
        ("cyl", "s", "--n", "4", "--k", "2", "--lambda", "1", "--mu", "-", "--d", "-1"),
    ],
)
def test_negative_degree_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "all", "--n", "0", "--k", "2"), "n and k must be positive"),
        (("fusion", "--n", "3", "--k", "0"), "n and k must be positive"),
        (("cyl", "s", "--n", "3", "--k", "3", "--lambda", "-", "--mu", "-", "--d", "0"), "(n=3, k=3)"),
    ],
    ids=["verify-n0", "fusion-k0", "cyl-s-k-equals-n"],
)
def test_bad_context_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_parser_built_once_serves_every_call(capsys):
    parser = build_parser()
    assert run(capsys, "gw", "--n", "4")[0] == 2
    assert run(capsys, "fusion", "--n", "3", "--k", "2", "--dmax", "0")[0] == 0
    code, out, _ = run(capsys, "fusion", "--n", "3", "--k", "2")
    assert build_parser() is parser
    build_parser.cache_clear()
    assert (code, out) == run(capsys, "fusion", "--n", "3", "--k", "2")[:2]
    assert build_parser() is not parser


REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


def test_outputs_match_the_stored_reference_digests():
    """Every gw and verify job of the benchmark's references, and every 12th
    cyl job, run in-process: stdout must hash to the stored SHA-256."""
    outputs = json.loads(REFS.read_text())["outputs"]
    chosen = sorted(key for key in outputs if key.split()[0] in ("gw", "verify"))
    chosen += sorted(key for key in outputs if key.split()[0] == "cyl")[::12]
    assert len(chosen) == 21 + 60
    stale = []
    for key in chosen:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(key.split())
        if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != outputs[key]:
            stale.append(key)
    assert stale == []


JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"

VERIFY_JOB_SUMMARIES = {
    ("formula-oracle", 4, 3): "formula vs oracle (n=4, k=3): 4800 checks, ok\n",
    ("coalgebra", 4, 3): "coalgebra (n=4, k=3): 1209 checks, ok\n",
    ("symmetry", 5, 2): "fusion symmetries (n=5, k=2): 64800 checks, ok\n",
    ("route-equivalence", 4, 2): "fusion route equivalence (n=4, k=2): 1054 checks, ok\n",
    ("route-equivalence", 3, 3): "fusion route equivalence (n=3, k=3): 1000 checks, ok\n",
    ("orthogonality", 5, 1): "monomial orthogonality (n=5, k=1): 58 checks, ok\n",
}


def test_benchmark_verify_jobs_print_the_pinned_summaries(capsys):
    """The summary line of every job of the benchmark's verify workload, byte
    for byte, with the job list read from VERIFY_SUITES in its file."""
    tree = ast.parse(JOBS.read_text())
    (suites,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "VERIFY_SUITES" for t in node.targets)
    ]
    assert set(suites) == set(VERIFY_JOB_SUMMARIES)
    for suite, n, k in suites:
        code, out, _ = run(capsys, "verify", suite, "--n", str(n), "--k", str(k))
        assert (code, out) == (0, VERIFY_JOB_SUMMARIES[(suite, n, k)])


def test_route_equivalence_summary_one_size_up(capsys):
    # one size up from the benchmark's (4,2) and (3,3) jobs
    code, out, _ = run(capsys, "verify", "route-equivalence", "--n", "5", "--k", "3")
    assert (code, out) == (0, "fusion route equivalence (n=5, k=3): 43063 checks, ok\n")


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_module_is_traced_by_the_benchmark():
    """The benchmark's tracer refuses a cylsym module missing from its
    MODULES tuple; read that tuple from the file and compare."""
    tree = ast.parse(TRACER.read_text())
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets)
    ]
    modules = {m.name for m in pkgutil.iter_modules(cylsym.__path__)}
    assert modules and modules <= set(listed)


# Top-level definitions that nothing reads yet, each named by a ROADMAP item as
# the input of a planned suite or route: the subcoalgebra and positivity suites
# (items 3 and 4) and the affine-permutation route (item 9).
FUTURE_INPUTS = {
    "gw_symmetry_suite",
    "level_rank_check",
    "chi_matrix_check",
    "nonskew_orthogonality",
    "generators",
    "act_on_loop",
}


def _names(tree) -> set:
    """Every name, attribute and imported name in a syntax tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _unread(trees: dict, outside: set) -> list:
    """The (module, name) of every top-level def or class of trees that no
    other top-level statement of trees reads and whose name is not in outside."""
    tops = [(module, node, _names(node)) for module, tree in trees.items() for node in tree.body]
    reads = Counter(name for _, _, names in tops for name in names)
    return [
        (module, node.name)
        for module, node, names in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and reads[node.name] == (node.name in names)
        and node.name not in outside
    ]


def test_src_holds_only_what_is_read():
    """Every top-level def or class of `src/cylsym` is read elsewhere in
    `src/` (as a name, an attribute or an import), exported by
    `cylsym/__init__.py`, named by the benchmark, or in FUTURE_INPUTS; every
    name of FUTURE_INPUTS still exists unread, so the set cannot go stale.
    Routes that only tests read live in `tests/oracles.py`, and each of its
    top-level defs is read by a `tests/test_*.py` file or by another oracle."""
    src = Path(cylsym.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    bench = set(re.findall(r"\w+", "".join(p.read_text() for p in TRACER.parent.glob("*.py"))))
    unread = _unread(trees, exported)
    unread_names = {name for _, name in unread}
    assert FUTURE_INPUTS <= unread_names, f"read or gone: {sorted(FUTURE_INPUTS - unread_names)}"
    flagged = [f"{m}.{name}" for m, name in unread if name not in bench | FUTURE_INPUTS]
    assert not flagged, f"read by nothing in src/: {flagged}"
    tests = Path(__file__).resolve().parent
    read_by_tests = set().union(*(_names(ast.parse(p.read_text())) for p in tests.glob("test_*.py")))
    stale = _unread({"oracles": ast.parse((tests / "oracles.py").read_text())}, read_by_tests)
    assert not stale, f"read by no test and no other oracle: {[name for _, name in stale]}"


RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_trace_mode_finds_every_key_it_reads():
    """The benchmark's `--trace 1` indexes some memos and spans of the tracer
    directly, so a dropped memo or a context turned into a dataclass would end
    it in a KeyError.  Read those keys from `layer_metrics`, install the tracer
    in a fresh interpreter and look each one up; the symmetry suite must also
    open its own span under `verify symmetry`."""
    tree = ast.parse(RUN.read_text())
    (body,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "layer_metrics"]
    wanted = {"caches": set(), "stats": set()}
    for node in ast.walk(body):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            if isinstance(node.value, ast.Name) and node.value.id in wanted:
                wanted[node.value.id].add(node.slice.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hit_ratio":
            wanted["caches"].add(ast.literal_eval(node.args[0]))
    assert len(wanted["caches"]) >= 4 and len(wanted["stats"]) >= 2
    code = (
        "import contextlib, io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import cylsym, tracer\n"
        "from cylsym import cli\n"
        "t = tracer.Tracer()\n"
        "t.install(cylsym)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['verify', 'symmetry', '--n', '2', '--k', '2'])\n"
        "calls = t.stats['fusion.symmetry_suite'][0]\n"
        "print(json.dumps({'caches': sorted(t.caches), 'stats': sorted(t.stats), 'calls': calls}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(RUN.parent)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert wanted["caches"] <= set(found["caches"]) and wanted["stats"] <= set(found["stats"])
    assert found["calls"] == 1
