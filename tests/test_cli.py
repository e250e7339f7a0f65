import ast
import contextlib
import hashlib
import io
import json
import pkgutil
from pathlib import Path

import pytest

import cylsym
from cylsym import symfunc
from cylsym.cli import build_parser, main


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


def test_verify_symmetry_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "symmetry", "--n", "5", "--k", "2")
    assert code == 0
    assert out == "fusion symmetries (n=5, k=2): 64800 checks, ok\n"


def test_verify_coalgebra_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "coalgebra", "--n", "4", "--k", "3")
    assert code == 0
    assert out == "coalgebra (n=4, k=3): 1209 checks, ok\n"


def test_verify_coalgebra_detects_a_wrong_antipode_row(capsys, monkeypatch):
    row = symfunc._m_antipode_row

    def flipped(lam):
        # S(m_21) = m_21 + 2 m_3; the wrong row gives -m_21 + 2 m_3
        return tuple((mu, -c if lam == mu == (2, 1) else c) for mu, c in row(lam))

    monkeypatch.setattr(symfunc, "_m_antipode_row", flipped)
    code, out, _ = run(capsys, "verify", "coalgebra", "--n", "3", "--k", "2")
    assert code == 1
    assert out.startswith("coalgebra (n=3, k=2): 90 checks, FAILED (")
    assert "\n  first counterexample: antipode at " in out


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
