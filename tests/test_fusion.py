import ast
import csv
import io
import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

import cylsym
from cylsym import cyclotomic, fusion
from cylsym.fusion import (
    CoeffTable,
    Report,
    FusionContext,
    _slots,
    build_table,
    count_row,
    fusion_count,
    modular_relations_check,
    n_count,
    n_reduce,
    n_verlinde,
    orthogonality_check,
    s_matrix_inverse_check,
    symmetry_suite,
    t_unitarity_check,
    verlinde_rows,
)
from cylsym.cli import _table_text
from cylsym.cylindric import nonskew_from_array
from cylsym.grassmannian import grass_context, gw_table
from cylsym.partitions import (
    AlcoveWeight,
    ContextMismatchError,
    _orbit_ratio,
    enumerate_alcove,
    format_partition,
    multiplicity,
    partitions_of,
)

import oracles
from oracles import cyl_in_nonskew, frobenius_suite, mfusion_pointwise_check

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_counting_anchors():
    one = AlcoveWeight((1,), 2, 1)
    two = AlcoveWeight((2,), 2, 1)
    assert n_count(two, one, one) == 1
    assert n_count(two, two, two) == 1
    assert n_count(one, one, one) == 0
    # unit law N_{lam n^k}^mu = delta
    for n, k in [(3, 2), (4, 2)]:
        unit = AlcoveWeight((n,) * k, n, k)
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                assert n_count(mu, lam, unit) == (1 if lam == mu else 0)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (5, 2)])
def test_triple_route_equality(n, k):
    ctx = FusionContext(n, k)
    for lam in ctx.alcove:
        for mu in ctx.alcove:
            for nu in ctx.alcove:
                count = n_count(nu, lam, mu)
                verl = n_verlinde(ctx, lam, mu, nu)
                red = n_reduce(ctx, nu, lam, mu)
                assert count == verl == red, (lam, mu, nu)


@pytest.mark.parametrize("n,k", [(5, 3), (5, 4)])
def test_triple_route_equality_sampled(n, k):
    # 200 seeded degree-law triples one size up from the full grids above
    ctx = FusionContext(n, k)
    rng = random.Random(n * 10 + k)
    values = []
    for _ in range(200):
        lam, mu = rng.choice(ctx.alcove), rng.choice(ctx.alcove)
        nu = rng.choice([a for a in ctx.alcove if (lam.size + mu.size - a.size) % n == 0])
        count = n_count(nu, lam, mu)
        assert count == n_verlinde(ctx, lam, mu, nu) == n_reduce(ctx, nu, lam, mu), (lam, mu, nu)
        values.append(count)
    assert any(values)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3), (5, 3)])
def test_fusion_array_equals_the_per_triple_count(n, k):
    ctx = FusionContext(n, k)
    A = ctx.alcove
    assert ctx.fusion == [
        [[fusion_count(nu.parts, lam.parts, mu.parts, n, k) for nu in A] for mu in A] for lam in A
    ]


@pytest.mark.parametrize("n,k", [(6, 3), (5, 4), (4, 5)])
def test_fusion_array_equals_the_per_triple_count_sampled(n, k):
    # 2,000 seeded triples one size up from the full grids above
    ctx = FusionContext(n, k)
    A, N = ctx.alcove, ctx.fusion
    rng = random.Random(f"fusion array {n},{k}")
    values = []
    for _ in range(2000):
        i, j, l = (rng.randrange(len(A)) for _ in range(3))
        values.append(N[i][j][l])
        assert N[i][j][l] == fusion_count(A[l].parts, A[i].parts, A[j].parts, n, k), (i, j, l)
    assert any(values)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (3, 2), (4, 3), (5, 3)])
def test_nonskew_rows_from_the_array_equal_the_per_pair_count(n, k):
    # n = 1 puts every alcove point in one residue class
    ctx = FusionContext(n, k)
    for lam in ctx.alcove:
        for mu in ctx.alcove:
            for d in (0, 1, 2):
                assert nonskew_from_array(ctx, lam, d, mu) == cyl_in_nonskew(lam, d, mu), (lam, d, mu)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_verlinde_route_reads_no_count(monkeypatch, n, k):
    expected = FusionContext(n, k).fusion

    def refuse(*args):
        raise RuntimeError("fusion_count called")

    monkeypatch.setattr(fusion, "fusion_count", refuse)
    ctx = FusionContext(n, k)
    A = ctx.alcove
    assert [[[n_verlinde(ctx, l, m, u) for u in A] for m in A] for l in A] == expected


def test_verlinde_integrality_check_survives_optimize():
    # one bumped exponent count of m_unit(zeta^unit) adds 14/18 to N_{unit unit}^unit
    code = (
        "from cylsym.cyclotomic import NonIntegralError\n"
        "from cylsym.fusion import FusionContext, n_verlinde\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "ctx = FusionContext(3, 2)\n"
        "unit = ctx.unit()\n"
        "if n_verlinde(ctx, unit, unit, unit) != 1:\n"
        "    raise SystemExit('the unit law fails')\n"
        "ctx = FusionContext(3, 2)\n"
        "ctx.msym_counts[unit.parts][ctx.index[unit.parts]][0] += 1\n"
        "try:\n"
        "    n_verlinde(ctx, unit, unit, unit)\n"
        "except NonIntegralError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('n_verlinde returned a value')\n"
    )
    run_optimized(code)


def run_optimized(code):
    """Run code under python -O with this checkout's package; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cylsym.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3), (5, 2), (4, 3), (2, 5)])
def test_route_rows_equal_the_array(n, k):
    ctx = FusionContext(n, k)
    A, N = ctx.alcove, ctx.fusion
    for i, lam in enumerate(A):
        rows = verlinde_rows(ctx, lam)
        assert len(rows) == len(A)
        for j, mu in enumerate(A):
            assert count_row(ctx, lam, mu) == rows[j] == N[i][j], (lam, mu)


def test_route_rows_equal_the_per_triple_routes_sampled():
    ctx = FusionContext(6, 3)
    A = ctx.alcove
    rng = random.Random("route rows 6,3")
    for _ in range(40):
        lam, mu = rng.choice(A), rng.choice(A)
        per_triple = [n_count(nu, lam, mu) for nu in A]
        verlinde = verlinde_rows(ctx, lam)[ctx.index[mu.parts]]
        assert count_row(ctx, lam, mu) == per_triple == verlinde, (lam, mu)
        assert per_triple == [n_verlinde(ctx, lam, mu, nu) for nu in A]


def test_verlinde_row_integrality_check_survives_optimize():
    # one packed dual slot off by one at the column (unit, x^0), where
    # m_unit m_unit = x^0, and one unit of N (n^k k! = 18) in a nonconstant slot;
    # every m_mu is constant at the unit, so every row of lam = unit reads it
    code = (
        "from cylsym.cyclotomic import NonIntegralError\n"
        "from cylsym.fusion import FusionContext, verlinde_rows\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "for slot, step in ((0, 1), (1, 18)):\n"
        "    ctx = FusionContext(3, 2)\n"
        "    unit = ctx.unit()\n"
        "    if verlinde_rows(ctx, unit) != [[int(nu == mu) for nu in ctx.alcove] for mu in ctx.alcove]:\n"
        "        raise SystemExit('the unit law fails')\n"
        "    packed, widths = ctx._packed_duals\n"
        "    packed[ctx.index[unit.parts] * ctx.n] += step << (widths[0] * slot)\n"
        "    try:\n"
        "        verlinde_rows(ctx, unit)\n"
        "    except NonIntegralError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'verlinde_rows returned a row with slot {slot} off by {step}')\n"
    )
    run_optimized(code)


def test_count_row_remainder_check_survives_optimize():
    # N_{(2,1),(2,1)}^{(3,3)} = 2 at (3,2): two pairs in the bin of (3,3), which
    # has one rearrangement; read as three rearrangements they do not share evenly
    code = (
        "from cylsym.fusion import FusionContext, count_row\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "ctx = FusionContext(3, 2)\n"
        "lam, nu = (ctx.alcove[ctx.index[p]] for p in ((2, 1), (3, 3)))\n"
        "if count_row(ctx, lam, lam)[ctx.index[nu.parts]] != 2:\n"
        "    raise SystemExit('N_{(2,1),(2,1)}^{(3,3)} is not 2')\n"
        "power, keys, shares = ctx._residue_bins\n"
        "shares[ctx.index[nu.parts]] = 3\n"
        "try:\n"
        "    count_row(ctx, lam, lam)\n"
        "except ArithmeticError as exc:\n"
        "    if str(exc) != '2 pairs at (3, 3) do not share evenly':\n"
        "        raise SystemExit(f'count_row raised {exc}')\n"
        "else:\n"
        "    raise SystemExit('count_row returned a row')\n"
    )
    run_optimized(code)


def test_fusion_routes_refuse_weights_of_another_context():
    ctx = FusionContext(3, 2)
    a3, b3 = AlcoveWeight((2, 1), 3, 2), AlcoveWeight((2, 2), 3, 2)
    a4, b4, c4 = (AlcoveWeight(p, 4, 2) for p in [(1, 1), (2, 1), (3, 2)])
    with pytest.raises(ContextMismatchError):
        n_verlinde(ctx, a4, b4, c4)
    with pytest.raises(ContextMismatchError):
        n_verlinde(ctx, a3, b3, c4)
    with pytest.raises(ContextMismatchError):
        n_reduce(ctx, a4, b4, c4)
    with pytest.raises(ContextMismatchError):
        n_count(a3, b3, c4)


@pytest.mark.parametrize("n,k", [(0, 2), (-1, 1), (2, -1), (2, 0)])
def test_fusion_context_rejects_nonpositive_n_or_k(n, k):
    with pytest.raises(ValueError, match=rf"\(n={n}, k={k}\)"):
        FusionContext(n, k)


def test_degree_law():
    ctx = FusionContext(3, 2)
    for lam in ctx.alcove:
        for mu in ctx.alcove:
            for nu in ctx.alcove:
                if (lam.size + mu.size - nu.size) % 3:
                    assert n_count(nu, lam, mu) == 0


def test_n_reduce_extended():
    # dominant nu with parts <= 2n, against the direct extended count
    ctx = FusionContext(3, 2)
    for lam in ctx.alcove:
        for mu in ctx.alcove:
            for total in range(0, 13):
                for nu in partitions_of(total, max_part=6, max_len=2):
                    direct = fusion_count(lam.parts, mu.parts, nu, 3, 2)
                    assert n_reduce(ctx, lam, mu, nu) == direct, (lam, mu, nu)


def multinomial_product(nu_bar, nu, n):
    """prod over alcove values i of the multinomial m_i(nu_bar)! / prod m_v(nu)!
    over the entries v = i mod n of nu that reduce to i."""
    out = 1
    for i in range(1, n + 1):
        remaining = multiplicity(nu_bar, i)
        for v in range(i % n, max(nu) + 1, n):
            out *= comb(remaining, multiplicity(nu, v))
            remaining -= multiplicity(nu, v)
        assert remaining == 0, (nu_bar, nu, i)
    return out


def test_orbit_ratio_is_the_multinomial_product():
    for n in range(1, 7):
        for k in range(1, 5):
            for total in range(3 * n + 2):
                for nu in partitions_of(total, max_len=k):
                    padded = nu + (0,) * (k - len(nu))
                    nu_bar, ratio = _orbit_ratio(padded, n, k)
                    assert ratio == multinomial_product(nu_bar.parts, padded, n), (n, k, nu)


SYMMETRY_CHECKS = {(3, 2): 2268, (4, 3): 193200, (4, 2): 14300, (3, 3): 14300, (5, 2): 64800}


@pytest.mark.parametrize("n,k", list(SYMMETRY_CHECKS))
def test_symmetry_suite(n, k):
    rep = symmetry_suite(FusionContext(n, k))
    assert rep.ok, rep.summary()
    assert rep.checks == SYMMETRY_CHECKS[(n, k)]


def test_symmetry_suite_detects_a_corrupted_entry():
    ctx = FusionContext(3, 2)
    assert symmetry_suite(ctx).ok
    ctx.fusion[0][1][2] += 1
    rep = symmetry_suite(ctx)
    assert not rep.ok and rep.checks == SYMMETRY_CHECKS[(3, 2)]
    assert rep.failures[0] == "dual symmetry at (1, 1),(1, 1),(2, 1)"
    assert len(rep.failures) == 30


def per_entry_symmetry_suite(ctx):
    """The symmetry suite as one check per entry, the reference for the row checks."""
    rep = Report(f"fusion symmetries (n={ctx.n}, k={ctx.k})")
    A = ctx.alcove
    N = ctx.fusion
    unit = ctx.unit()
    u = ctx.index[unit.parts]
    star = [ctx.index[a.star().parts] for a in A]
    rot1, rot2, rot3 = ([ctx.index[a.rot(r).parts] for a in A] for r in (1, 2, 3))
    qd = [a.quantum_dim() for a in A]
    for i, lam in enumerate(A):
        for j, mu in enumerate(A):
            rep.run(
                N[i][u][j] == (1 if i == j else 0),
                "unit: N_({},{})^{}", lam.parts, unit.parts, mu.parts,
            )
            expect = qd[i] if star[i] == j else 0
            rep.run(N[i][j][u] == expect, "eta: N_({},{})^{}", lam.parts, mu.parts, unit.parts)
            for l, nu in enumerate(A):
                v = N[i][j][l]
                rep.run(v == N[j][i][l], "commutativity at {},{},{}", lam.parts, mu.parts, nu.parts)
                rep.run(
                    v == N[star[i]][star[j]][star[l]],
                    "star covariance at {},{},{}", lam.parts, mu.parts, nu.parts,
                )
                rep.run(
                    v * qd[l] == qd[i] * N[j][star[l]][star[i]],
                    "dual symmetry at {},{},{}", lam.parts, mu.parts, nu.parts,
                )
                rep.run(
                    v == N[rot1[i]][rot2[j]][rot3[l]],
                    "rotation covariance at {},{},{}", lam.parts, mu.parts, nu.parts,
                )
    for i, lam in enumerate(A):
        for j, mu in enumerate(A):
            rep.run(
                qd[i] * qd[j] == sum(c * q for c, q in zip(N[i][j], qd)),
                "dimension rule at {},{}", lam.parts, mu.parts,
            )
            lam_mu = [(s, c) for s, c in enumerate(N[i][j]) if c]
            for l, nu in enumerate(A):
                mu_nu = [(s, c) for s, c in enumerate(N[j][l]) if c]
                for r, rho in enumerate(A):
                    left = sum(c * N[s][l][r] for s, c in lam_mu)
                    right = sum(c * N[i][s][r] for s, c in mu_nu)
                    rep.run(
                        left == right,
                        "associativity at {},{},{},{}", lam.parts, mu.parts, nu.parts, rho.parts,
                    )
    return rep


def corrupted(n, k, position, delta):
    ctx = FusionContext(n, k)
    i, j, l = position
    ctx.fusion[i][j][l] += delta
    return ctx


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2)])
def test_symmetry_row_checks_keep_the_per_entry_failures(n, k):
    m = len(enumerate_alcove(n, k))
    u = FusionContext(n, k).index[(n,) * k]
    positions = [(0, 1, 2), (1, 0, u), (u, 2, 2), (m // 2, m // 3, m // 4), (m - 1, m - 1, m - 1)]
    for position in positions:
        for delta in (1, 3):
            got = symmetry_suite(corrupted(n, k, position, delta))
            expected = per_entry_symmetry_suite(corrupted(n, k, position, delta))
            assert not expected.ok and got.checks == expected.checks == SYMMETRY_CHECKS[(n, k)]
            assert got.failures == expected.failures, (position, delta)


def test_symmetry_packing_tells_a_carry_shaped_corruption():
    # +2 in slot r and -1 in slot r + 1 of one row leave the row's packed
    # integer unchanged when slots are 1 bit wide; the chosen width must not
    n, k = 4, 2
    N = FusionContext(n, k).fusion
    s, l, r = next((s, l, r) for s in range(len(N)) for l in range(len(N))
                   for r in range(len(N) - 1) if N[s][l][r + 1])
    ctxs = [FusionContext(n, k), FusionContext(n, k)]
    for ctx in ctxs:
        ctx.fusion[s][l][r] += 2
        ctx.fusion[s][l][r + 1] -= 1
    expected = per_entry_symmetry_suite(ctxs[1])
    assert not expected.ok and symmetry_suite(ctxs[0]).failures == expected.failures


def test_symmetry_suite_packs_an_array_with_a_negative_entry(monkeypatch):
    n, k = 4, 2
    m = len(enumerate_alcove(n, k))
    # N[0][0][0] = N_{(1,1),(1,1)}^{(1,1)} is 0: one step down makes it -1
    assert FusionContext(n, k).fusion[0][0][0] == 0
    expected = per_entry_symmetry_suite(corrupted(n, k, (0, 0, 0), -1))
    runs = []
    run = Report.run
    monkeypatch.setattr(Report, "run", lambda self, *args: runs.append(1) or run(self, *args))
    got = symmetry_suite(corrupted(n, k, (0, 0, 0), -1))
    assert got.failures == expected.failures and got.checks == expected.checks
    assert len(runs) < m**4  # associativity went through the signed packed comparison


def test_run_rows_keeps_the_per_entry_witness_order_and_count():
    rows = [
        ([0, 1, 2, 3, 4], [0, 1, 9, 3, 9], "first at {},{}"),
        ([5, 6, 7, 8, 9], [5, 0, 7, 8, 9], "second at {},{}"),
        ([1, 1, 1, 1, 1], [1, 1, 1, 1, 1], "third at {},{}"),
    ]
    expected = Report("rows")
    for x in range(5):
        for left, right, witness in rows:
            expected.run(left[x] == right[x], witness, "x", x)
    got = Report("rows")
    got.run_rows(rows, lambda x: ("x", x))
    assert got.failures == expected.failures == ["second at x,1", "first at x,2", "first at x,4"]
    assert got.checks == expected.checks == 15

    def unread(x):
        raise AssertionError("labels read for equal rows")

    equal = Report("rows")
    equal.run_rows([(left, list(left), witness) for left, _, witness in rows], unread)
    assert equal.ok and equal.checks == 15


def test_slots_round_trip_signed_vectors_of_mixed_widths():
    rng = random.Random(11)
    for _ in range(300):
        widths = [rng.randrange(1, 70) for _ in range(rng.randrange(1, 12))]
        values = []
        for w in widths:
            top = (1 << (w - 1)) - 1  # the largest |v| a signed w-bit slot holds
            values.append(rng.choice([top, -top, rng.randint(-top, top)]))
        x = sum(v << sum(widths[:r]) for r, v in enumerate(values))
        assert _slots(x, widths) == values, (widths, values)


def test_fusion_table_and_suites_evaluate_no_monomial(monkeypatch):
    """The patches below reach only modules that look `eval_msym` up at call
    time, so `fusion`'s source must not name it at all."""
    tree = ast.parse(open(fusion.__file__).read())
    named = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree)}
    assert "eval_msym" not in named

    def refuse(*args):
        raise RuntimeError("eval_msym called")

    monkeypatch.setattr(cyclotomic, "eval_msym", refuse)
    monkeypatch.setattr(oracles, "eval_msym", refuse)
    ctx = FusionContext(3, 2)
    with open(os.path.join(GOLDEN_DIR, "fusion_n3_k2.json")) as fh:
        assert build_table(ctx).to_json() == fh.read().strip()
    assert symmetry_suite(ctx).ok
    assert frobenius_suite(ctx).ok


def test_orthogonality_and_matrices():
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        ctx = FusionContext(n, k)
        assert orthogonality_check(ctx).ok
        assert s_matrix_inverse_check(ctx).ok
        assert t_unitarity_check(ctx).ok


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_modular_relations_rank_one(n):
    rep = modular_relations_check(n)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_modular_relations_fail_on_a_t_exponent_off_by_one(monkeypatch, n):
    exponent = fusion._t_exponent

    def off_by_one(lam, n, k):
        return exponent(lam, n, k) + (lam == (1,))

    monkeypatch.setattr(fusion, "_t_exponent", off_by_one)
    rep = modular_relations_check(n)
    assert (rep.checks, rep.failures) == (3, ["(ST)^3 = C"])


def test_s_matrix_inverse_one_size_up():
    ctx = FusionContext(6, 3)
    rep = s_matrix_inverse_check(ctx)
    assert (rep.checks, rep.ok) == (3136, True)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_frobenius_suite(n, k):
    rep = frobenius_suite(FusionContext(n, k))
    assert rep.ok, rep.summary()


def test_pointwise_product_expansion():
    for n, k in [(3, 2), (4, 2)]:
        rep = mfusion_pointwise_check(FusionContext(n, k), samples=50)
        assert rep.ok, rep.summary()


def test_verlinde_error_propagation():
    # feeding mismatched weights must fail loudly, not silently truncate
    ctx = FusionContext(3, 2)
    with pytest.raises(ValueError):
        n_reduce(ctx, ctx.alcove[0], ctx.alcove[0], (1, 1, 1))


# -- tables -------------------------------------------------------------------


def test_table_roundtrip_and_schema():
    ctx = FusionContext(3, 2)
    table = build_table(ctx)
    text = table.to_json()
    data = json.loads(text)
    assert set(data) >= {"n", "k", "entries"}
    for e in data["entries"]:
        assert set(e) == {"lambda", "mu", "nu", "d", "N"}
        assert e["N"] != 0
        lam, mu, nu = tuple(e["lambda"]), tuple(e["mu"]), tuple(e["nu"])
        assert (sum(lam) + sum(mu) - sum(nu)) == 3 * e["d"]
    back = CoeffTable.from_json(text)
    assert back.entries == table.entries
    # byte stability
    assert build_table(FusionContext(3, 2)).to_json() == text


def test_table_csv():
    ctx = FusionContext(2, 1)
    table = build_table(ctx, keep_zero=True)
    assert len(table.entries) == 8
    csv_text = table.to_csv()
    rows = [r for r in csv_text.strip().splitlines()[1:]]
    assert len(rows) == 4  # nonzero entries only
    assert any(r.startswith("1,1,2,0,1") for r in rows)


def _json_oracle(table):
    """The table through json.dumps, as the renderer's bytes must be."""
    payload = {
        "n": table.n,
        "k": table.k,
        "entries": [
            {
                "lambda": list(lam),
                "mu": list(mu),
                "nu": list(nu),
                "d": d if d >= 0 else None,
                table.value_key: v,
            }
            for (lam, mu, nu, d), v in sorted(table.entries.items())
        ],
    }
    if table.metadata:
        payload["metadata"] = table.metadata
    return json.dumps(payload, indent=0, sort_keys=True)


def _csv_oracle(table):
    """The nonzero rows through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", "mu", "nu", "d", "value"])
    for (lam, mu, nu, d), v in sorted(table.entries.items()):
        if v:
            writer.writerow(
                [format_partition(lam), format_partition(mu), format_partition(nu), d, v]
            )
    return buf.getvalue()


def _text_oracle(table):
    """Every row, columns padded to the widest cell, trailing blanks stripped."""
    rows = [("lambda", "mu", "nu", "d", "value")]
    for (lam, mu, nu, d), v in sorted(table.entries.items()):
        cells = (format_partition(lam), format_partition(mu), format_partition(nu))
        rows.append((*cells, str(d) if d >= 0 else "-", str(v)))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines) + "\n"


def test_row_renderer_equals_json_csv_and_text_oracles():
    grids = [(2, 1), (3, 2), (4, 2), (3, 3)]
    tables = [build_table(FusionContext(n, k), keep_zero=True) for n, k in grids]
    assert any(key[3] == -1 for key in tables[-1].entries)  # rows with d = null
    tables += [gw_table(grass_context(n, k), 2) for n, k in [(4, 2), (6, 3), (7, 1)]]
    tables += [
        CoeffTable(3, 2),
        CoeffTable(3, 2, "C", {}, {"note": 'a "quote" \\ \u03bb\t', "rank": {"b": [], "a": 1}}),
    ]
    for table in tables:
        assert table.to_json() == _json_oracle(table)
        assert table.to_csv() == _csv_oracle(table)
        assert _table_text(table) == _text_oracle(table)


def test_golden_fusion_tables():
    for name, n, k in [("fusion_n2_k1.json", 2, 1), ("fusion_n3_k2.json", 3, 2)]:
        path = os.path.join(GOLDEN_DIR, name)
        with open(path) as fh:
            golden = fh.read()
        fresh = build_table(FusionContext(n, k)).to_json()
        assert fresh == golden.strip(), f"regenerate {name} explicitly if this change is intended"
