import json
import os
import random
import subprocess
import sys

import pytest

import cylsym
from cylsym import grassmannian
from cylsym.affine import CylindricShape
from cylsym.cylindric import phi_cyl, phi_cyl_oracle, psi_cyl
from cylsym.fusion import CoeffTable
from cylsym.grassmannian import (
    chi_matrix_check,
    chi_weight,
    core_fiber,
    cyl_schur,
    cyl_schur_p,
    cyl_schur_to_schur,
    grass_context,
    gw_bvi,
    gw_ribbon,
    gw_symmetry_suite,
    gw_table,
    level_rank_check,
    mcnamara_expand,
    nonskew_cyl_schur,
    nonskew_orthogonality,
    quantum_kostka,
    ribbon_data,
    schur_product_coeff,
    toric_schur,
)
from cylsym.grassmannian import _strip_ok
from cylsym.partitions import (
    BoxedPartition,
    ContextMismatchError,
    conjugate,
    enumerate_alcove,
    lawful_rows,
    partitions_of,
    partitions_with_core,
)
from cylsym.symfunc import convert, sym

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def boxed(parts, n, k):
    return BoxedPartition(parts, n, k)


def test_bvi_classical_anchors():
    ctx = grass_context(4, 2)
    one = boxed((1,), 4, 2)
    assert gw_bvi(ctx, one, one, boxed((2,), 4, 2), 0) == 1
    assert gw_bvi(ctx, one, one, boxed((1, 1), 4, 2), 0) == 1
    # d = 0 equals the classical Littlewood-Richardson coefficient
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for nu in ctx.boxed:
                if lam.size + mu.size != nu.size:
                    continue
                assert gw_bvi(ctx, lam, mu, nu, 0) == schur_product_coeff(
                    lam.parts, mu.parts, nu.parts
                )


def test_bvi_delta_normalisation():
    for n, k in [(4, 2), (5, 2)]:
        ctx = grass_context(n, k)
        empty = boxed((), n, k)
        for mu in ctx.boxed:
            for nu in ctx.boxed:
                assert gw_bvi(ctx, empty, mu, nu, 0) == (1 if mu == nu else 0)


def test_gw_max_degree_entry():
    ctx = grass_context(4, 2)
    full = boxed((2, 2), 4, 2)
    assert gw_bvi(ctx, full, full, boxed((), 4, 2), 2) == 1


@pytest.mark.parametrize("n,k,dmax", [(4, 2, 2), (5, 2, 2)])
def test_dual_route(n, k, dmax):
    ctx = grass_context(n, k)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for nu in ctx.boxed:
                total = lam.size + mu.size - nu.size
                if total < 0 or total % n or total // n > dmax:
                    continue
                d = total // n
                a = gw_bvi(ctx, lam, mu, nu, d)
                b = gw_ribbon(ctx, lam, mu, nu, d)
                assert a == b >= 0, (lam.parts, mu.parts, nu.parts, d)


def test_gw_symmetries_and_level_rank():
    for n, k in [(4, 2), (5, 2)]:
        ctx = grass_context(n, k)
        assert gw_symmetry_suite(ctx, gw_table(ctx, 2, route=gw_bvi), 2).ok
        assert level_rank_check(ctx, 2).ok


def test_gw_symmetry_suite_detects_a_shifted_value():
    ctx = grass_context(4, 2)

    def shifted(ctx, lam, mu, nu, d):
        value = gw_bvi(ctx, lam, mu, nu, d)
        return value + 1 if (lam.parts, mu.parts, nu.parts, d) == ((1,), (2,), (2, 1), 0) else value

    rep = gw_symmetry_suite(ctx, gw_table(ctx, 2, route=shifted), 2)
    assert rep.checks == 146
    assert rep.failures[0] == "commutativity at (1,),(2,),(2, 1),0"


def test_quantum_pieri_matches_horizontal_strips():
    # a row (r) adds a horizontal strip, a column (1^r) a vertical one
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        ctx = grass_context(n, k)
        pieri = [((r,), r, False) for r in range(1, n - k + 1)]
        pieri += [((1,) * r, r, True) for r in range(1, k + 1)]
        for parts, r, row_strict in pieri:
            factor = boxed(parts, n, k)
            for mu in ctx.boxed:
                for lam in ctx.boxed:
                    total = r + mu.size - lam.size
                    if total < 0 or total % n:
                        continue
                    d = total // n
                    expect = 1 if _strip_ok(lam, d, mu, row_strict) else 0
                    assert gw_bvi(ctx, factor, mu, lam, d) == expect, (n, k, parts, lam.parts, mu.parts, d)


def test_closed_forms_match_the_cell_geometry():
    # strips and step weights are read off column counts; the cells of the
    # CylindricShape stay the independent reference
    for n, k in [(6, 3), (7, 2), (7, 3)]:
        ctx = grass_context(n, k)
        for lam in ctx.boxed:
            for mu in ctx.boxed:
                for de in range(4):
                    shape = CylindricShape(lam.to_strict(), de, mu.to_strict())
                    valid = shape.is_valid()
                    diagonals = [(i + j) % (n - k) for i, j in shape.cells()]
                    vertical = valid and max(shape.row_counts()) <= 1
                    horizontal = valid and len(set(diagonals)) == len(diagonals)
                    assert _strip_ok(lam, de, mu, True) == vertical
                    assert _strip_ok(lam, de, mu, False) == horizontal
    rng = random.Random(9)
    for n, k in [(7, 3), (6, 4)]:
        alcove = enumerate_alcove(n, k)
        hits = [0, 0]
        for _ in range(400):
            lam, mu, d = rng.choice(alcove), rng.choice(alcove), rng.randint(0, 4)
            phi = phi_cyl(lam, d, mu)
            assert phi == phi_cyl_oracle(lam, d, mu), (lam.parts, d, mu.parts)
            shape = CylindricShape(lam, d, mu)
            vertical = shape.is_valid() and max(shape.row_counts()) <= 1
            assert (psi_cyl(lam, d, mu) > 0) == vertical, (lam.parts, d, mu.parts)
            hits[0] += phi > 0
            hits[1] += vertical
        assert all(hits), (n, k, hits)


# -- quantum Kostka numbers ------------------------------------------------------


def test_kostka_trivial_and_validation():
    ctx = grass_context(4, 2)
    lam = boxed((2, 1), 4, 2)
    assert quantum_kostka(ctx, lam, 0, lam, ()) == 1
    with pytest.raises(ValueError):
        quantum_kostka(ctx, lam, 0, lam, (3,))  # exceeds n - k


def test_kostka_level_rank_duality():
    ctx = grass_context(5, 2)
    other = ctx.conjugate_context()
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(2):
                deg = lam.size - mu.size + 5 * d
                if deg < 0:
                    continue
                for alpha in partitions_of(deg, max_part=min(3, 2)):
                    a = quantum_kostka(ctx, lam, d, mu, alpha)
                    b = quantum_kostka(
                        other,
                        lam.conjugate_boxed(),
                        d,
                        mu.conjugate_boxed(),
                        alpha,
                        row_strict=True,
                    )
                    assert a == b, (lam.parts, d, mu.parts, alpha)


def test_kostka_single_row_matches_pieri():
    # sigma_r sigma_mu = sum q^d sigma_lam over cylindric horizontal strips
    ctx = grass_context(4, 2)
    for r in range(1, 3):
        for mu in ctx.boxed:
            for lam in ctx.boxed:
                total = r + mu.size - lam.size
                if total < 0 or total % 4:
                    continue
                d = total // 4
                k_count = quantum_kostka(ctx, lam, d, mu, (r,))
                assert k_count == gw_bvi(ctx, boxed((r,), 4, 2), mu, lam, d)


# -- cylindric ribbons -------------------------------------------------------------


def test_ribbon_figure_anchors():
    ctx = grass_context(5, 2)
    lam = boxed((2, 1), 5, 2)
    mu = boxed((2, 2), 5, 2)
    assert ribbon_data(ctx, lam, 1, mu) == (4, 2)
    assert ribbon_data(ctx, lam, 2, mu) == (9, 3)
    assert chi_weight(ctx, lam, 1, mu, (4,)) == -1
    assert chi_weight(ctx, lam, 2, mu, (9,)) == 1


def test_chi_degree_law_and_recursion():
    for n, k in [(4, 2), (5, 2)]:
        ctx = grass_context(n, k)
        rep = chi_matrix_check(ctx, 2)
        assert rep.ok, rep.summary()


def test_chi_single_small_ribbon_signs():
    ctx = grass_context(5, 2)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            r = lam.size - mu.size
            if not 1 <= r < 5:
                continue
            data = ribbon_data(ctx, lam, 0, mu)
            val = chi_weight(ctx, lam, 0, mu, (r,))
            if data is None:
                assert val == 0
            else:
                assert val == (-1) ** ((data[1] - 1) % 2)


# -- cylindric Schur functions -------------------------------------------------------


def test_cyl_schur_degree_zero_is_skew_schur():
    ctx = grass_context(4, 2)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            f = cyl_schur(ctx, lam, 0, mu)
            expect = sym("s", ()) * 0
            for nu in partitions_of(lam.size - mu.size) if lam.size >= mu.size else []:
                c = schur_product_coeff(mu.parts, nu, lam.parts)
                if c:
                    expect = expect + sym("s", nu) * c
            assert f == expect


@pytest.mark.parametrize("n,k,dmax", [(4, 2, 2), (5, 2, 2)])
def test_cyl_schur_dual_route(n, k, dmax):
    ctx = grass_context(n, k)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(dmax + 1):
                assert cyl_schur(ctx, lam, d, mu) == convert(
                    cyl_schur_p(ctx, lam, d, mu), "m"
                ), (lam.parts, d, mu.parts)


def test_signed_schur_expansion_matches_conversion():
    ctx = grass_context(4, 2)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(2):
                assert cyl_schur_to_schur(ctx, lam, d, mu) == convert(
                    cyl_schur(ctx, lam, d, mu), "s"
                )


def test_non_schur_positive_witness():
    # some cylindric Schur function on Gr(2,5) has a negative Schur coefficient
    ctx = grass_context(5, 2)
    witness = None
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(1, 3):
                f = cyl_schur_to_schur(ctx, lam, d, mu)
                if any(c < 0 for _, c in f.coeffs):
                    witness = (lam.parts, d, mu.parts)
                    break
    assert witness is not None


def test_nonskew_core_route():
    ctx = grass_context(4, 2)
    empty = boxed((), 4, 2)
    for lam in ctx.boxed:
        for d in range(3):
            assert nonskew_cyl_schur(ctx, lam, d) == convert(
                cyl_schur(ctx, lam, d, empty), "s"
            )


def test_core_fiber_vs_brute_scan():
    ctx = grass_context(4, 2)
    for lam in ctx.boxed:
        for d in range(3):
            fiber = core_fiber(ctx, lam, d)
            brute = [
                p
                for p in partitions_with_core(conjugate(lam.parts), 4, d)
                if len(p) <= 2
            ]
            assert sorted(fiber) == sorted(brute)


def test_nonskew_orthogonality():
    ctx = grass_context(4, 2)
    rep = nonskew_orthogonality(ctx, 2)
    assert rep.ok, rep.summary()


def test_mcnamara_reconstruction():
    ctx = grass_context(4, 2)
    empty = boxed((), 4, 2)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(3):
                target = cyl_schur(ctx, lam, d, mu)
                acc = sym("m", ()) * 0
                for (nu, e), c in mcnamara_expand(ctx, lam, d, mu).items():
                    assert c > 0
                    acc = acc + cyl_schur(ctx, nu, e, empty) * c
                assert acc == target, (lam.parts, d, mu.parts)
    # empty inner shape expands onto itself
    for lam in ctx.boxed:
        for d in range(2):
            table = mcnamara_expand(ctx, lam, d, empty)
            assert table == {(lam, d): 1}


def test_toric_schur_matches_gw():
    ctx = grass_context(4, 2)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(2):
                if lam.size + 4 * d - mu.size < 0:
                    continue
                tor = toric_schur(ctx, lam, d, mu)
                for sig, c in tor.coeffs:
                    assert len(sig) <= 2 and (not sig or sig[0] <= 2), (
                        "coefficient outside the box",
                        lam.parts,
                        d,
                        mu.parts,
                        sig,
                    )
                for nu in ctx.boxed:
                    assert tor[nu.parts] == gw_bvi(ctx, mu, nu, lam, d)


def test_cyl_schur_coproduct():
    # Delta(s_{lam/d/mu}) = sum over splittings, degree-truncated on Gr(2,4)
    from cylsym.symfunc import TensorSymFunc, coproduct, tensor
    from fractions import Fraction

    ctx = grass_context(4, 2)
    for lam in ctx.boxed[:4]:
        for mu in ctx.boxed[:4]:
            for d in range(2):
                lhs = coproduct(cyl_schur(ctx, lam, d, mu), bases=("m", "m"))
                rhs: dict = {}
                for d1 in range(d + 1):
                    for nu in ctx.boxed:
                        left = cyl_schur(ctx, lam, d1, nu)
                        if left.is_zero():
                            continue
                        right = cyl_schur(ctx, nu, d - d1, mu)
                        if right.is_zero():
                            continue
                        for key, c in tensor(left, right).coeffs:
                            rhs[key] = rhs.get(key, Fraction(0)) + c
                assert lhs == TensorSymFunc.make(("m", "m"), rhs), (
                    lam.parts,
                    d,
                    mu.parts,
                )


def test_default_table_matches_bvi_on_edges_and_samples():
    # whole tables on the k = 1 and n - k = 1 edges
    for n, k in [(7, 1), (4, 3), (5, 4)]:
        ctx = grass_context(n, k)
        assert gw_table(ctx, 2).entries == gw_table(ctx, 2, route=gw_bvi).entries, (n, k)
    # seeded samples one box size up: half nonzero entries, half lawful triples
    rng = random.Random(20180515)
    for n, k, dmax in [(7, 3, 2), (8, 3, 1), (8, 4, 2)]:
        ctx = grass_context(n, k)
        table = gw_table(ctx, dmax)
        lawful = [
            (lam.parts, mu.parts, nu.parts, (lam.size + mu.size - nu.size) // n)
            for lam in ctx.boxed
            for mu in ctx.boxed
            for nu in ctx.boxed
            if lam.size + mu.size - nu.size in range(0, n * dmax + 1, n)
        ]
        picks = rng.sample(sorted(table.entries), 50) + rng.sample(lawful, 50)
        for lam, mu, nu, d in picks:
            assert table.entries.get((lam, mu, nu, d), 0) == gw_bvi(ctx, lam, mu, nu, d), (
                n, k, lam, mu, nu, d,
            )


def test_per_pair_table_equals_the_per_triple_calls():
    for n, k, dmax in [(8, 4, 2), (7, 3, 1), (7, 1, 2), (5, 4, 2)]:
        ctx = grass_context(n, k)
        table = gw_table(ctx, dmax)
        per_triple = gw_table(ctx, dmax, route=gw_ribbon)
        assert table.entries and table.entries == per_triple.entries, (n, k, dmax)


def test_explicit_ribbon_route_is_called_per_triple(monkeypatch):
    # gw_ribbon boxes its three indices once per call; the pair products box none
    calls = []
    as_boxed = grassmannian._as_boxed

    def counted(ctx, bar):
        calls.append(bar)
        return as_boxed(ctx, bar)

    monkeypatch.setattr(grassmannian, "_as_boxed", counted)
    ctx = grass_context(5, 2)
    table = gw_table(ctx, 2)
    assert calls == []
    assert gw_table(ctx, 2, route=gw_ribbon).entries == table.entries
    triples = sum(len(row) for _, _, row in lawful_rows(ctx.boxed, ctx.n, 2))
    assert len(calls) == 3 * triples > 0


def test_gw_golden_table():
    path = os.path.join(GOLDEN_DIR, "gw_n4_k2_d2.json")
    with open(path) as fh:
        golden = fh.read()
    fresh = gw_table(grass_context(4, 2), 2).to_json()
    assert fresh == golden.strip()


def test_gw_table_schema():
    table = gw_table(grass_context(4, 2), 1)
    data = json.loads(table.to_json())
    for e in data["entries"]:
        assert set(e) == {"lambda", "mu", "nu", "d", "C"}
    back = CoeffTable.from_json(table.to_json(), value_key="C")
    assert back.entries == table.entries


def test_ribbon_integrality_check_survives_optimize():
    # integrality, exactness and basis checks must hold when asserts are stripped
    code = (
        "from fractions import Fraction\n"
        "from cylsym import grassmannian as gr\n"
        "from cylsym.cyclotomic import _exact_polydiv\n"
        "from cylsym.symfunc import sym, tensor\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "gr._reduced_product = lambda ctx, lam, mu: {((2,), 0): Fraction(1, 2)}\n"
        "try:\n"
        "    gr.gw_ribbon(gr.grass_context(4, 2), (1,), (1,), (2,), 0)\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('gw_ribbon returned a value')\n"
        "ctx = gr.GrassContext(4, 2)\n"
        "ctx.denom_inv = {s: -v for s, v in ctx.denom_inv.items()}\n"
        "try:\n"
        "    gr.gw_bvi(ctx, (1,), (1,), (2,), 0)\n"
        "except ValueError as exc:\n"
        "    if 'negative' not in str(exc):\n"
        "        raise SystemExit(f'gw_bvi raised {exc}')\n"
        "else:\n"
        "    raise SystemExit('gw_bvi returned a negative value')\n"
        "for bad in (Fraction(1, 2), -1):\n"
        "    gr._reduced_product = lambda ctx, lam, mu: {((2,), 0): bad}\n"
        "    try:\n"
        "        gr.gw_table(gr.grass_context(4, 2), 0)\n"
        "    except ValueError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'gw_table kept the term {bad}')\n"
        "try:\n"
        "    _exact_polydiv([1, 0, 1], [1, 1])\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('inexact division returned a quotient')\n"
        "one = sym('m', ())\n"
        "total = tensor(sym('m', (1, 1)), one) + tensor(sym('p', (1, 1)), one)\n"
        "if total != tensor(sym('m', (1, 1)) + sym('p', (1, 1)), one):\n"
        "    raise SystemExit(f'mixed-basis tensor sum is {total}')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cylsym.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_boxed_partitions_of_another_context_are_refused():
    ctx = grass_context(4, 2)
    mine, foreign = BoxedPartition((1,), 4, 2), BoxedPartition((1,), 5, 2)
    calls = [
        lambda: gw_bvi(ctx, foreign, mine, mine, 0),
        lambda: gw_ribbon(ctx, mine, mine, foreign, 0),
        lambda: quantum_kostka(ctx, mine, 0, foreign, (1,)),
    ]
    for call in calls:
        with pytest.raises(ContextMismatchError, match=r"\(n=4,k=2\) and \(n=5,k=2\)"):
            call()
