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
    gw_bvi_rows,
    gw_ribbon,
    gw_symmetry_suite,
    gw_table,
    level_rank_check,
    mcnamara_expand,
    nonskew_orthogonality,
    quantum_kostka,
    ribbon_data,
    toric_schur,
)
from cylsym.grassmannian import _kostka_expansion, _pad, _strip_successors
from cylsym.partitions import (
    BoxedPartition,
    ContextMismatchError,
    _conj_padded,
    conjugate,
    enumerate_alcove,
    enumerate_boxed,
    lawful_rows,
    partitions_of,
)
from cylsym.symfunc import convert, multiply, sym

from oracles import brauer_klimyk_product, nonskew_cyl_schur, partitions_with_core, tensor

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def boxed(parts, n, k):
    return BoxedPartition(parts, n, k)


def is_strip(lam, de, mu, row_strict):
    """Is lam/de/mu a vertical (row_strict) or a horizontal strip, read off
    the successors of mu that the Kostka transfer walks?"""
    r = lam.size + lam.n * de - mu.size
    return r >= 0 and (lam, de, 1) in _strip_successors(mu, r, row_strict)


def column_count_strip(lam, de, mu, row_strict):
    """Independent strip test on the column counts of lam~ = lam + rho and
    mu~ = mu + rho, padded to n + 1 entries: with m_c = lam~'_c - lam~'_(c+1)
    in {0, 1} and e_c = lam~'_c + de - mu~'_c, a vertical strip has
    0 <= e_c <= m_c, and a horizontal strip 0 <= e_(c+1) <= 1 - m_c, c = 1..n."""
    n = lam.n
    lamc = _conj_padded(lam.to_strict().parts, n + 1)
    muc = _conj_padded(mu.to_strict().parts, n + 1)
    for c in range(n):
        m = lamc[c] - lamc[c + 1]
        if row_strict:
            if not 0 <= lamc[c] + de - muc[c] <= m:
                return False
        elif not 0 <= lamc[c + 1] + de - muc[c + 1] <= 1 - m:
            return False
    return True


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
                assert gw_bvi(ctx, lam, mu, nu, 0) == multiply(
                    sym("s", lam.parts), sym("s", mu.parts)
                )[nu.parts]


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


def test_packed_gw_rows_equal_the_alternant_sum_per_triple():
    # every lawful triple with d <= 1 of every Gr(k, n) with n <= 6
    for n in range(2, 7):
        for k in range(1, n):
            ctx = grass_context(n, k)
            rows = gw_bvi_rows(ctx, 1)
            assert [row[:3] for row in rows] == list(lawful_rows(ctx.boxed, n, 1)), (n, k)
            for lam, mu, row, values in rows:
                expect = [gw_bvi(ctx, lam, mu, nu, d) for nu, d in row]
                assert values == expect, (n, k, lam.parts, mu.parts)
    # and 40 seeded pairs of Gr(3,7)
    ctx = grass_context(7, 3)
    rows = {(lam, mu): (row, values) for lam, mu, row, values in gw_bvi_rows(ctx, 1)}
    rng = random.Random("gw rows 7,3")
    for _ in range(40):
        lam, mu = rng.choice(ctx.boxed), rng.choice(ctx.boxed)
        row, values = rows[(lam, mu)]
        assert values == [gw_bvi(ctx, lam, mu, nu, d) for nu, d in row], (lam.parts, mu.parts)


def test_gw_rows_integrality_check_survives_optimize():
    # nu = (1,)'s slots in the column (sigma = (2, 1), x^3) of Gr(2,4), which the
    # pair ((), (1,)) reads: the constant slot off by 1, not a multiple of
    # L = 32, and the slot of zeta off by L, a nonconstant residue
    code = (
        "from cylsym.cyclotomic import NonIntegralError\n"
        "from cylsym.grassmannian import GrassContext, gw_bvi_rows\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "for slot, unit in ((0, False), (1, True)):\n"
        "    ctx = GrassContext(4, 2)\n"
        "    for lam, mu, row, values in gw_bvi_rows(ctx, 1):\n"
        "        if not lam.parts and values != [int(mu == nu) for nu, _ in row]:\n"
        "            raise SystemExit('the delta rows fail')\n"
        "    packed, widths = ctx._packed_duals\n"
        "    packed[3] += (ctx.scale if unit else 1) << (widths[0] * (2 + slot))\n"
        "    try:\n"
        "        gw_bvi_rows(ctx, 1)\n"
        "    except NonIntegralError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'gw_bvi_rows returned rows with slot {slot} off')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cylsym.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


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
                    expect = 1 if is_strip(lam, d, mu, row_strict) else 0
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
                    assert is_strip(lam, de, mu, True) == vertical
                    assert is_strip(lam, de, mu, False) == horizontal
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


def test_strip_successors_match_the_column_counts():
    # psi on the strict weights against the column-count predicate, both kinds
    for n in range(2, 8):
        for k in range(1, n):
            states = enumerate_boxed(n, k)
            for row_strict in (True, False):
                for mu in states:
                    for r in range(1, 2 * n + 1):
                        expect = []
                        for lam in states:
                            de, rem = divmod(mu.size + r - lam.size, n)
                            if rem == 0 and de >= 0 and column_count_strip(lam, de, mu, row_strict):
                                expect.append((lam, de, 1))
                        assert _strip_successors(mu, r, row_strict) == tuple(expect), (mu, r, row_strict)



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
                c = multiply(sym("s", mu.parts), sym("s", nu))[lam.parts]
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


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_core_fiber_is_empty_at_negative_degree(n, k):
    ctx = grass_context(n, k)
    for lam in ctx.boxed:
        for d in (-1, -2, -5):
            assert core_fiber(ctx, lam, d) == []
            assert nonskew_cyl_schur(ctx, lam, d).is_zero()
            assert cyl_schur_to_schur(ctx, lam, d, lam).is_zero()


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


def test_mcnamara_expand_reads_the_rim_hook_products(monkeypatch):
    # one off-by-one entry of one pair's rim-hook product must show against gw_bvi
    ctx = grass_context(4, 2)
    product = grassmannian._reduced_product

    def off_by_one(ctx, lam, mu):
        if (lam.size, lam.parts) < (mu.size, mu.parts):
            lam, mu = mu, lam  # the canonical order: no cached entry takes the change
        out = product(ctx, lam, mu)
        if (lam.parts, mu.parts) == ((2, 1), (1,)):
            out = dict(out)
            out[((2, 2), 0)] += 1
        return out

    monkeypatch.setattr(grassmannian, "_reduced_product", off_by_one)
    wrong = {
        (lam.parts, d, mu.parts, nu.parts, e)
        for lam in ctx.boxed
        for mu in ctx.boxed
        for d in range(3)
        for (nu, e), c in mcnamara_expand(ctx, lam, d, mu).items()
        if c != gw_bvi(ctx, mu, nu, lam, d - e)
    }
    assert wrong == {((2, 2), d, mu, nu, d) for d in range(3) for mu, nu in (((2, 1), (1,)), ((1,), (2, 1)))}


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
    from cylsym.symfunc import TensorSymFunc, coproduct
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


def test_one_kostka_walk_equals_the_walk_per_shape():
    # the rows of every mu read off one walk out of the empty partition
    for n in range(2, 9):
        for k in range(1, n):
            ctx = grass_context(n, k)
            empty = boxed((), n, k)
            rows = grassmannian._kostka_rows(ctx)
            assert set(rows) == set(ctx.boxed)
            for mu in ctx.boxed:
                alone = _kostka_expansion(ctx, mu, 0, empty, row_strict=False)
                expect = {_pad(beta, k): c for beta, c in alone.items() if len(beta) <= k}
                assert len(rows[mu]) == len(expect) and dict(rows[mu]) == expect, (n, k, mu.parts)


def _nonzero(product: dict) -> dict:
    return {key: v for key, v in product.items() if v}


def test_dominant_weight_products_equal_the_weight_by_weight_loop():
    # whole pair grids of Gr(4,8) and Gr(3,9), seeded pairs of Gr(5,10)
    rng = random.Random(20221022)
    for n, k, samples in [(8, 4, None), (9, 3, None), (10, 5, 200)]:
        ctx = grass_context(n, k)
        pairs = [(lam, mu) for lam in ctx.boxed for mu in ctx.boxed]
        if samples:
            pairs = rng.sample(pairs, samples)
        for lam, mu in pairs:
            got = _nonzero(grassmannian._reduced_product(ctx, lam, mu))
            assert got == _nonzero(brauer_klimyk_product(ctx, lam, mu)), (n, k, lam.parts, mu.parts)


def test_default_table_sees_one_kostka_entry_off_by_one(monkeypatch):
    # K_{(2),(1,1)} + 1 must show against gw_bvi, and only in pairs with (2)
    ctx = grass_context(4, 2)
    kostka_rows = grassmannian._kostka_rows
    rows = kostka_rows(ctx)
    mu = boxed((2,), 4, 2)
    mutant = dict(rows)
    mutant[mu] = tuple((beta, c + (beta == (1, 1))) for beta, c in rows[mu])
    assert mutant[mu] != rows[mu]
    monkeypatch.setattr(grassmannian, "_kostka_rows", lambda c: mutant if c is ctx else kostka_rows(c))
    grassmannian._reduced_product.cache_clear()
    try:
        table = gw_table(ctx, 2).entries
    finally:
        grassmannian._reduced_product.cache_clear()
    reference = gw_table(ctx, 2, route=gw_bvi).entries
    wrong = {key for key in set(table) | set(reference) if table.get(key, 0) != reference.get(key, 0)}
    assert wrong and all(mu.parts in key[:2] for key in wrong)


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
        "from cylsym.symfunc import sym\n"
        "from oracles import tensor\n"
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
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
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
