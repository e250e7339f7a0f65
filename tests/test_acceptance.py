"""Acceptance suite: every criterion is exact (tolerance zero) and prints one
pass line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction

from cylsym.cyclotomic import CycloNum, euler_phi, zeta_pow
from cylsym.cylindric import (
    antipode_check,
    coproduct_cyl_check,
    cyl_e,
    cyl_h,
    cyl_h_in_h,
    cyl_in_nonskew,
    cyl_p_expand,
    enumerate_crpp,
    phi_cyl,
    psi_cyl,
    psi_cyl_oracle,
    theta_cyl,
    theta_cyl_oracle,
)
from cylsym.fusion import (
    FusionContext,
    modular_relations_check,
    n_count,
    n_reduce,
    n_verlinde,
    orthogonality_check,
    symmetry_suite,
)
from cylsym.grassmannian import (
    core_fiber,
    cyl_schur,
    cyl_schur_p,
    grass_context,
    gw_bvi,
    gw_ribbon,
    gw_symmetry_suite,
    gw_table,
    level_rank_check,
    mcnamara_expand,
)
from cylsym.partitions import (
    AlcoveWeight,
    BoxedPartition,
    conjugate,
    enumerate_alcove,
    partitions_with_core,
    stab_order,
)
from cylsym.symfunc import (
    adjacent_column_weight,
    convert,
    hall_inner,
    monomial_in_schur,
    sym,
)


def _announce(name):
    print(f"PASS {name}")


def test_criterion_01_theta_psi_formula_vs_oracle():
    contexts = [(2, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]
    for n, k in contexts:
        alcove = enumerate_alcove(n, k)
        for lam in alcove:
            for mu in alcove:
                for d in range(0, 4):
                    assert theta_cyl(lam, d, mu) == theta_cyl_oracle(lam, d, mu), (
                        n, k, lam.parts, d, mu.parts,
                    )
                    assert psi_cyl(lam, d, mu) == psi_cyl_oracle(lam, d, mu), (
                        n, k, lam.parts, d, mu.parts,
                    )
    one = AlcoveWeight((1,), 2, 1)
    assert theta_cyl(one, 1, one) == 1
    a = AlcoveWeight((2, 1), 2, 2)
    assert theta_cyl(a, 1, a) == 3
    _announce("criterion 1: theta/psi formula = oracle on all six contexts, d <= 3")


def test_criterion_02_fusion_triple_route():
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        ctx = FusionContext(n, k)
        for lam in ctx.alcove:
            for mu in ctx.alcove:
                for nu in ctx.alcove:
                    a = n_count(nu, lam, mu)
                    b = n_verlinde(ctx, lam, mu, nu)
                    c = n_reduce(ctx, nu, lam, mu)
                    assert a == b == c, (n, k, lam.parts, mu.parts, nu.parts)
        rep = symmetry_suite(ctx)
        assert rep.ok, rep.summary()
    _announce("criterion 2: fusion triple-route + symmetry/associativity/dimension rules")


def test_criterion_03_worked_examples():
    m21 = monomial_in_schur((2, 1))
    assert m21.dict() == {(2, 1): Fraction(1), (1, 1, 1): Fraction(-2)}

    assert adjacent_column_weight((5, 5, 3, 2), (3, 2, 1, 1), (2, 2, 3, 1)) == 12

    lam = AlcoveWeight((2, 1, 1), 4, 3)
    mu = AlcoveWeight((2, 2, 1), 4, 3)
    nu = AlcoveWeight((4, 2, 1), 4, 3)
    assert phi_cyl(lam, 1, mu) == 2
    assert phi_cyl(nu, 1, mu) == 1

    outer = AlcoveWeight((4, 3, 2), 4, 3)
    inner = AlcoveWeight((2, 2, 1), 4, 3)
    crpps = enumerate_crpp(outer, 1, inner, weight=(4, 3, 1))
    assert crpps
    for crpp in crpps:
        image = crpp.vee()
        assert image.outer.parts == (4, 3, 3)
        assert image.inner.parts == (3, 2, 1)
        assert image.degree == 1
        assert image.weight() == (1, 3, 4)
        assert image.vee() == crpp
    _announce("criterion 3: hand-checked worked examples reproduce exactly")


def test_criterion_04_cylindric_h_expansion_routes():
    for n, k in [(2, 2), (3, 2)]:
        alcove = enumerate_alcove(n, k)
        for lam in alcove:
            for mu in alcove:
                for d in range(0, 3):
                    m_route = cyl_h(lam, d, mu)
                    h_route = convert(cyl_h_in_h(lam, d, mu), "m")
                    assert m_route == h_route, (n, k, lam.parts, d, mu.parts)
    alcove = enumerate_alcove(4, 3)
    for lam in alcove:
        for mu in alcove:
            for d in range(0, 2):
                p_route = convert(cyl_p_expand(lam, d, mu, "h"), "m")
                assert p_route == cyl_h(lam, d, mu), (lam.parts, d, mu.parts)
    _announce("criterion 4: CRPP route = fusion route (d<=2) and power-sum route at (4,3)")


def test_criterion_05_hopf_identities():
    alcove = enumerate_alcove(3, 2)
    for lam in alcove:
        for mu in alcove:
            for d in range(0, 2):
                assert antipode_check(lam, d, mu), (lam.parts, d, mu.parts)
                assert coproduct_cyl_check(lam, d, mu), (lam.parts, d, mu.parts)
                for (_, _), c in cyl_in_nonskew(lam, d, mu).items():
                    assert c >= 0
    _announce("criterion 5: antipode/coproduct identities and subcoalgebra positivity")


def test_criterion_06_vee_duality():
    alcove = enumerate_alcove(4, 3)
    for lam in alcove:
        for mu in alcove:
            for d in range(0, 2):
                s_lam, s_mu = stab_order(lam.parts), stab_order(mu.parts)
                assert cyl_h(lam, d, mu) * s_mu == cyl_h(mu.vee(), d, lam.vee()) * s_lam
                assert cyl_e(lam, d, mu) * s_mu == cyl_e(mu.vee(), d, lam.vee()) * s_lam
    _announce("criterion 6: vee duality of cylindric h and e at (4,3), d <= 1")


def test_criterion_07_gw_dual_route():
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        ctx = grass_context(n, k)
        # both routes raise on a negative value and keep the nonzero entries
        bvi = gw_table(ctx, 2, route=gw_bvi)
        assert bvi.entries == gw_table(ctx, 2, route=gw_ribbon).entries, (n, k)
        for mu in ctx.boxed:
            for nu in ctx.boxed:
                assert bvi.entries.get(((), mu.parts, nu.parts, 0), 0) == (1 if mu == nu else 0)
        rep = gw_symmetry_suite(ctx, bvi, 2)
        assert rep.ok and rep.checks == {4: 146, 5: 494, 6: 3026}[n], rep.summary()
        assert level_rank_check(ctx, 2).ok
    _announce("criterion 7: BVI = ribbon route on Gr(2,4), Gr(2,5), Gr(3,6), d <= 2")


def test_criterion_08_cylindric_schur_routes():
    ctx = grass_context(5, 2)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(0, 3):
                m_route = cyl_schur(ctx, lam, d, mu)
                p_route = convert(cyl_schur_p(ctx, lam, d, mu), "m")
                assert m_route == p_route, (lam.parts, d, mu.parts)
    ctx4 = grass_context(4, 2)
    empty = BoxedPartition((), 4, 2)
    for lam in ctx4.boxed:
        for mu in ctx4.boxed:
            for d in range(0, 3):
                target = cyl_schur(ctx4, lam, d, mu)
                acc = sym("m", ()) * 0
                for (nu, e), c in mcnamara_expand(ctx4, lam, d, mu).items():
                    assert c > 0
                    assert c == gw_bvi(ctx4, mu, nu, lam, d - e)
                    acc = acc + cyl_schur(ctx4, nu, e, empty) * c
                assert acc == target, (lam.parts, d, mu.parts)
    _announce("criterion 8: Kostka route = ribbon route on Gr(2,5); McNamara on Gr(2,4)")


def test_criterion_09_nonskew_orthogonality():
    ctx = grass_context(4, 2)
    empty = BoxedPartition((), 4, 2)
    funcs = {
        (lam, d): cyl_schur_p(ctx, lam, d, empty)
        for lam in ctx.boxed
        for d in range(0, 3)
    }
    for (lam, d), f in funcs.items():
        fiber = core_fiber(ctx, lam, d)
        brute = [
            p for p in partitions_with_core(conjugate(lam.parts), 4, d) if len(p) <= 2
        ]
        assert sorted(fiber) == sorted(brute), (lam.parts, d)
        for (mu, d2), g in funcs.items():
            expected = Fraction(len(fiber)) if (lam, d) == (mu, d2) else Fraction(0)
            assert hall_inner(f, g) == expected, (lam.parts, d, mu.parts, d2)
    _announce("criterion 9: non-skew orthogonality with core-fibre counts on Gr(2,4)")


def test_criterion_10_cyclotomic_layer():
    rng = random.Random(20)
    for n in range(2, 13):
        one = CycloNum.one(n)
        for _ in range(6):
            coeffs = lambda: tuple(
                Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(euler_phi(n))
            )
            a, b, c = CycloNum(n, coeffs()), CycloNum(n, coeffs()), CycloNum(n, coeffs())
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not a.is_zero():
                assert (a * a.inv() - one).is_zero()
        assert zeta_pow(n, n).to_integer() == 1
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        rep = orthogonality_check(FusionContext(n, k))
        assert rep.ok, rep.summary()
    for n in (2, 3, 4):
        rep = modular_relations_check(n)
        assert rep.ok, rep.summary()
    _announce("criterion 10: field axioms, S-matrix orthogonality, k=1 modular relations")
