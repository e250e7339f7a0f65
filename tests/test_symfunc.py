import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from cylsym import symfunc
from cylsym.cyclotomic import CycloNum
from cylsym.cylindric import skew_e, skew_h
from cylsym.partitions import (
    distinct_permutations,
    partitions_of,
    size,
    z_factor,
)
from cylsym.symfunc import (
    SymFunc,
    TensorSymFunc,
    antipode,
    convert,
    coproduct,
    hall_inner,
    mn_character,
    monomial_in_schur,
    multiply,
    omega,
    p_to_m_row,
    schur_straighten,
    power_sum_counts,
    sign_character,
    sym,
)

from oracles import _skew_weight, act_phi_flat, psi_flat, tensor, theta_flat

BASES = ("p", "m", "h", "e", "s")


# -- conversions --------------------------------------------------------------


def test_conversion_anchors():
    assert convert(sym("h", (1,)), "m") == sym("m", (1,))
    assert convert(sym("h", (2,)), "m").dict() == {(2,): 1, (1, 1): 1}
    assert convert(sym("e", (2,)), "m").dict() == {(1, 1): 1}


def test_make_stores_fractions_from_integer_counts():
    f = SymFunc.make("m", {(2, 1): 3, (1, 1, 1): 0})
    assert f.coeffs == (((2, 1), Fraction(3)),) and type(f.coeffs[0][1]) is Fraction
    assert f == SymFunc.make("m", {(2, 1): Fraction(3)})
    assert f.to_json() == SymFunc.make("m", {(2, 1): Fraction(3)}).to_json()


def test_power_sum_counts_gives_h_s_and_with_omega_e():
    for r in range(1, 6):
        ones = power_sum_counts(dict.fromkeys(partitions_of(r), 1))
        assert ones == sym("h", (r,)) and omega(ones) == sym("e", (r,))
    for lam in [(3, 1), (2, 2), (2, 1, 1)]:
        chi = {mu: mn_character(lam, mu) for mu in partitions_of(4)}
        assert power_sum_counts(chi) == sym("s", lam)


def test_conversion_roundtrips():
    for lam in [(3, 1), (2, 2), (2, 1, 1), (4,), ()]:
        for b1 in BASES:
            f = sym(b1, lam)
            for b2 in BASES:
                assert convert(convert(f, b2), b1) == f


# -- products -----------------------------------------------------------------


def _monomial_product_oracle(mu, nu, lam):
    """Structure constant of m_mu m_nu on m_lam: pairs of rearrangements summing to lam."""
    k = len(lam)
    count = 0
    mu_p = tuple(mu) + (0,) * (k - len(mu))
    nu_p = tuple(nu) + (0,) * (k - len(nu))
    if len(mu_p) != k or len(nu_p) != k:
        return 0
    for a in distinct_permutations(mu_p):
        for b in distinct_permutations(nu_p):
            if tuple(x + y for x, y in zip(a, b)) == lam:
                count += 1
    return count


def test_multiply_anchors():
    one = sym("p", ())
    f = sym("m", (2, 1))
    assert multiply(one, f) == f
    prod = multiply(sym("m", (1,)), sym("m", (1,)))
    assert prod.dict() == {(2,): 1, (1, 1): 2}
    cross = convert(multiply(sym("m", (1,)), sym("h", (1,))), "m")
    assert cross.dict() == {(2,): 1, (1, 1): 2}


def test_multiply_matches_pair_count_oracle():
    for mu in [(1,), (2,), (2, 1), (1, 1)]:
        for nu in [(1,), (2, 1), (1, 1)]:
            prod = convert(multiply(sym("m", mu), sym("m", nu)), "m")
            for lam in partitions_of(size(mu) + size(nu)):
                assert prod[lam] == _monomial_product_oracle(mu, nu, lam), (mu, nu, lam)


def test_multiply_commutative_associative():
    rng = random.Random(10)
    pool = [sym(rng.choice(BASES), lam) for lam in [(2, 1), (1, 1), (3,), (2,)]]
    for f in pool:
        for g in pool:
            assert multiply(f, g) == multiply(g, f)
    f, g, h = pool[:3]
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def test_scalar_multiplication_refuses_floats():
    f = sym("m", (2, 1))
    with pytest.raises(TypeError):
        f * 1.5
    with pytest.raises(TypeError):
        1.5 * f
    assert f * Fraction(3, 2) == 3 * f * Fraction(1, 2)


def test_foreign_sums_raise_type_error():
    f = sym("m", (2, 1))
    t = tensor(f, sym("s", (1,)))
    for x in (CycloNum.one(5), f, t):
        for other in (1, Fraction(1, 2), "x"):
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                x - other
            with pytest.raises(TypeError):
                other + x
    with pytest.raises(ValueError):
        CycloNum.one(5) + CycloNum.one(7)
    with pytest.raises(ValueError):
        CycloNum.one(5) - CycloNum.one(7)


# -- Hall pairing and Hopf structure -------------------------------------------


def test_hall_anchors():
    assert hall_inner(sym("p", (2,)), sym("p", (2,))) == 2
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            assert hall_inner(sym("p", lam), sym("p", mu)) == (
                z_factor(lam) if lam == mu else 0
            )
            assert hall_inner(sym("m", lam), sym("h", mu)) == (1 if lam == mu else 0)


def test_schur_orthonormal():
    for deg in range(0, 7):
        for lam in partitions_of(deg):
            for mu in partitions_of(deg):
                assert hall_inner(sym("s", lam), sym("s", mu)) == (1 if lam == mu else 0)


def test_coproduct_anchors():
    assert coproduct(sym("p", ())).dict() == {((), ()): 1}
    d = coproduct(sym("h", (2,)), bases=("h", "h")).dict()
    assert d == {((2,), ()): 1, ((), (2,)): 1, ((1,), (1,)): 1}


def test_coproduct_dual_to_product():
    # <Delta f, g (x) h> = <f, g h> on basis elements of degree <= 5
    rng = random.Random(11)
    for _ in range(60):
        b1, b2, b3 = (rng.choice(BASES) for _ in range(3))
        lam = rng.choice([(3, 1), (2, 2), (4,), (2, 1), (1, 1, 1), (5,)])
        g_lam = rng.choice([(2,), (1, 1), (2, 1), (1,), ()])
        h_lam = rng.choice([(2,), (1,), (1, 1), ()])
        f, g, h = sym(b1, lam), sym(b2, g_lam), sym(b3, h_lam)
        lhs = Fraction(0)
        for (a, b), c in coproduct(f).coeffs:
            lhs += c * hall_inner(sym("p", a), g) * hall_inner(sym("p", b), h)
        assert lhs == hall_inner(f, multiply(g, h))


def test_monomial_coproduct_equals_the_power_sum_route():
    # Delta(m_lam) = sum m_a (x) m_b over the multiset splits of lam's parts
    assert coproduct(sym("m", (2, 1, 1)), bases=("m", "m")).dict() == {
        ((2, 1, 1), ()): 1, ((2, 1), (1,)): 1, ((2,), (1, 1)): 1,
        ((1, 1), (2,)): 1, ((1,), (2, 1)): 1, ((), (2, 1, 1)): 1,
    }
    for deg in range(0, 11):
        for lam in partitions_of(deg):
            f = sym("m", lam)
            assert coproduct(f, bases=("m", "m")) == coproduct(f).to(("m", "m")), lam
    f = SymFunc.make("m", {(3, 1): Fraction(2, 3), (2, 2): Fraction(-1, 2), (1,): Fraction(5)})
    assert coproduct(f, bases=("m", "m")) == coproduct(f).to(("m", "m"))


def test_coassociativity():
    # (Delta x id) Delta = (id x Delta) Delta on basis elements of degree <= 5
    for basis in BASES:
        for deg in range(0, 6):
            for lam in partitions_of(deg):
                inner = coproduct(sym(basis, lam))
                left = {}
                right = {}
                for (a, b), c in inner.coeffs:
                    for (a1, a2), c2 in coproduct(sym("p", a)).coeffs:
                        left[(a1, a2, b)] = left.get((a1, a2, b), Fraction(0)) + c * c2
                    for (b1, b2), c2 in coproduct(sym("p", b)).coeffs:
                        right[(a, b1, b2)] = right.get((a, b1, b2), Fraction(0)) + c * c2
                left = {k: v for k, v in left.items() if v}
                right = {k: v for k, v in right.items() if v}
                assert left == right, (basis, lam)


def test_symfunc_arithmetic_operators_match_multiply_and_convert():
    f = sym("m", (2, 1)) * 3 + sym("m", (1, 1, 1))
    g = sym("p", (2, 1))
    g_m = convert(g, "m")
    total = f + g  # across bases: the right summand is converted to the left basis
    assert total.basis == "m"
    assert total == SymFunc.make("m", {lam: f[lam] + g_m[lam] for lam in partitions_of(3)})
    diff = f - g
    assert diff.basis == "m"
    assert diff == SymFunc.make("m", {lam: f[lam] - g_m[lam] for lam in partitions_of(3)})
    assert (g - g).is_zero() and diff != total
    assert f * g == multiply(f, g) and g * f == multiply(g, f)
    m1 = sym("m", (1,))
    assert m1 * m1 == SymFunc.make("m", {(2,): 1, (1, 1): 2})


def test_antipode_and_omega():
    assert antipode(sym("p", (3,))) == sym("p", (3,)) * -1
    assert antipode(sym("h", (2, 1))) == sym("e", (2, 1)) * -1
    assert omega(sym("p", (2,))) == sym("p", (2,)) * -1
    assert omega(sym("p", (3,))) == sym("p", (3,))
    # S(m_21) = m_21 + 2 m_3: the arrangements 21 and 12 both merge to 3
    assert antipode(sym("m", (2, 1))).dict() == {(2, 1): 1, (3,): 2}
    assert omega(sym("m", (1, 1))).dict() == {(2,): 1, (1, 1): 1}
    assert antipode(sym("m", ())) == sym("m", ())
    for deg in range(0, 7):
        for lam in partitions_of(deg):
            for basis in ("h", "m"):
                f = sym(basis, lam)
                assert omega(omega(f)) == f
                assert antipode(antipode(f)) == f
                assert hall_inner(omega(f), omega(sym("s", lam))) == hall_inner(f, sym("s", lam))
    for lam in partitions_of(15):
        f = sym("m", lam)
        s_f = antipode(f)
        assert s_f.basis == "m" and antipode(s_f) == f
        assert omega(f) == s_f * -1


# -- theta / psi and the skew functions ----------------------------------------


def _theta_set_oracle(lam, mu):
    k = max(len(lam), len(mu))
    lam_p = tuple(lam) + (0,) * (k - len(lam))
    count = 0
    for alpha in distinct_permutations(tuple(mu) + (0,) * (k - len(mu))):
        if all(a <= l for a, l in zip(alpha, lam_p)):
            count += 1
    return count


def _psi_set_oracle(lam, mu):
    k = max(len(lam), len(mu))
    lam_p = tuple(lam) + (0,) * (k - len(lam))
    count = 0
    for alpha in distinct_permutations(tuple(mu) + (0,) * (k - len(mu))):
        if all(l - a in (0, 1) for a, l in zip(alpha, lam_p)):
            count += 1
    return count


def test_theta_psi_flat_vs_set_cardinalities():
    for m in range(0, 8):
        for lam in partitions_of(m):
            for mm in range(0, m + 1):
                for mu in partitions_of(mm):
                    assert theta_flat(lam, mu) == _theta_set_oracle(lam, mu), (lam, mu)
                    assert psi_flat(lam, mu) == _psi_set_oracle(lam, mu), (lam, mu)


def test_theta_anchors():
    assert theta_flat((2, 1), (2, 1)) == 1
    assert theta_flat((2, 1), (1,)) == 2
    assert theta_flat((1,), (2,)) == 0  # mu not contained in lam


def test_skew_h_routes():
    # f-coefficient route vs the RPP route for all |lam| <= 6
    for m in range(0, 7):
        for lam in partitions_of(m):
            assert skew_h(lam, ()) == convert(sym("h", lam), "m")
            assert skew_e(lam, ()) == convert(sym("e", lam), "m")
            for mm in range(0, m):
                for mu in partitions_of(mm):
                    via_rpp = skew_h(lam, mu)
                    via_f = SymFunc.make("m", {})
                    for nu in partitions_of(m - mm):
                        coef = Fraction(0)
                        prod = convert(multiply(sym("m", mu), sym("h", nu)), "m")
                        coef = prod[lam]
                        if coef:
                            via_f = via_f + sym("m", nu) * coef
                    assert via_rpp == via_f, (lam, mu)
    # inputs are normalised; negative parts raise; a mu that does not fit under
    # lam, wider (mu_1 > lam_1) or longer (length(mu) > length(lam)), gives zero
    for f in (skew_h, skew_e):
        assert f((1, 3, 0, 2), (0, 1)).coeffs == f((3, 2, 1), (1,)).coeffs
        for lam, mu in [((2, -1), ()), ((2,), (1, -1))]:
            with pytest.raises(ValueError, match="negative part"):
                f(lam, mu)
        for lam, mu in [((2, 2), (3,)), ((1,), (2,)), ((3,), (1, 1)), ((4,), (3, 1))]:
            assert f(lam, mu).is_zero(), (f, lam, mu)
        assert f((), ()).coeffs == (((), Fraction(1)),)


def test_skew_e_antipode_relation():
    for m in range(0, 6):
        for lam in partitions_of(m):
            for mm in range(0, m + 1):
                for mu in partitions_of(mm):
                    deg = m - mm
                    lhs = skew_e(lam, mu)
                    rhs = antipode(skew_h(lam, mu)) * (-1 if deg % 2 else 1)
                    assert lhs == convert(rhs, "m"), (lam, mu)


# -- adjacent column tableaux ---------------------------------------------------


def test_act_example_from_worked_figures():
    lam, mu, alpha = (5, 5, 3, 2), (3, 2, 1, 1), (2, 2, 3, 1)
    assert _skew_weight(lam, mu, alpha, act_phi_flat) == 12


def test_act_phi_values_multiset():
    # the four fillings carry weights 2, 2, 4, 4; recover them by splitting on
    # the first layer
    lam, mu, alpha = (5, 5, 3, 2), (3, 2, 1, 1), (2, 2, 3, 1)
    weights = []

    def rec(cur, level, acc):
        if level == len(alpha):
            if cur == lam:
                weights.append(acc)
            return
        r = alpha[level]
        for nxt in partitions_of(size(cur) + r, max_len=len(lam)):
            w = act_phi_flat(nxt, cur)
            if w and all(
                (nxt[i] if i < len(nxt) else 0) <= (lam[i] if i < len(lam) else 0)
                for i in range(len(nxt))
            ):
                rec(nxt, level + 1, acc * w)

    rec(mu, 0, 1)
    assert sorted(weights) == [2, 2, 4, 4]


def test_varphi_r_matrix_identity():
    # phi_{lam/mu}(nu) = sum_sigma R_{nu sigma} f_{sigma mu}^lam for |lam| <= 5
    for m in range(1, 6):
        for lam in partitions_of(m):
            for mm in range(0, m):
                for mu in partitions_of(mm):
                    for nu in partitions_of(m - mm):
                        lhs = _skew_weight(lam, mu, nu, act_phi_flat)
                        rhs = Fraction(0)
                        for sigma, r_coef in p_to_m_row(nu).items():
                            prod = convert(multiply(sym("m", sigma), sym("m", mu)), "m")
                            rhs += r_coef * prod[lam]
                        assert lhs == rhs, (lam, mu, nu)


def test_phi_flat_trivial():
    assert act_phi_flat((2, 1), (2, 1)) == 1
    assert act_phi_flat((3, 1), (2, 1)) == 1  # a single box is a strip
    assert act_phi_flat((3, 1, 1), (2, 1)) == 0  # boxes in columns 1 and 3


# -- characters ------------------------------------------------------------------


def test_character_anchors():
    assert mn_character((2, 1), (1, 1, 1)) == 2
    for m in range(1, 7):
        for mu in partitions_of(m):
            assert mn_character((m,), mu) == 1
            assert mn_character((1,) * m, mu) == sign_character(mu)


def test_character_jacobi_trudi_consistency():
    # s_lam via the h-determinant matches the character expansion
    for m in range(1, 7):
        for lam in partitions_of(m):
            ell = len(lam)
            det = SymFunc.make("p", {})
            for perm in permutations(range(ell)):
                inv = sum(
                    1 for i in range(ell) for j in range(i + 1, ell) if perm[i] > perm[j]
                )
                entries = [lam[i] - i - 1 + (perm[i] + 1) for i in range(ell)]
                if any(e < 0 for e in entries):
                    continue
                term = sym("h", tuple(sorted((e for e in entries if e), reverse=True)))
                det = det + convert(term, "p") * (-1 if inv % 2 else 1)
            assert det == convert(sym("s", lam), "p"), lam


# -- straightening and raising operators -----------------------------------------


def test_straightening_rules():
    assert schur_straighten((1, 2)) is None
    assert schur_straighten((0, 2)) == (-1, (1, 1))
    assert schur_straighten((3, 1)) == (1, (3, 1))
    assert schur_straighten((1, 3)) == (-1, (2, 2))
    assert schur_straighten((0, 0)) == (1, ())
    assert schur_straighten((2, 2, -1)) is None


def _straighten_by_exchange(v):
    """The exchange rule (..., a, b, ...) -> -(..., b-1, a+1, ...), one
    adjacent step at a time until the sequence is weakly decreasing."""
    v = list(v)
    sign = 1
    while True:
        pos = next((i for i in range(len(v) - 1) if v[i] < v[i + 1]), None)
        if pos is None:
            while v and v[-1] == 0:
                v.pop()
            return None if any(x < 0 for x in v) else (sign, tuple(v))
        a, b = v[pos], v[pos + 1]
        if b == a + 1:
            return None
        v[pos], v[pos + 1] = b - 1, a + 1
        sign = -sign


def test_straightening_equals_the_exchange_rule_exhaustively():
    for ell in range(6):
        for v in product(range(-2, 7), repeat=ell):
            assert schur_straighten(v) == _straighten_by_exchange(v), v


def test_monomial_in_schur():
    assert monomial_in_schur((1,)) == sym("s", (1,))
    assert monomial_in_schur((2, 1)).dict() == {(2, 1): 1, (1, 1, 1): -2}
    for m in range(0, 7):
        for lam in partitions_of(m):
            assert monomial_in_schur(lam) == convert(sym("m", lam), "s"), lam


# -- transition matrices -----------------------------------------------------------


def _nmatrix_count(rows, cols, zero_one=False):
    """Matrices with given row and column sums, entries in N or {0,1}."""
    rows, cols = list(rows), list(cols)
    if sum(rows) != sum(cols):
        return 0
    if not rows:
        return 1 if not any(cols) else 0

    def rec(i, remaining_cols):
        if i == len(rows):
            return 1 if not any(remaining_cols) else 0
        total = 0

        def fill(j, left, cols_state):
            nonlocal total
            if j == len(cols_state):
                if left == 0:
                    total += rec(i + 1, cols_state)
                return
            top = min(left, cols_state[j], 1 if zero_one else left)
            for v in range(0, top + 1):
                nxt = list(cols_state)
                nxt[j] -= v
                fill(j + 1, left - v, nxt)

        fill(0, rows[i], list(remaining_cols))
        return total

    return rec(0, cols)


def _ordered_set_partition_count(lam, mu):
    """Ordered set partitions (B_1..B_len(mu)) of [len(lam)] with block sums mu."""
    lam = list(lam)
    idx = list(range(len(lam)))

    def rec(j, remaining):
        if j == len(mu):
            return 1 if not remaining else 0
        total = 0
        from itertools import combinations

        for r in range(0, len(remaining) + 1):
            for block in combinations(remaining, r):
                if sum(lam[i] for i in block) == mu[j]:
                    rest = tuple(x for x in remaining if x not in block)
                    total += rec(j + 1, rest)
        return total

    return rec(0, tuple(idx))


def test_transition_matrix_identities():
    # degrees <= 6: L via conversion == RPP sum == N-matrix count, and the
    # analogous routes for M and R
    for m in range(1, 7):
        parts = list(partitions_of(m))
        for lam in parts:
            h_exp = convert(sym("h", lam), "m")
            e_exp = convert(sym("e", lam), "m")
            p_exp = p_to_m_row(lam)
            for mu in parts:
                L = h_exp[mu]
                assert L == _skew_weight(mu, (), lam, theta_flat), (lam, mu)
                assert L == _nmatrix_count(lam, mu), (lam, mu)
                M = e_exp[mu]
                assert M == _skew_weight(mu, (), lam, psi_flat), (lam, mu)
                assert M == _nmatrix_count(lam, mu, zero_one=True), (lam, mu)
                R = p_exp.get(mu, 0)
                assert R == _skew_weight(mu, (), lam, act_phi_flat), (lam, mu)
                assert R == _ordered_set_partition_count(lam, mu), (lam, mu)


def test_weight_sum_symmetry_under_composition_reordering():
    lam, mu = (3, 2, 1), (2, 1)
    for nu in partitions_of(3):
        base = _skew_weight(lam, mu, nu, theta_flat)
        for beta in set(permutations(nu)):
            assert _skew_weight(lam, mu, beta, theta_flat) == base


# -- serialisation -------------------------------------------------------------------


def test_symfunc_json_roundtrip():
    f = convert(multiply(sym("s", (2, 1)), sym("h", (1,))), "m") * Fraction(3, 2)
    text = f.to_json()
    data = json.loads(text)
    assert data["basis"] == "m"
    assert all(set(t) == {"partition", "num", "den"} for t in data["terms"])
    assert SymFunc.from_json(text) == f


# -- hashing ------------------------------------------------------------------
SMALL_PARTITIONS = [lam for m in range(4) for lam in partitions_of(m)]
small_coeffs = st.dictionaries(
    st.sampled_from(SMALL_PARTITIONS),
    st.fractions(max_denominator=4).filter(lambda c: abs(c.numerator) < 20),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BASES), st.sampled_from(BASES), small_coeffs)
def test_equal_symfuncs_hash_equal(b1, b2, coeffs):
    f = SymFunc.make(b1, coeffs)
    g = convert(f, b2)
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.sampled_from(BASES), st.sampled_from(BASES)),
    st.tuples(st.sampled_from(BASES), st.sampled_from(BASES)),
    st.dictionaries(
        st.tuples(st.sampled_from(SMALL_PARTITIONS), st.sampled_from(SMALL_PARTITIONS)),
        st.integers(-5, 5),
        max_size=3,
    ),
)
def test_equal_tensors_hash_equal(bases1, bases2, coeffs):
    t = TensorSymFunc.make(bases1, {key: Fraction(c) for key, c in coeffs.items()})
    u = t.to(bases2)
    assert t == u
    assert hash(t) == hash(u)


def test_monomial_hash_and_equality_skip_the_power_sum_solve(monkeypatch):
    """Hashing and comparing monomial expansions pivot through m, so the
    Fraction solve m -> p is never reached, even at degree 15."""

    def refuse(deg):
        raise AssertionError(f"power-sum solve at degree {deg}")

    f = antipode(sym("m", (3, 3, 3, 3, 3)))
    monkeypatch.setattr(symfunc, "_m_to_p_solved", refuse)
    g = SymFunc.make("m", f.dict())
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    p15 = sym("p", (5, 5, 5))
    assert p15 == p15.to("m") and hash(p15) == hash(p15.to("m"))
    assert f != p15
    t = tensor(f, p15.to("m"))
    u = TensorSymFunc.make(("m", "m"), t.dict())
    assert t == u and hash(t) == hash(u)
    assert tensor(sym("p", (3,)), p15) == tensor(sym("p", (3,)).to("m"), p15.to("m"))


PARTITIONS_TO_10 = [lam for m in range(11) for lam in partitions_of(m)]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(PARTITIONS_TO_10),
        st.builds(Fraction, st.integers(-49, 49), st.integers(1, 12)),
        max_size=6,
    )
)
def test_monomial_antipode_matches_power_sum_route(coeffs):
    f = SymFunc.make("m", coeffs)
    assert antipode(f).coeffs == antipode(f.to("p")).to("m").coeffs
    assert omega(f).coeffs == omega(f.to("p")).to("m").coeffs


def test_every_antipode_row_to_degree_10_matches_the_power_sum_route():
    for lam in PARTITIONS_TO_10:
        sign = -1 if len(lam) % 2 else 1
        row = SymFunc.make("m", {mu: sign * c for mu, c in symfunc._m_antipode_row(lam)})
        assert row == antipode(sym("m", lam).to("p")).to("m"), lam


def test_antipode_rows_share_one_tuple_per_partition():
    # S(m_31) and S(m_211) both reach m_4 and m_31
    left, right = dict(symfunc._m_antipode_row((3, 1))), symfunc._m_antipode_row((2, 1, 1))
    shared = [mu for mu, _ in right if mu in left]
    assert {(4,), (3, 1)} <= set(shared)
    keys = {mu: mu for mu in left}
    assert all(keys[mu] is mu for mu in shared)
