import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest

from cylsym.affine import is_valid_shape
from cylsym.cylindric import (
    KINDS,
    Crpp,
    PackedAntipode,
    _compositions,
    _expansions,
    _weight,
    antipode_check,
    coproduct_cyl_check,
    coproduct_holds,
    cyl_e,
    cyl_h,
    cyl_h_in_h,
    cyl_p_expand,
    enumerate_crpp,
    nonskew_cyl_h,
    oracle_rows,
    phi_cyl,
    phi_cyl_oracle,
    psi_cyl,
    skew_e,
    skew_h,
    theta_cyl,
    theta_weight,
)
from cylsym.fusion import fusion_count
from cylsym.partitions import (
    AlcoveWeight,
    distinct_permutations,
    enumerate_alcove,
    multiplicity,
    partitions_of,
    stab_order,
)
from cylsym.symfunc import SymFunc, convert, sym

from oracles import cyl_in_nonskew, psi_flat, theta_flat

A43 = AlcoveWeight


def test_theta_hand_anchors():
    one = AlcoveWeight((1,), 2, 1)
    assert theta_cyl(one, 1, one) == 1
    a = AlcoveWeight((2, 1), 2, 2)
    assert theta_cyl(a, 1, a) == 3


def test_theta_reduces_to_flat_at_degree_zero():
    for n, k in [(3, 2), (4, 3)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                assert theta_cyl(lam, 0, mu) == theta_flat(lam.parts, mu.parts)
                assert psi_cyl(lam, 0, mu) == psi_flat(lam.parts, mu.parts)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (4, 3)])
def test_formula_vs_oracle(n, k):
    for lam in enumerate_alcove(n, k):
        for mu in enumerate_alcove(n, k):
            for d in range(0, 4):
                assert theta_cyl(lam, d, mu) == oracle_rows(lam, mu, d)[0][d]
                assert psi_cyl(lam, d, mu) == oracle_rows(lam, mu, d)[1][d]
                assert phi_cyl(lam, d, mu) == phi_cyl_oracle(lam, d, mu)


def theta_reference(lam, d, mu):
    """Brute count of pairs (w, beta): mu.w <= lam + n*beta, beta >= 0, |beta| = d."""
    n, k = lam.n, lam.k
    count = 0
    for alpha in distinct_permutations(mu.parts):
        for beta in _compositions(d, k):
            if all(a <= l + n * b for a, l, b in zip(alpha, lam.parts, beta)):
                count += 1
    return count


def psi_reference(lam, d, mu):
    """Brute count of (w, alpha) with lam - mu.w + n*alpha having all entries 0 or 1."""
    n, k = lam.n, lam.k
    count = 0
    for perm in distinct_permutations(mu.parts):
        for alpha in _compositions(d, k):
            if all(l - p + n * a in (0, 1) for l, p, a in zip(lam.parts, perm, alpha)):
                count += 1
    return count


@pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (3, 4), (6, 2), (2, 5)])
def test_oracle_rows_equal_the_nested_loops(n, k):
    for lam in enumerate_alcove(n, k):
        for mu in enumerate_alcove(n, k):
            theta = [theta_reference(lam, d, mu) for d in range(5)]
            psi = [psi_reference(lam, d, mu) for d in range(5)]
            assert oracle_rows(lam, mu, 4) == (theta, psi), (lam, mu)
            assert oracle_rows(lam, mu, 2)[0][2] == theta[2] and oracle_rows(lam, mu, 2)[1][2] == psi[2]


def test_theta_vanishes_iff_invalid():
    for n, k in [(3, 2), (4, 3)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                for d in range(0, 3):
                    assert (theta_cyl(lam, d, mu) > 0) == is_valid_shape(lam, d, mu)


def test_psi_vanishes_on_non_vertical_strips():
    lam = AlcoveWeight((2, 2), 2, 2)
    mu = AlcoveWeight((1, 1), 2, 2)
    # d = 0 adds one box per row, d = 1 would need three boxes in the top row
    assert psi_cyl(lam, 0, mu) == 1
    assert psi_cyl(lam, 1, mu) == 0
    a = AlcoveWeight((2, 1), 2, 2)
    b = AlcoveWeight((2, 2), 2, 2)
    assert psi_cyl(a, 1, b) == oracle_rows(a, b, 1)[1][1] == 1


def test_phi_figure_anchors():
    lam = AlcoveWeight((2, 1, 1), 4, 3)
    mu = AlcoveWeight((2, 2, 1), 4, 3)
    nu = AlcoveWeight((4, 2, 1), 4, 3)
    assert phi_cyl(lam, 1, mu) == 2
    assert phi_cyl(nu, 1, mu) == 1
    # pure winding: r a multiple of n needs lam = mu, weight k
    for a in enumerate_alcove(4, 3):
        assert phi_cyl(a, 1, a) == 3


def test_one_step_vee_duality():
    for n, k in [(3, 2), (4, 3)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                for d in range(3):
                    assert stab_order(mu.parts) * theta_cyl(lam, d, mu) == stab_order(
                        lam.parts
                    ) * theta_cyl(mu.vee(), d, lam.vee())


# -- weighted sums ------------------------------------------------------------


def test_weight_degree_law():
    rng = random.Random(12)
    A = enumerate_alcove(3, 2)
    for _ in range(50):
        lam, mu = rng.choice(A), rng.choice(A)
        d = rng.randrange(0, 3)
        deg = lam.size - mu.size + 3 * d
        for wrong in (deg - 1, deg + 1, deg + 3):
            if wrong >= 0:
                for nu in partitions_of(wrong):
                    assert theta_weight(lam, d, mu, nu) == 0


def test_weight_permutation_invariance():
    A = enumerate_alcove(4, 3)
    lam, mu = A43((4, 3, 2), 4, 3), A43((2, 2, 1), 4, 3)
    for nu in [(4, 3, 1), (3, 3, 2), (5, 2, 1)]:
        base = theta_weight(lam, 1, mu, nu)
        for beta in set(permutations(nu)):
            assert theta_weight(lam, 1, mu, beta) == base


def test_matrix_route_identities():
    # theta(nu) = sum_sigma L_{nu sigma} N_{sigma mu}^lam and the psi analogue
    for n, k in [(2, 2), (3, 2)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                for d in range(0, 2):
                    deg = lam.size - mu.size + n * d
                    if deg < 0:
                        continue
                    for nu in partitions_of(deg):
                        h_row = convert(sym("h", nu), "m")
                        e_row = convert(sym("e", nu), "m")
                        theta_rhs = Fraction(0)
                        psi_rhs = Fraction(0)
                        for sigma in partitions_of(deg, max_len=k):
                            c = fusion_count(lam.parts, mu.parts, sigma, n, k)
                            if c:
                                theta_rhs += h_row[sigma] * c
                                psi_rhs += e_row[sigma] * c
                        assert theta_weight(lam, d, mu, nu) == theta_rhs, (lam, d, mu, nu)
                        assert _weight(lam, d, mu, nu, "row-strict") == psi_rhs, (lam, d, mu, nu)


# -- the cylindric h and e functions --------------------------------------------


def test_cyl_h_degree_zero_is_skew():
    for n, k in [(3, 2), (4, 2)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                assert cyl_h(lam, 0, mu) == skew_h(lam.parts, mu.parts)
                assert cyl_e(lam, 0, mu) == skew_e(lam.parts, mu.parts)


def test_cyl_h_homogeneous():
    lam = A43((4, 3, 2), 4, 3)
    mu = A43((2, 2, 1), 4, 3)
    f = cyl_h(lam, 1, mu)
    assert f.degrees() == {lam.size - mu.size + 4}


def test_cyl_h_two_routes():
    for n, k in [(2, 2), (3, 2)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                for d in range(0, 3):
                    assert cyl_h(lam, d, mu) == convert(cyl_h_in_h(lam, d, mu), "m")
                    e_in_e = SymFunc.make("e", dict(cyl_h_in_h(lam, d, mu).coeffs))
                    assert cyl_e(lam, d, mu) == convert(e_in_e, "m")


def test_cyl_h_in_h_nonskew_shift():
    # h_{lam/d+k/n^k} = h_{lam/d/empty}: expansion over the orbit
    n, k = 3, 2
    unit = AlcoveWeight((n,) * k, n, k)
    for lam in enumerate_alcove(n, k):
        for d in range(0, 2):
            lhs = cyl_h_in_h(lam, d + k, unit)
            rhs = nonskew_cyl_h(lam, d)
            assert lhs == rhs, (lam, d)


def test_cyl_p_route():
    for n, k in [(3, 2)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                for d in range(0, 3):
                    assert convert(cyl_p_expand(lam, d, mu, "h"), "m") == cyl_h(lam, d, mu)
                    assert convert(cyl_p_expand(lam, d, mu, "e"), "m") == cyl_e(lam, d, mu)


def test_phi_shift_identity():
    # phi(lam, d, mu, nu with nu_1 > n) = phi(lam, d-1, mu, nu_1 - n, ...);
    # the inequality is strict: at nu_1 = n the reduced layer degenerates to
    # the weight-k circular case rather than dropping out
    A = enumerate_alcove(3, 2)
    for lam in A:
        for mu in A:
            for d in (1, 2):
                deg = lam.size - mu.size + 3 * d
                for nu in partitions_of(deg):
                    if nu and nu[0] > 3:
                        reduced = tuple(
                            sorted([nu[0] - 3] + list(nu[1:]), reverse=True)
                        )
                        assert _weight(lam, d, mu, nu, "adjacent-column") == _weight(
                            lam, d - 1, mu, reduced, "adjacent-column"
                        ), (lam, d, mu, nu)


def test_antipode_intertwines():
    for n, k in [(3, 2)]:
        for lam in enumerate_alcove(n, k):
            for mu in enumerate_alcove(n, k):
                for d in range(0, 2):
                    assert antipode_check(lam, d, mu)


def test_packed_antipode_names_exactly_the_corrupted_pair():
    n, k = 4, 2
    A = enumerate_alcove(n, k)
    target, rho = (A[3], A[2]), (2, 1, 1)  # (3,1)/1/(2,2): one of 16 pairs of degree 4
    packed = PackedAntipode()
    for mu in A:
        hs = _expansions(mu, [(lam, 1) for lam in A], "general")
        es = _expansions(mu, [(lam, 1) for lam in A], "row-strict")
        for lam in A:
            e = dict(es[(lam, 1)])
            if (lam, mu) == target:
                assert rho in e
                e[rho] += 1
            packed.add((lam, mu), lam.size - mu.size + n, hs[(lam, 1)], e)
    assert packed.failing() == {target}


def test_function_vee_duality():
    for lam in enumerate_alcove(4, 3):
        for mu in enumerate_alcove(4, 3):
            for d in range(0, 2):
                sh = cyl_h(lam, d, mu) * stab_order(mu.parts)
                dual = cyl_h(mu.vee(), d, lam.vee()) * stab_order(lam.parts)
                assert sh == dual
                se = cyl_e(lam, d, mu) * stab_order(mu.parts)
                dual_e = cyl_e(mu.vee(), d, lam.vee()) * stab_order(lam.parts)
                assert se == dual_e


def test_coproduct_identity():
    A = enumerate_alcove(3, 2)
    for lam in A:
        for mu in A:
            assert coproduct_cyl_check(lam, 0, mu)
            assert coproduct_cyl_check(lam, 1, mu)
    assert coproduct_cyl_check(A[0], 1, A[0], kind="e")


def test_coproduct_fails_on_a_right_factor_off_by_one():
    n, k = 3, 2
    A = enumerate_alcove(n, k)
    lam, mu = A[-1], A[0]
    right = _expansions(mu, [(nu, d2) for d2 in (0, 1) for nu in A], "general")
    left = lambda d1, nu: _expansions(nu, [(lam, d1)], "general")[(lam, d1)]
    assert coproduct_holds(lam, 1, right, left)
    # one m-term of the right factor at (nu, 0), nu != lam, whose left factor is nonzero
    nu = next(nu for nu in A if nu != lam and right[(nu, 0)] and left(1, nu))
    rho = next(iter(right[(nu, 0)]))
    corrupted = dict(right)
    corrupted[(nu, 0)] = {**right[(nu, 0)], rho: right[(nu, 0)][rho] + 1}
    assert not coproduct_holds(lam, 1, corrupted, left)


def test_nonskew_vanishing_and_integrality():
    for n, k in [(3, 2), (4, 2)]:
        for lam in enumerate_alcove(n, k):
            for d in range(-4, 3):
                f = nonskew_cyl_h(lam, d)
                if d < -multiplicity(lam.parts, n):
                    assert f.is_zero()
                else:
                    assert not f.is_zero()
                for _, c in f.coeffs:
                    assert c.denominator == 1 and c >= 1


def test_nonskew_linear_independence():
    # rank of the coefficient matrix equals the number of functions
    n, k = 3, 2
    funcs = []
    for lam in enumerate_alcove(n, k):
        for d in range(-multiplicity(lam.parts, n), 3):
            funcs.append(nonskew_cyl_h(lam, d))
    keys = sorted({key for f in funcs for key, _ in f.coeffs})
    matrix = [[f[key] for key in keys] for f in funcs]
    rank = 0
    for col in range(len(keys)):
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col] / matrix[rank][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    assert rank == len(funcs)


def test_cyl_in_nonskew():
    n, k = 3, 2
    unit = AlcoveWeight((n,) * k, n, k)
    A = enumerate_alcove(n, k)
    for lam in A:
        # delta expansion onto the unit: the unique term sits at d' = k
        table = cyl_in_nonskew(lam, 0, unit)
        deltas = {key: c for key, c in table.items() if c}
        assert deltas == {(lam, 0): 1}, (lam, deltas)
    for lam in A:
        for mu in A:
            for d in range(0, 3):
                target = convert(cyl_h_in_h(lam, d, mu), "m")
                acc = sym("m", ()) * 0
                for (sigma, e), c in cyl_in_nonskew(lam, d, mu).items():
                    assert c >= 0
                    acc = acc + convert(nonskew_cyl_h(sigma, e - k), "m") * c
                assert acc == target, (lam, d, mu)


# -- explicit CRPPs ---------------------------------------------------------------


def test_enumerate_crpp_single_row():
    lam = A43((4, 3, 2), 4, 3)
    mu = A43((2, 2, 1), 4, 3)
    out = enumerate_crpp(lam, 1, mu, weight=(8,))
    assert len(out) == 1
    assert out[0].value() == theta_cyl(lam, 1, mu)


def test_enumerate_crpp_weight_totals():
    lam = A43((4, 3, 2), 4, 3)
    mu = A43((2, 2, 1), 4, 3)
    for nu in [(4, 3, 1), (3, 3, 2), (4, 4)]:
        crpps = enumerate_crpp(lam, 1, mu, weight=nu)
        assert sum(c.value() for c in crpps) == theta_weight(lam, 1, mu, nu)
        for c in crpps:
            assert c.weight() == nu
    # row-strict variants sum to the psi weight
    for nu in [(3, 3, 2), (3, 3, 1, 1)]:
        crpps = enumerate_crpp(lam, 1, mu, weight=nu, kind="row-strict")
        assert sum(c.value() for c in crpps) == _weight(lam, 1, mu, nu, "row-strict")
    # adjacent-column variants weighted by phi sum to the phi weight, and the
    # ribbon ones are the adjacent-column ones whose loops are all strict
    ribbons_seen = 0
    strict_pair = (A43((4, 3, 1), 4, 3), A43((3, 2, 1), 4, 3))
    for outer, inner in [(lam, mu), strict_pair, (A43((4, 2, 1), 4, 3),) * 2]:
        for nu in partitions_of(outer.size - inner.size + 4):
            crpps = enumerate_crpp(outer, 1, inner, weight=nu, kind="adjacent-column")
            assert sum(c.value() for c in crpps) == _weight(outer, 1, inner, nu, "adjacent-column")
            ribbons = enumerate_crpp(outer, 1, inner, weight=nu, kind="ribbon")
            strict = [c for c in crpps if all(w.is_strict() for w, _ in c.loops)]
            assert [c.loops for c in ribbons] == [c.loops for c in strict], (outer, inner, nu)
            ribbons_seen += len(ribbons)
    assert ribbons_seen


def test_enumerate_crpp_pinned():
    """The sorted loop sequences of all four kinds, in both modes, against a
    digest of the enumeration before its walks were merged."""
    h = hashlib.sha256()
    for n, k, dmax, max_level in [(3, 2, 1, 2), (2, 2, 2, 3)]:
        A = enumerate_alcove(n, k)
        for kind in KINDS:
            for lam in A:
                for mu in A:
                    for d in range(dmax + 1):
                        deg = lam.size - mu.size + n * d
                        weights = list(partitions_of(deg))
                        weights += [w[::-1] + (0,) for w in weights]
                        runs = [{"weight": w} for w in weights] + [{"max_level": max_level}]
                        for run in runs:
                            for c in enumerate_crpp(lam, d, mu, kind=kind, **run):
                                loops = tuple((w.parts, e) for w, e in c.loops)
                                h.update(repr((kind, run, loops)).encode())
    assert h.hexdigest() == "50359c34dda66db95e2c64c714cd33b40ec3ff7665d27b7aee1ecdceee3bf7f2"


def test_unknown_kinds_rejected():
    lam = A43((4, 3, 2), 4, 3)
    mu = A43((2, 2, 1), 4, 3)
    with pytest.raises(ValueError):
        enumerate_crpp(lam, 1, mu, weight=(8,), kind="bogus")
    with pytest.raises(ValueError):
        enumerate_crpp(mu, 0, lam, max_level=1, kind="bogus")  # an empty shape too
    with pytest.raises(ValueError):
        coproduct_cyl_check(lam, 0, mu, kind="x")


def test_trivial_crpp():
    mu = A43((2, 2, 1), 4, 3)
    out = enumerate_crpp(mu, 0, mu, weight=())
    assert len(out) == 1 and out[0].weight() == ()


def test_vee_involution_figure_anchor():
    lam = A43((4, 3, 2), 4, 3)
    mu = A43((2, 2, 1), 4, 3)
    crpps = enumerate_crpp(lam, 1, mu, weight=(4, 3, 1))
    assert crpps
    for c in crpps:
        image = c.vee()
        assert image.outer.parts == (4, 3, 3)
        assert image.inner.parts == (3, 2, 1)
        assert image.degree == 1
        assert image.weight() == (1, 3, 4)
        assert image.vee() == c
        assert c.value() * stab_order(mu.parts) == image.value() * stab_order(
            lam.parts
        )


def test_vee_involution_random_shapes():
    rng = random.Random(13)
    A = enumerate_alcove(4, 3)
    count = 0
    while count < 10:
        lam, mu, d = rng.choice(A), rng.choice(A), rng.randrange(0, 2)
        deg = lam.size - mu.size + 4 * d
        if deg <= 0 or not is_valid_shape(lam, d, mu):
            continue
        count += 1
        for nu in partitions_of(deg):
            for c in enumerate_crpp(lam, d, mu, weight=nu):
                assert c.vee().vee() == c


def test_crpp_render_smoke():
    lam = A43((4, 3, 2), 4, 3)
    mu = A43((2, 2, 1), 4, 3)
    crpps = enumerate_crpp(lam, 1, mu, weight=(4, 3, 1))
    pic = crpps[0].render()
    assert len(pic.splitlines()) == 3
    assert any(ch.isdigit() for ch in pic)


def test_crpp_max_level_enumeration():
    lam = A43((2, 1), 2, 2)
    out = enumerate_crpp(lam, 1, lam, max_level=2)
    # chains of at most two nonempty layers reaching degree 1
    assert all(c.degree == 1 for c in out)
    weights = {c.weight() for c in out}
    assert (2,) in weights


def test_crpp_kind_validation():
    lam = A43((2, 2), 2, 2)
    mu = A43((1, 1), 2, 2)
    Crpp(((mu, 0), (lam, 0)), kind="row-strict")  # one box per row is fine
    with pytest.raises(ValueError):
        Crpp(((mu, 0), (lam, 1)), kind="row-strict")  # three boxes in a row
    with pytest.raises(ValueError):
        Crpp(((mu, 1), (lam, 0)), kind="general")  # offsets must increase
