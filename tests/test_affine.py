import itertools
import random

import pytest

from cylsym.affine import (
    CylindricLoop,
    CylindricShape,
    ExtAffinePerm,
    act_on_loop,
    act_on_weight,
    generators,
    is_valid_shape,
    loop_from_window,
    shifted_act,
    shifted_reduce,
    sigma,
    tau_power,
)
from cylsym.partitions import (
    AlcoveWeight,
    BoxedPartition,
    enumerate_alcove,
    enumerate_boxed,
    n_core,
    partitions_of,
    reduce_to_alcove,
    staircase,
)
from cylsym.symfunc import schur_straighten


def random_perm(rng, k, steps=6):
    w = tau_power(k, 0)
    gens = generators(k)
    for _ in range(rng.randrange(0, steps + 1)):
        w = w.compose(rng.choice(gens))
    return w


def test_window_validation():
    assert tau_power(3, 0).window == (1, 2, 3)
    assert tau_power(3, 1).window == (0, 1, 2)
    with pytest.raises(ValueError, match="residues"):
        ExtAffinePerm((1, 4, 3))
    # distinct residues force the window-sum congruence, so every window that
    # passes the first invariant satisfies the second; spot-check it holds
    rng = random.Random(0)
    for k in (2, 3, 4):
        for _ in range(20):
            w = random_perm(rng, k)
            assert sum(w.window) % k == (k * (k + 1) // 2) % k


def test_compose_inverse_group_laws():
    rng = random.Random(4)
    for k in (2, 3):
        tau = tau_power(k, 1)
        assert tau.compose(tau.inverse()).window == tau_power(k, 0).window
        for _ in range(50):
            u, v, w = (random_perm(rng, k) for _ in range(3))
            assert u.compose(v).compose(w).window == u.compose(v.compose(w)).window
            inv = u.inverse()
            assert u.compose(inv).window == tau_power(k, 0).window
            assert inv.compose(u).window == tau_power(k, 0).window


def test_tau_braid_relation():
    # tau . sigma_{i+1} = sigma_i . tau, indices modulo k
    for k in (2, 3, 4):
        tau = tau_power(k, 1)
        for i in range(k):
            left = tau.compose(sigma(k, i + 1))
            right = sigma(k, i).compose(tau)
            assert left.window == right.window


def test_level_action_basics():
    lam = AlcoveWeight((2, 1, 1), 3, 3)
    assert act_on_weight(lam.parts, tau_power(3, 0), 3) == lam.parts
    moved = act_on_weight(lam.parts, tau_power(3, 1), 3)
    assert moved[0] == lam.parts[2] + 3


def test_level_action_is_right_action():
    rng = random.Random(5)
    n, k = 3, 3
    alcove = enumerate_alcove(n, k)
    for _ in range(100):
        lam = rng.choice(alcove)
        u, v = random_perm(rng, k), random_perm(rng, k)
        one_step = act_on_weight(lam.parts, u.compose(v), n)
        two_step = act_on_weight(act_on_weight(lam.parts, u, n), v, n)
        assert one_step == two_step


def test_fundamental_domain():
    n, k = 3, 2
    gens = generators(k)
    frontier = {tau_power(k, 0).window}
    seen = set(frontier)
    for _ in range(6):
        nxt = set()
        for w in frontier:
            for g in gens:
                nw = ExtAffinePerm(w).compose(g).window
                if nw not in seen:
                    seen.add(nw)
                    nxt.add(nw)
        frontier = nxt
    for lam in enumerate_alcove(n, k):
        for window in seen:
            moved = act_on_weight(lam.parts, ExtAffinePerm(window), n)
            rep, d = reduce_to_alcove(moved, n, k)
            assert rep == lam
            assert n * d + lam.size == sum(moved)


def test_loop_normalisation_roundtrip():
    rng = random.Random(6)
    for n, k in [(3, 2), (4, 3)]:
        for lam in enumerate_alcove(n, k):
            for d in range(-3, 4):
                loop = CylindricLoop(lam, d)
                back = loop_from_window(loop.window(), n)
                assert back.base == lam and back.offset == d
                # loops compose with powers of the shift
                shifted = act_on_loop(loop, tau_power(k, 2))
                assert shifted.base == lam and shifted.offset == d + 2


def test_shape_validity():
    lam = AlcoveWeight((4, 3, 2), 4, 3)
    mu = AlcoveWeight((2, 2, 1), 4, 3)
    assert is_valid_shape(lam, 1, mu)
    # d = 0 is plain containment
    for a in enumerate_alcove(4, 3):
        for b in enumerate_alcove(4, 3):
            contains = all(x >= y for x, y in zip(a.parts, b.parts))
            assert is_valid_shape(a, 0, b) == contains
    # large degree always valid
    assert is_valid_shape(mu, 5, lam)


def test_shape_vee_duality():
    for n, k in [(3, 2), (4, 3)]:
        for a in enumerate_alcove(n, k):
            for b in enumerate_alcove(n, k):
                for d in range(3):
                    assert is_valid_shape(a, d, b) == is_valid_shape(b.vee(), d, a.vee())


def test_shape_cell_bookkeeping():
    lam = AlcoveWeight((4, 3, 2), 4, 3)
    mu = AlcoveWeight((2, 2, 1), 4, 3)
    shape = CylindricShape(lam, 1, mu)
    assert shape.cell_count() == lam.size + 4 - mu.size
    assert sum(shape.row_counts()) == shape.cell_count()
    assert len(shape.cells()) == shape.cell_count()


def test_shifted_action_tau_adds_circular_ribbon():
    mu = BoxedPartition((2, 2), 5, 2)
    moved = shifted_act(mu, tau_power(2, 1))
    assert sum(moved) == mu.size + 5
    # identity fixes everything
    for b in enumerate_boxed(5, 2):
        assert shifted_act(b, tau_power(2, 0)) == b.padded()


def test_shifted_fundamental_domain_window():
    n, k = 4, 2
    rho = staircase(k)
    boxed = enumerate_boxed(n, k)
    for v0 in range(-2 * n, 2 * n + 1):
        for v1 in range(-2 * n, 2 * n + 1):
            w = (v0, v1)
            rep = shifted_reduce(w, n, k)
            shifted = [x + r for x, r in zip(w, rho)]
            degenerate = len({s % n for s in shifted}) < k
            if degenerate:
                assert rep is None
                continue
            nu, d, sign = rep
            assert nu in boxed
            assert sum(w) == nu.size + n * d
            assert sign in (1, -1)
            # reduction is constant along orbits: applying any generator first
            # does not change the representative
            for g in generators(k):
                moved = shifted_act(BoxedPartition(nu.parts, n, k), g)
                assert shifted_reduce(moved, n, k)[0] == nu
    # each boxed partition is its own representative
    for b in boxed:
        assert shifted_reduce(b.padded(), n, k) == (b, 0, 1)


def _straighten_then_core(values, n, k):
    """The two-step reduction: straighten, strip n-rim hooks, keep cores in the box."""
    term = schur_straighten(values)
    if term is None:
        return None
    sign, sigma_ = term
    core, weight, parity = n_core(sigma_, n)
    if core and core[0] > n - k:
        return None
    if (k * weight - parity) % 2:
        sign = -sign
    return core, weight, sign


def _bead_reduction(values, n, k):
    term = shifted_reduce(values, n, k)
    return None if term is None else (term[0].parts, term[1], term[2])


def test_shifted_reduce_equals_straighten_then_core():
    for n in range(2, 8):
        for k in range(1, min(3, n - 1) + 1):
            for values in itertools.product(range(2 * n + 1), repeat=k):
                assert _bead_reduction(values, n, k) == _straighten_then_core(
                    values, n, k
                ), (values, n, k)
    count = 0
    for n in range(2, 9):
        for k in range(1, n):
            for m in range(13):
                for lam in partitions_of(m, max_len=k):
                    values = lam + (0,) * (k - len(lam))
                    assert _bead_reduction(values, n, k) == _straighten_then_core(
                        values, n, k
                    ), (lam, n, k)
                    count += 1
    assert count == 2806
