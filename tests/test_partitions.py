import random
from math import comb, factorial

import pytest

from cylsym.partitions import (
    AlcoveWeight,
    BoxedPartition,
    ContextMismatchError,
    beta_numbers,
    boxed_from_strict,
    conjugate,
    enumerate_alcove,
    enumerate_boxed,
    enumerate_strict,
    format_partition,
    lawful_rows,
    n_core,
    normalize,
    parse_partition,
    partition_from_betas,
    partitions_of,
    quantum_dim,
    reduce_to_alcove,
    stab_order,
    standard_tableaux_count,
    z_factor,
)

from oracles import partitions_with_core


def test_conjugate_anchors():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    # column-count oracle
    lam = (4, 3, 2)
    cols = tuple(sum(1 for p in lam if p >= j) for j in range(1, 5))
    assert conjugate(lam) == cols == (3, 3, 2, 1)


def test_conjugate_involution_random():
    rng = random.Random(1)
    for _ in range(200):
        lam = normalize(tuple(rng.randrange(0, 9) for _ in range(rng.randrange(0, 7))))
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)


def test_z_factor():
    assert z_factor(()) == 1
    assert z_factor((1, 1, 1)) == 6
    assert z_factor((2, 1)) == 2


def test_stab_and_quantum_dim():
    assert quantum_dim((3, 3), 2) == 1
    assert quantum_dim((2, 1), 2) == 2
    assert quantum_dim((2, 2, 1), 3) == 3
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randrange(1, 6)
        lam = tuple(sorted((rng.randrange(0, 5) for _ in range(k)), reverse=True))
        assert quantum_dim(lam, k) * stab_order(lam) == factorial(k)


def test_hook_lengths():
    assert standard_tableaux_count(()) == 1
    assert standard_tableaux_count((2, 1)) == 2
    assert standard_tableaux_count((2, 2)) == 2


def test_rsk_identity():
    for m in range(1, 8):
        total = sum(standard_tableaux_count(lam) ** 2 for lam in partitions_of(m))
        assert total == factorial(m)


# -- n-cores ----------------------------------------------------------------


def _border_strips(lam, n):
    """All mu obtained from lam by removing one n-ribbon (edgewise-connected,
    no 2x2 block), found by scanning sub-partitions."""
    lam = normalize(lam)
    cells = {(i, j) for i in range(len(lam)) for j in range(lam[i])}
    out = []
    for mu in partitions_of(sum(lam) - n, max_len=len(lam)):
        if any((mu[i] if i < len(mu) else 0) > lam[i] for i in range(len(lam))):
            continue
        strip = cells - {(i, j) for i in range(len(mu)) for j in range(mu[i])}
        if len(strip) != n:
            continue
        if any((i + 1, j + 1) in strip and (i + 1, j) in strip and (i, j + 1) in strip
               for (i, j) in strip):
            continue
        # edgewise connectivity
        seen = set()
        stack = [next(iter(strip))]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            i, j = c
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in strip:
                    stack.append(nb)
        if len(seen) == len(strip):
            height = len({i for i, _ in strip})
            out.append((mu, height))
    return out


def _cores_by_removal(lam, n):
    """All (core, weight, parity) reachable by exhaustive ribbon removal."""
    results = set()

    def rec(cur, removed, parity):
        strips = _border_strips(cur, n)
        if not strips:
            results.add((cur, removed, parity))
            return
        for mu, height in strips:
            rec(mu, removed + 1, (parity + height) % 2)

    rec(normalize(lam), 0, 0)
    return results


@pytest.mark.parametrize("n", [2, 3, 4])
def test_n_core_matches_exhaustive_removal(n):
    for m in range(0, 11):
        for lam in partitions_of(m):
            reachable = _cores_by_removal(lam, n)
            assert len(reachable) == 1, (lam, n, reachable)
            assert next(iter(reachable)) == n_core(lam, n)


def _n_core_by_sliding(lam, n):
    """The bead-sliding n-core: slide any bead b -> b - n onto a free position
    until none can move, adding one plus the beads passed to the height sum."""
    occupied = set(beta_numbers(lam))
    weight = parity = 0
    moved = True
    while moved:
        moved = False
        for b in sorted(occupied):
            if b >= n and (b - n) not in occupied:
                crossed = sum(1 for x in occupied if b - n < x < b)
                parity = (parity + crossed + 1) % 2
                occupied.remove(b)
                occupied.add(b - n)
                weight += 1
                moved = True
    return partition_from_betas(occupied), weight, parity


def test_closed_form_n_core_equals_bead_sliding():
    cases = 0
    for n in range(2, 9):
        for m in range(19):
            for lam in partitions_of(m):
                assert n_core(lam, n) == _n_core_by_sliding(lam, n), (lam, n)
                cases += 1
    assert cases == 11179


def test_n_core_anchors():
    assert n_core((2, 1), 2) == ((2, 1), 0, 0)
    core, weight, parity = n_core((3, 1), 2)
    assert core == () and weight == 2 and parity == 1
    # small partitions are their own cores
    for lam in partitions_of(2):
        assert n_core(lam, 3)[0] == lam


def test_partitions_with_core():
    # (2,1) is itself a 2-core, so it does not appear in this fibre
    found = partitions_with_core((1,), 2, 1)
    assert set(found) == {(3,), (1, 1, 1)}


# -- alcoves and boxed partitions --------------------------------------------


def test_enumerations_counts():
    for n, k in [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]:
        assert len(enumerate_alcove(n, k)) == comb(n + k - 1, k)
        assert len(enumerate_strict(n, k)) == comb(n, k)
        assert len(enumerate_boxed(n, k)) == comb(n, k)
    assert [a.parts for a in enumerate_alcove(2, 2)] == [(1, 1), (2, 1), (2, 2)]
    assert [a.parts for a in enumerate_alcove(2, 1)] == [(1,), (2,)]
    assert enumerate_strict(2, 3) == ()


def test_alcove_validation():
    with pytest.raises(ValueError):
        AlcoveWeight((3, 1), 2, 2)
    with pytest.raises(ValueError):
        AlcoveWeight((2, 0), 2, 2)
    with pytest.raises(ValueError):
        AlcoveWeight((2,), 2, 2)
    with pytest.raises(ContextMismatchError):
        AlcoveWeight((2, 1), 2, 2).same_context(AlcoveWeight((2, 1), 3, 2))


def test_star_vee_rot():
    lam = AlcoveWeight((4, 3, 2), 4, 3)
    mu = AlcoveWeight((2, 2, 1), 4, 3)
    assert lam.vee().parts == (3, 2, 1)
    assert mu.vee().parts == (4, 3, 3)
    for a in enumerate_alcove(4, 3):
        assert a.vee().vee() == a
        assert a.star().star() == a
        assert a.rot(0) == a
        assert a.rot(1).rot(3) == a  # rotations compose modulo n
        assert stab_order(a.star().parts) == stab_order(a.parts)
    # star and vee are bijections of the alcove
    alcove = enumerate_alcove(3, 2)
    assert sorted(x.star() for x in alcove) == list(alcove)
    assert sorted(x.vee() for x in alcove) == list(alcove)


def test_reduce_to_alcove():
    lam, d = reduce_to_alcove((0,), 2, 1)
    assert lam.parts == (2,) and d == -1
    lam, d = reduce_to_alcove((3, 0), 2, 2)
    assert lam.parts == (2, 1) and d == 0
    # already in the alcove
    for a in enumerate_alcove(3, 2):
        lam, d = reduce_to_alcove(a.parts, 3, 2)
        assert lam == a and d == 0
    # size law and idempotence
    rng = random.Random(3)
    for _ in range(200):
        n, k = rng.choice([(2, 2), (3, 2), (4, 3)]), None
        n, k = n
        nu = tuple(rng.randrange(0, 3 * n) for _ in range(k))
        lam, d = reduce_to_alcove(nu, n, k)
        assert n * d + lam.size == sum(nu)
        again, d2 = reduce_to_alcove(lam.parts, n, k)
        assert again == lam and d2 == 0


def test_boxed_partitions():
    b = BoxedPartition((2, 1), 4, 2)
    assert b.to_strict().parts == (4, 2)
    assert boxed_from_strict(b.to_strict()) == b
    assert b.vee().parts == (1,)
    assert b.conjugate_boxed().parts == (2, 1)
    with pytest.raises(ValueError):
        BoxedPartition((3,), 4, 2)


def test_text_syntax():
    assert parse_partition("4,3,2") == (4, 3, 2)
    assert parse_partition("-") == ()
    assert parse_partition("2,0") == (2,)
    assert format_partition((4, 3, 2)) == "4,3,2"
    assert format_partition(()) == "-"
    for bad in ["2,3", "a", "", "1,,2", "-1"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 2)])
def test_lawful_rows_equal_the_full_cube_filter(n, k):
    for weights in (enumerate_alcove(n, k), enumerate_boxed(n, k)):
        for dmax in (0, 1, 2, None):
            top = n * dmax if dmax is not None else float("inf")
            cube = [
                (lam, mu, nu, (lam.size + mu.size - nu.size) // n)
                for lam in weights
                for mu in weights
                for nu in weights
                if (lam.size + mu.size - nu.size) % n == 0
                and 0 <= lam.size + mu.size - nu.size <= top
            ]
            rows = list(lawful_rows(weights, n, dmax))
            assert [(lam, mu) for lam, mu, _ in rows] == [(a, b) for a in weights for b in weights]
            assert [(lam, mu, nu, d) for lam, mu, row in rows for nu, d in row] == cube
