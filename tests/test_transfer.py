"""The prefix-sharing expansions of the layered transfer engine against
pointwise counts, and the weight validation shared by every route."""

import pytest

from cylsym.cylindric import (
    _expansions,
    _weight,
    _weight_expansion,
    skew_e,
    skew_h,
    theta_weight,
)
from cylsym.grassmannian import (
    _chi_expansion,
    _kostka_expansion,
    chi_weight,
    grass_context,
    quantum_kostka,
)
from cylsym.partitions import enumerate_alcove, partitions_of, transfer_expansion

from oracles import _skew_weight, act_phi_flat, psi_flat, theta_flat

GRIDS = [(3, 2), (4, 2)]


def pointwise(deg, count, max_part=None):
    return {nu: c for nu in partitions_of(deg, max_part=max_part) if (c := count(nu))}


@pytest.mark.parametrize("n,k", GRIDS)
def test_crpp_expansion_matches_pointwise(n, k):
    A = enumerate_alcove(n, k)
    for lam in A:
        for mu in A:
            for d in range(3):
                deg = lam.size - mu.size + n * d
                for kind in ("general", "row-strict", "adjacent-column"):
                    expected = pointwise(deg, lambda nu: _weight(lam, d, mu, nu, kind))
                    assert _weight_expansion(lam, d, mu, kind) == expected, (kind, lam, d, mu)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_row_walk_matches_single_end_expansions(n, k):
    A = enumerate_alcove(n, k)
    for kind in ("general", "row-strict", "adjacent-column"):
        for mu in A:
            single = {(lam, d): _weight_expansion(lam, d, mu, kind) for lam in A for d in range(3)}
            for d in range(3):
                row = _expansions(mu, [(lam, d) for lam in A], kind)
                assert list(row) == [(lam, d) for lam in A]
                assert all(row[(lam, d)] == single[(lam, d)] for lam in A), (kind, mu, d)
            # windings 0 and 1 read from one walk bounded by winding 1
            both = _expansions(mu, [(lam, e) for lam in A for e in (0, 1)], kind)
            assert both == {(lam, e): single[(lam, e)] for lam in A for e in (0, 1)}, (kind, mu)


def test_ends_of_negative_degree_read_empty():
    lam, mu = enumerate_alcove(3, 2)[0], enumerate_alcove(3, 2)[-1]
    got = _expansions(mu, [(lam, 0), (mu, 0), (mu, 1)], "general")
    assert got[(lam, 0)] == {} and got[(mu, 0)] == {(): 1}
    assert got[(mu, 1)] == _weight_expansion(mu, 1, mu, "general") != {}
    # no end of nonnegative degree: no walk, so the successors are never asked for
    assert transfer_expansion(mu, {(lam, 0): -2}, None) == {(lam, 0): {}}


@pytest.mark.parametrize("n,k", GRIDS)
def test_kostka_and_ribbon_expansions_match_pointwise(n, k):
    ctx = grass_context(n, k)
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for d in range(3):
                deg = lam.size - mu.size + n * d
                for row_strict, bound in ((False, n - k), (True, k)):
                    expected = pointwise(
                        deg,
                        lambda nu: quantum_kostka(ctx, lam, d, mu, nu, row_strict=row_strict),
                        max_part=bound,
                    )
                    got = _kostka_expansion(ctx, lam, d, mu, row_strict)
                    assert got == expected, (row_strict, lam, d, mu)
                expected = pointwise(deg, lambda nu: chi_weight(ctx, lam, d, mu, nu))
                assert _chi_expansion(ctx, lam, d, mu) == expected, (lam, d, mu)


def test_flat_expansions_match_pointwise():
    for s in range(7):
        for lam in partitions_of(s):
            for t in range(s + 1):
                for mu in partitions_of(t):
                    h = pointwise(s - t, lambda nu: _skew_weight(lam, mu, nu, theta_flat))
                    e = pointwise(s - t, lambda nu: _skew_weight(lam, mu, nu, psi_flat))
                    assert skew_h(lam, mu).dict() == h, (lam, mu)
                    assert skew_e(lam, mu).dict() == e, (lam, mu)


def test_negative_weight_entry_raises():
    lam, mu = enumerate_alcove(3, 2)[-1], enumerate_alcove(3, 2)[0]
    deg = lam.size - mu.size + 3
    nu = (deg + 1, -1)
    ctx = grass_context(4, 2)
    top, empty = ctx.boxed[-1], ctx.boxed[0]
    rib = (top.size + 1, -1)
    routes = [
        lambda: theta_weight(lam, 1, mu, nu),
        lambda: _weight(lam, 1, mu, nu, "row-strict"),
        lambda: _weight(lam, 1, mu, nu, "adjacent-column"),
        lambda: chi_weight(ctx, top, 0, empty, rib),
        lambda: quantum_kostka(ctx, top, 0, empty, (2, 2, 1, -1)),
        lambda: _skew_weight((3, 1), (1,), (4, -1), theta_flat),
        lambda: _skew_weight((3, 1), (1,), (4, -1), psi_flat),
        lambda: _skew_weight((3, 1), (1,), (4, -1), act_phi_flat),
    ]
    for route in routes:
        with pytest.raises(ValueError):
            route()
