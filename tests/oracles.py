"""Independent routes and suites that only the tests read.

Each one recomputes something the library computes another way, so the tests
compare the two: coefficients by brute scans or per-triple counts, products by
pointwise evaluation, tensors term by term.
"""

from __future__ import annotations

from functools import lru_cache

from cylsym.affine import shifted_reduce
from cylsym.cyclotomic import CycloNum, eval_msym, zeta_pow
from cylsym.cylindric import _nonskew_terms, _psi_cyl, _theta_cyl
from cylsym.fusion import FusionContext, Report, fusion_count
from cylsym.grassmannian import GrassContext, _kostka_expansion, _pad, core_fiber
from cylsym.partitions import (
    AlcoveWeight,
    BoxedPartition,
    Partition,
    Weight,
    conjugate,
    distinct_permutations,
    multiplicity,
    n_core,
    normalize,
    partitions_of,
    size,
    transfer,
)
from cylsym.symfunc import SymFunc, TensorSymFunc


# ---------------------------------------------------------------------------
# partitions


def partitions_with_core(core: Partition, n: int, weight: int, max_len: int | None = None):
    """All partitions with the given n-core and n-weight (brute scan by size)."""
    target = size(core) + n * weight
    out = []
    for lam in partitions_of(target, max_len=max_len):
        c, w, _ = n_core(lam, n)
        if c == normalize(core) and w == weight:
            out.append(lam)
    return out


# ---------------------------------------------------------------------------
# symmetric functions


def tensor(f: SymFunc, g: SymFunc) -> TensorSymFunc:
    out = {}
    for lam, c in f.coeffs:
        for mu, d in g.coeffs:
            out[(lam, mu)] = c * d
    return TensorSymFunc.make((f.basis, g.basis), out)


def act_phi_flat(lam: Partition, mu: Partition) -> int:
    """Pieri weight of an adjacent-column horizontal strip lam/mu, else 0.

    lam must arise from mu by removing one part equal to y and adding one part
    y + r (y = 0 allowed); the weight is the multiplicity of the grown part.
    """
    lam, mu = normalize(lam), normalize(mu)
    r = size(lam) - size(mu)
    if r <= 0:
        return 1 if (r == 0 and lam == mu) else 0
    for y in {0} | set(mu):
        stripped = list(mu)
        if y:
            stripped.remove(y)
        if normalize(tuple(stripped) + (y + r,)) == lam:
            return multiplicity(lam, y + r)
    return 0


def theta_flat(lam: Partition, mu: Partition) -> int:
    """The theta step of the skew shape lam/mu: `_theta_cyl` at degree 0 on
    n = max(lam_1, mu_1) + 1 columns, the last one empty in both."""
    return _theta_cyl(lam, 0, mu, max(lam[:1] + mu[:1], default=0) + 1)


def psi_flat(lam: Partition, mu: Partition) -> int:
    """The psi step of lam/mu, `_psi_cyl` on the same columns as `theta_flat`."""
    return _psi_cyl(lam, 0, mu, max(lam[:1] + mu[:1], default=0) + 1)


def _skew_weight(lam, mu, nu, step_fn) -> int:
    """Weighted count of the partition chains mu -> lam whose layers add
    nu[0], nu[1], ... boxes; step_fn(bigger, smaller) gives the layer factor."""
    lam, mu = normalize(lam), normalize(mu)
    return transfer(mu, lam, 0, nu, _skew_successors(lam, step_fn))


def _skew_successors(lam: Partition, step_fn):
    """Layer successors for partition chains inside lam, by a scan of every
    partition of the layer's size."""

    def successors(sig: Partition, r: int):
        for tau in partitions_of(size(sig) + r, max_len=len(lam) or 1):
            if _contains(tau, sig) and _contains(lam, tau):
                w = step_fn(tau, sig)
                if w:
                    yield tau, 0, w

    return successors


def _contains(outer: Partition, inner: Partition) -> bool:
    return all((outer[i] if i < len(outer) else 0) >= v for i, v in enumerate(inner))


# ---------------------------------------------------------------------------
# cylindric functions


def cyl_in_nonskew(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> dict:
    """Coefficients {(sigma, e): N} with h_{lam/d/mu} = sum N * h_{sigma/e/n^k}."""
    lam.same_context(mu)
    n, k = lam.n, lam.k
    return _nonskew_terms(lam, d, mu, lambda s, sigma: fusion_count(lam.parts, mu.parts, sigma.parts, n, k))


# ---------------------------------------------------------------------------
# Grassmannians


def nonskew_cyl_schur(ctx: GrassContext, lam, d: int) -> SymFunc:
    """Signed multiplicity-free Schur expansion of s_{lam/d/empty}."""
    kc = ctx.n - ctx.k
    out = {}
    for nu in core_fiber(ctx, lam, d):
        out[conjugate(nu)] = shifted_reduce(_pad(nu, kc), ctx.n, kc)[2]
    return SymFunc.make("s", out)


@lru_cache(maxsize=None)
def k_weights(ctx: GrassContext, mu: BoxedPartition) -> tuple:
    """((alpha, K_{mu alpha}), ...) over the k-entry weights alpha of s_mu in k
    variables: one Kostka walk per mu, every rearrangement of each weight."""
    empty = BoxedPartition((), ctx.n, ctx.k)
    out = []
    for nu, c in _kostka_expansion(ctx, mu, 0, empty, row_strict=False).items():
        if len(nu) <= ctx.k:
            out.extend((alpha, c) for alpha in distinct_permutations(_pad(nu, ctx.k)))
    return tuple(out)


def brauer_klimyk_product(ctx: GrassContext, lam: BoxedPartition, mu: BoxedPartition) -> dict:
    """{(nu, d): C_{lam mu}^{nu, d}} for s_lam * s_mu in k variables, weight by
    weight: each lam + alpha over the weights of the smaller factor
    (Brauer-Klimyk) is reduced at level n by `shifted_reduce`."""
    if (lam.size, lam.parts) < (mu.size, mu.parts):
        lam, mu = mu, lam
    base = lam.padded()
    out: dict = {}
    for alpha, c in k_weights(ctx, mu):
        term = shifted_reduce(tuple(a + b for a, b in zip(base, alpha)), ctx.n, ctx.k)
        if term is not None:
            nu, d, sign = term
            key = (nu.parts, d)
            out[key] = out.get(key, 0) + sign * c
    return out


# ---------------------------------------------------------------------------
# fusion rings


def frobenius_suite(ctx: FusionContext) -> Report:
    """The quotient-ring ideal annihilation: p_{n+r} = p_r for r < k and p_n = k
    at every alcove evaluation point."""
    rep = Report(f"Frobenius structure (n={ctx.n}, k={ctx.k})")
    n, k = ctx.n, ctx.k
    A = ctx.alcove
    # the ideal generators p_{n+r} - p_r vanish at every alcove evaluation point
    for sigma in A:
        for r in range(0, k):
            val = _power_sum_eval(sigma.parts, n + r, n) - _power_sum_eval(sigma.parts, r, n)
            rep.run(val.is_zero(), "ideal generator p_{} - p_{} at {}", n + r, r, sigma.parts)
        p_n = _power_sum_eval(sigma.parts, n, n)
        rep.run(p_n == CycloNum.from_rational(n, k), "p_n = k at {}", sigma.parts)
    return rep


def _power_sum_eval(sigma: Weight, r: int, n: int) -> CycloNum:
    total = CycloNum.zero(n)
    for s in sigma:
        total = total + zeta_pow(n, r * s)
    return total


def mfusion_pointwise_check(ctx: FusionContext, samples: int = 50, seed: int = 7) -> Report:
    """Pointwise product expansion of monomial functions at random zeta powers."""
    import random

    rng = random.Random(seed)
    rep = Report(f"pointwise fusion expansion (n={ctx.n}, k={ctx.k})")
    n, k = ctx.n, ctx.k
    pairs = [(a, b) for a in ctx.alcove for b in ctx.alcove]
    for _ in range(samples):
        lam, mu = rng.choice(pairs)
        p = tuple(rng.randrange(-2 * n, 2 * n + 1) for _ in range(k))
        lhs = eval_msym(lam.parts, p, n) * eval_msym(mu.parts, p, n)
        rhs = CycloNum.zero(n)
        for nu in ctx.alcove:
            c = fusion_count(nu.parts, lam.parts, mu.parts, n, k)
            if c:
                rhs = rhs + eval_msym(nu.parts, p, n) * c
        rep.run((lhs - rhs).is_zero(), "pointwise at {},{},p={}", lam.parts, mu.parts, p)
    return rep
