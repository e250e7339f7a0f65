"""Quantum cohomology of Grassmannians: Gromov-Witten invariants by two routes,
cylindric Schur functions, quantum Kostka numbers and the ribbon calculus.

Everything lives on the shifted cylinder: boxed partitions index Schubert
classes, adding the staircase moves them to strict weights where the
root-of-unity alternant formulas apply.  One signed level-n reduction of those
weights, `affine.shifted_reduce`, serves the GW products, every ribbon layer
and, on the conjugate side Gr(n-k, n), the Schur expansions and `core_fiber`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .cyclotomic import CycloNum, eval_alternant
from .affine import shifted_reduce
from .cylindric import _compositions, _psi_cyl
from .fusion import CoeffTable, Report
from .partitions import (
    AlcoveWeight,
    BoxedPartition,
    Partition,
    _scan_successors,
    boxed_from_strict,
    conjugate,
    distinct_permutations,
    enumerate_boxed,
    enumerate_strict,
    lawful_rows,
    length,
    normalize,
    partitions_of,
    staircase,
    transfer,
    transfer_expansion,
)
from .symfunc import SymFunc, hall_inner, omega, power_sum_counts


class GrassContext:
    """Gr(k, n): boxed and strict enumerations, plus the root-of-unity tables
    that only the alternant route `gw_bvi` reads; those are built on first use.
    An alternant at zeta^-sigma is read as the complex conjugate of `alt`."""

    def __init__(self, n: int, k: int):
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got (n={n}, k={k})")
        self.n = n
        self.k = k
        self.boxed = enumerate_boxed(n, k)
        self.strict = enumerate_strict(n, k)

    @cached_property
    def denom_inv(self) -> dict:
        rho = staircase(self.k)
        return {
            s.parts: (eval_alternant(rho, s.parts, self.n) * (self.n**self.k)).inv()
            for s in self.strict
        }

    @cached_property
    def alt(self) -> dict:
        return {
            lam.parts: {s.parts: eval_alternant(lam.parts, s.parts, self.n) for s in self.strict}
            for lam in self.strict
        }

    def conjugate_context(self) -> "GrassContext":
        return grass_context(self.n, self.n - self.k)


@lru_cache(maxsize=None)
def grass_context(n: int, k: int) -> GrassContext:
    return GrassContext(n, k)


def _as_boxed(ctx: GrassContext, bar) -> BoxedPartition:
    if isinstance(bar, BoxedPartition):
        ctx.boxed[0].same_context(bar)
        return bar
    return BoxedPartition(normalize(bar), ctx.n, ctx.k)


def _pad(nu: Partition, slots: int) -> tuple[int, ...]:
    return nu + (0,) * (slots - len(nu))


# ---------------------------------------------------------------------------
# Gromov-Witten invariants: root-of-unity route


def gw_bvi(ctx: GrassContext, lam, mu, nu, d: int) -> int:
    """C_{lam mu}^{nu, d} by the alternant sum over the strict alcove.

    The degree law n*d = |lam| + |mu| - |nu| must hold, otherwise 0.
    """
    lam, mu, nu = _as_boxed(ctx, lam), _as_boxed(ctx, mu), _as_boxed(ctx, nu)
    if d < 0 or lam.size + mu.size - nu.size != ctx.n * d:
        return 0
    ls, ms, ns = (
        lam.to_strict().parts,
        mu.to_strict().parts,
        nu.to_strict().parts,
    )
    total = CycloNum.zero(ctx.n)
    for sigma in ctx.strict:
        s = sigma.parts
        term = ctx.alt[ls][s] * ctx.alt[ms][s] * ctx.alt[ns][s].conjugate() * ctx.denom_inv[s]
        total = total + term
    if (d * (ctx.k - 1)) % 2:
        total = -total
    value = total.to_integer()
    if value < 0:
        raise ValueError(f"negative Gromov-Witten value at {lam.parts},{mu.parts},{nu.parts},{d}")
    return value


# ---------------------------------------------------------------------------
# Gromov-Witten invariants: ribbon-reduction route


@lru_cache(maxsize=None)
def _k_weights(ctx: GrassContext, mu: BoxedPartition) -> tuple:
    """((alpha, K_{mu alpha}), ...) over the k-entry weights alpha of s_mu in k variables."""
    empty = BoxedPartition((), ctx.n, ctx.k)
    out = []
    for nu, c in _kostka_expansion(ctx, mu, 0, empty, row_strict=False).items():
        if len(nu) <= ctx.k:
            out.extend((alpha, c) for alpha in distinct_permutations(_pad(nu, ctx.k)))
    return tuple(out)


@lru_cache(maxsize=None)
def _reduced_product(ctx: GrassContext, lam: BoxedPartition, mu: BoxedPartition) -> dict:
    """{(nu, d): C_{lam mu}^{nu, d}} for s_lam * s_mu in k variables: each
    weight lam + alpha (Brauer-Klimyk) is reduced at level n by `shifted_reduce`."""
    if (lam.size, lam.parts) < (mu.size, mu.parts):
        return _reduced_product(ctx, mu, lam)  # it commutes: expand the smaller factor
    n, k = ctx.n, ctx.k
    base = lam.padded()
    out: dict = {}
    for alpha, c in _k_weights(ctx, mu):
        term = shifted_reduce(tuple(a + b for a, b in zip(base, alpha)), n, k)
        if term is not None:
            nu, d, sign = term
            key = (nu.parts, d)
            out[key] = out.get(key, 0) + sign * c
    return out


def _ribbon_value(total, lam, mu, nu, d: int) -> int:
    """A coefficient of `_reduced_product`, checked integral and non-negative."""
    if total.denominator != 1:
        raise ValueError(f"non-integral ribbon-route value at {lam},{mu},{nu},{d}")
    if total < 0:
        raise ValueError(f"negative ribbon-route value at {lam},{mu},{nu},{d}")
    return total.numerator


def gw_ribbon(ctx: GrassContext, lam, mu, nu, d: int) -> int:
    """C_{lam mu}^{nu, d} by signed n-rim-hook reduction of the k-variable
    Schur product s_lam * s_mu (Bertram, Ciocan-Fontanine and Fulton)."""
    lam, mu, nu = _as_boxed(ctx, lam), _as_boxed(ctx, mu), _as_boxed(ctx, nu)
    if d < 0 or lam.size + mu.size - nu.size != ctx.n * d:
        return 0
    total = _reduced_product(ctx, lam, mu).get((nu.parts, d), 0)
    return _ribbon_value(total, lam.parts, mu.parts, nu.parts, d)


def gw_table(ctx: GrassContext, dmax: int, route=None) -> CoeffTable:
    """Full table of C_{lam mu}^{nu, d} for d <= dmax, nonzero entries only: without
    a route it reads each pair's reduced product, a route is called per lawful triple."""
    table = CoeffTable(ctx.n, ctx.k, "C")
    table.metadata = {
        "kind": "gromov-witten",
        "orientation": "entry (lambda, mu, nu, d) holds C_{lambda mu}^{nu, d}",
        "level_rank": "C_{lambda mu}^{nu, d} equals the conjugated entry of Gr(n-k, n)",
    }
    if route is None:
        for lam in ctx.boxed:
            for mu in ctx.boxed:
                for (nu, d), total in _reduced_product(ctx, lam, mu).items():
                    if d <= dmax and total:
                        v = _ribbon_value(total, lam.parts, mu.parts, nu, d)
                        table.entries[(lam.parts, mu.parts, nu, d)] = v
        return table
    for lam, mu, row in lawful_rows(ctx.boxed, ctx.n, dmax):
        for nu, d in row:
            v = route(ctx, lam, mu, nu, d)
            if v:
                table.entries[(lam.parts, mu.parts, nu.parts, d)] = v
    return table


def gw_symmetry_suite(ctx: GrassContext, table: CoeffTable, dmax: int) -> Report:
    """Commutativity, vee-duality and the delta normalisation of a GW table
    with d <= dmax, such as `gw_table(ctx, dmax, route=gw_bvi)`."""
    rep = Report(f"GW symmetries Gr({ctx.k},{ctx.n})")
    C = table.entries
    vee = {b: b.vee().parts for b in ctx.boxed}
    for lam, mu, row in lawful_rows(ctx.boxed, ctx.n, dmax):
        rep.run(
            C.get(((), lam.parts, mu.parts, 0), 0) == (1 if lam == mu else 0),
            "delta at {},{}", lam.parts, mu.parts,
        )
        values = [C.get((lam.parts, mu.parts, nu.parts, d), 0) for nu, d in row]
        swapped = [C.get((mu.parts, lam.parts, nu.parts, d), 0) for nu, d in row]
        dual = [C.get((vee[nu], mu.parts, vee[lam], d), 0) for nu, d in row]
        rep.run_rows(
            [
                (values, swapped, "commutativity at {},{},{},{}"),
                (values, dual, "vee duality at {},{},{},{}"),
            ],
            lambda x: (lam.parts, mu.parts, row[x][0].parts, row[x][1]),
        )
    return rep


def level_rank_check(ctx: GrassContext, dmax: int = 2) -> Report:
    """The GW table of Gr(k,n) equals that of Gr(n-k,n) with conjugated indices."""
    rep = Report(f"level-rank Gr({ctx.k},{ctx.n}) vs Gr({ctx.n - ctx.k},{ctx.n})")
    other = ctx.conjugate_context()
    mine = gw_table(ctx, dmax)
    theirs = gw_table(other, dmax)
    flipped = {
        (conjugate(l), conjugate(m), conjugate(u), d): v
        for (l, m, u, d), v in theirs.entries.items()
    }
    rep.run(mine.entries == flipped, "table equality under conjugation")
    return rep


# ---------------------------------------------------------------------------
# shifted-cylinder strips and quantum Kostka numbers


@lru_cache(maxsize=None)
def _strip_weight(lam: BoxedPartition, row_strict: bool) -> Partition:
    """The strict weight whose psi steps are the strips on lam: lam + rho for
    vertical (row_strict) strips, and for horizontal ones the strict weight of
    the conjugate in Gr(n-k, n)."""
    return (lam if row_strict else lam.conjugate_boxed()).to_strict().parts


@lru_cache(maxsize=None)
def _strip_successors(mu: BoxedPartition, r: int, row_strict: bool) -> tuple:
    """(lam, winding, 1) for every strip of r boxes on mu, by one scan of the
    boxed partitions.  On strict weights psi is 0 or 1: a vertical strip is
    psi != 0, and a horizontal strip is a vertical strip of the conjugates."""
    inner = _strip_weight(mu, row_strict)

    def psi(lam, de, _mu):
        return _psi_cyl(_strip_weight(lam, row_strict), de, inner, mu.n)

    return _scan_successors(enumerate_boxed(mu.n, mu.k), mu, r, psi)


def quantum_kostka(ctx: GrassContext, lam, d: int, mu, alpha, row_strict: bool = False) -> int:
    """Number of column-strict (row-strict) CRPPs on the shifted cylinder.

    Column-strict fillings need alpha_i <= n - k, row-strict alpha_i <= k.
    """
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    alpha = tuple(alpha)
    bound = ctx.k if row_strict else ctx.n - ctx.k
    if any(a > bound or a < 0 for a in alpha):
        raise ValueError(f"weight entries must lie in [0, {bound}]")
    return transfer(mu, lam, d, alpha, lambda w, r: _strip_successors(w, r, row_strict))


def _kostka_expansion(ctx: GrassContext, lam: BoxedPartition, d: int, mu: BoxedPartition, row_strict: bool) -> dict:
    """{partition: count} over all weights with entries inside the strip bound."""
    deg = lam.size - mu.size + ctx.n * d
    bound = ctx.k if row_strict else ctx.n - ctx.k
    end = (lam, d)
    successors = lambda w, r: _strip_successors(w, r, row_strict)
    return transfer_expansion(mu, {end: deg}, successors, max_part=bound)[end]


# ---------------------------------------------------------------------------
# cylindric ribbons (one part grown, then reduced at level n)


@lru_cache(maxsize=None)
def _ribbon_successors(mu: BoxedPartition, r: int) -> tuple:
    """(lam, winding, sign) for every way to grow one part of mu by r: the
    level-n reduction of the grown weight, whose sign carries the layer's
    (-1)^((k-1) winding)."""
    base = mu.padded()
    out = []
    for l in range(mu.k):
        term = shifted_reduce(base[:l] + (base[l] + r,) + base[l + 1 :], mu.n, mu.k)
        if term is not None:
            out.append(term)
    return tuple(out)


def ribbon_data(ctx: GrassContext, lam, d: int, mu) -> tuple[int, int] | None:
    """(length, height) of the cylindric ribbon lam/d/mu, or None.

    The height is one more than the number of beta values of the other
    runners inside the open interval the moving bead sweeps; strictness of
    the weights keeps all interval endpoints off the lattice.
    """
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    n = ctx.n
    r = lam.size - mu.size + n * d
    if r <= 0:
        return None
    s = mu.to_strict().parts
    for l in range(ctx.k):
        v = s[l] + r
        red = (v - 1) % n + 1
        if (v - red) // n != d:
            continue
        others = s[:l] + s[l + 1 :]
        if red in others:
            continue
        merged = tuple(sorted(others + (red,), reverse=True))
        if boxed_from_strict(AlcoveWeight(merged, n, ctx.k)) != lam:
            continue
        crossed = 0
        for o in others:
            lower = s[l] - o
            # multiples of n strictly inside (lower, lower + r)
            crossed += (lower + r - 1) // n - lower // n
        return (r, crossed + 1)
    return None


def chi_weight(ctx: GrassContext, lam, d: int, mu, nu) -> int:
    """Signed count of cylindric ribbon plane partitions of shape lam/d/mu,
    weight nu; each layer carries its own sign, (-1)^((k-1)d) over the chain."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    return transfer(mu, lam, d, nu, _ribbon_successors)


def _chi_expansion(ctx: GrassContext, lam: BoxedPartition, d: int, mu: BoxedPartition) -> dict:
    """{partition: signed ribbon count} over all weights of the right size,
    with the signs of `chi_weight`."""
    deg = lam.size - mu.size + ctx.n * d
    return transfer_expansion(mu, {(lam, d): deg}, _ribbon_successors)[(lam, d)]


# ---------------------------------------------------------------------------
# cylindric Schur functions


def cyl_schur(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """Cylindric Schur function via column-strict fillings, in the monomial basis."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    table = _kostka_expansion(ctx, lam, d, mu, row_strict=False)
    return SymFunc.make("m", table)


def cyl_schur_p(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """The same function by the ribbon route, in the power-sum basis.

    The signed ribbon counts are taken in the conjugate context; omega turns
    them into the expansion of the untransposed function.
    """
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    other = ctx.conjugate_context()
    table = _chi_expansion(other, lam.conjugate_boxed(), d, mu.conjugate_boxed())
    return omega(power_sum_counts(table))


def cyl_schur_to_schur(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """Schur expansion with signed GW coefficients: each nu is reduced at level
    n in Gr(n-k, n), its conjugate side."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    n, k = ctx.n, ctx.k
    other = ctx.conjugate_context()
    lam_c, mu_c = lam.conjugate_boxed(), mu.conjugate_boxed()
    deg = lam.size - mu.size + n * d
    if d < 0 or deg < 0:
        return SymFunc.make("s", {})
    out = {}
    for nu in partitions_of(deg, max_len=n - k):
        term = shifted_reduce(_pad(nu, n - k), n, n - k)
        if term is None or term[1] > d:
            continue
        core, weight, sign = term
        c = gw_ribbon(other, mu_c, core, lam_c, d - weight)
        if c:
            out[conjugate(nu)] = sign * c
    return SymFunc.make("s", out)


def core_fiber(ctx: GrassContext, lam, d: int) -> list[Partition]:
    """Partitions nu with at most n-k rows that `shifted_reduce` in Gr(n-k, n)
    takes to (lam', d): the strict weight of lam' lifted by d turns of n, one
    lift per composition of d, sorted, minus rho.  Empty when d < 0."""
    strict = _as_boxed(ctx, lam).conjugate_boxed().to_strict().parts
    rho = staircase(len(strict))
    out = []
    for turns in _compositions(d, len(strict)):
        lifted = sorted((s + ctx.n * t for s, t in zip(strict, turns)), reverse=True)
        out.append(normalize(tuple(v - r for v, r in zip(lifted, rho))))
    return sorted(out)


def mcnamara_expand(ctx: GrassContext, lam, d: int, mu) -> dict:
    """Coefficients {(nu, d - d'): C_{mu nu}^{lam, d'}} of the non-skew expansion."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    out = {}
    for nu in ctx.boxed:
        d_prime, rem = divmod(nu.size - lam.size + mu.size, ctx.n)
        if rem == 0 and 0 <= d_prime <= d:
            c = gw_ribbon(ctx, mu, nu, lam, d_prime)
            if c:
                out[(nu, d - d_prime)] = c
    return out


def nonskew_orthogonality(ctx: GrassContext, dmax: int) -> Report:
    """Hall pairings of non-skew cylindric Schur functions against core-fiber counts."""
    rep = Report(f"non-skew orthogonality Gr({ctx.k},{ctx.n})")
    keys = [(lam, d) for lam in ctx.boxed for d in range(dmax + 1)]
    funcs = [cyl_schur_p(ctx, lam, d, BoxedPartition((), ctx.n, ctx.k)) for lam, d in keys]
    for (lam, d), f in zip(keys, funcs):
        pairings = [hall_inner(f, g) for g in funcs]
        expected = [len(core_fiber(ctx, lam, d)) if key == (lam, d) else 0 for key in keys]
        rep.run_rows(
            [(pairings, expected, "pairing at {},{} vs {},{}")],
            lambda x: (lam.parts, d, keys[x][0].parts, keys[x][1]),
        )
    return rep


def toric_schur(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """Projection of the cylindric Schur function to k variables, in the Schur basis."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    full = cyl_schur(ctx, lam, d, mu).to("s")
    kept = {sig: c for sig, c in full.coeffs if length(sig) <= ctx.k}
    return SymFunc.make("s", kept)


def chi_matrix_check(ctx: GrassContext, dmax: int = 2) -> Report:
    """Single-row ribbon weights: recurrence across windings and p-route consistency."""
    rep = Report(f"ribbon recursion Gr({ctx.k},{ctx.n})")
    n, k = ctx.n, ctx.k
    for lam in ctx.boxed:
        for mu in ctx.boxed:
            for r in range(1, 2 * n + 1):
                total = r + mu.size - lam.size
                if total < 0 or total % n:
                    continue
                d = total // n
                if d > dmax:
                    continue
                val = chi_weight(ctx, lam, d, mu, (r,))
                if r > n and d >= 1:
                    prev = chi_weight(ctx, lam, d - 1, mu, (r - n,))
                    expect = -prev if (k - 1) % 2 else prev
                    rep.run(
                        val == expect, "recurrence at {}/{}/{}, r={}", lam.parts, d, mu.parts, r
                    )
                if r == n:
                    # a full circular ribbon carries multiplicity k: every bead
                    # can make the loop, matching the operator identity for p_n
                    expect = ((-1) ** ((k - 1) % 2)) * k if lam == mu else 0
                    rep.run(val == expect, "circular ribbon at {}/{}/{}", lam.parts, d, mu.parts)
                if r < n:
                    data = ribbon_data(ctx, lam, d, mu)
                    if data is None:
                        rep.run(val == 0, "no ribbon at {}/{}/{}, r={}", lam.parts, d, mu.parts, r)
                    else:
                        _, height = data
                        sign = -1 if (height - 1) % 2 else 1
                        rep.run(
                            val == sign,
                            "single ribbon sign at {}/{}/{}, r={}", lam.parts, d, mu.parts, r,
                        )
                # p-route consistency: coefficient of p_(r) in the dual-box function
                other = ctx.conjugate_context()
                coef = cyl_schur_p(other, lam.conjugate_boxed(), d, mu.conjugate_boxed())[(r,)]
                eps = -1 if (r - 1) % 2 else 1
                rep.run(
                    coef == Fraction(eps * val, r),
                    "p-route at {}/{}/{}, r={}", lam.parts, d, mu.parts, r,
                )
    return rep

