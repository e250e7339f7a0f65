"""Quantum cohomology of Grassmannians: Gromov-Witten invariants by two routes,
cylindric Schur functions, quantum Kostka numbers and the ribbon calculus.

Everything lives on the shifted cylinder: boxed partitions index Schubert
classes, adding the staircase moves them to strict weights where the
root-of-unity alternant formulas and the beta-number ribbon moves apply.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .cyclotomic import CycloNum, eval_alternant
from .cylindric import _psi_cyl
from .fusion import CoeffTable, Report
from .partitions import (
    AlcoveWeight,
    BoxedPartition,
    Partition,
    _scan_successors,
    beta_numbers,
    boxed_from_strict,
    conjugate,
    distinct_permutations,
    enumerate_boxed,
    enumerate_strict,
    lawful_rows,
    length,
    n_core,
    normalize,
    partition_from_betas,
    partitions_of,
    size,
    staircase,
    transfer,
    transfer_expansion,
    z_factor,
)
from .symfunc import SymFunc, hall_inner, multiply, schur_straighten, sym


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


def schur_product_coeff(mu: Partition, nu: Partition, sigma: Partition) -> Fraction:
    """Littlewood-Richardson coefficient via the power-sum pivot of `multiply`."""
    return multiply(sym("s", mu), sym("s", nu))[sigma]


@lru_cache(maxsize=None)
def _k_weights(ctx: GrassContext, mu: BoxedPartition) -> tuple:
    """((alpha, K_{mu alpha}), ...) over the k-entry weights alpha of s_mu in k variables."""
    empty = BoxedPartition((), ctx.n, ctx.k)
    out = []
    for nu, c in _kostka_expansion(ctx, mu, 0, empty, row_strict=False).items():
        if len(nu) <= ctx.k:
            padded = nu + (0,) * (ctx.k - len(nu))
            out.extend((alpha, c) for alpha in distinct_permutations(padded))
    return tuple(out)


@lru_cache(maxsize=None)
def _reduced_product(ctx: GrassContext, lam: BoxedPartition, mu: BoxedPartition) -> dict:
    """{(nu, d): C_{lam mu}^{nu, d}} for s_lam * s_mu in k variables, each term
    straightened (Brauer-Klimyk) and reduced by signed n-rim-hook removal."""
    if (lam.size, lam.parts) < (mu.size, mu.parts):
        return _reduced_product(ctx, mu, lam)  # it commutes: expand the smaller factor
    n, k = ctx.n, ctx.k
    base = lam.padded()
    out: dict = {}
    for alpha, c in _k_weights(ctx, mu):
        term = schur_straighten(tuple(a + b for a, b in zip(base, alpha)))
        if term is None:
            continue
        sign, sigma = term
        core, weight, parity = n_core(sigma, n)
        if core and core[0] > n - k:
            continue
        if (k * weight - parity) % 2:
            sign = -sign
        key = (core, weight)
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
        for nu, d in row:
            v = C.get((lam.parts, mu.parts, nu.parts, d), 0)
            rep.run(
                v == C.get((mu.parts, lam.parts, nu.parts, d), 0),
                "commutativity at {},{},{},{}", lam.parts, mu.parts, nu.parts, d,
            )
            rep.run(
                v == C.get((vee[nu], mu.parts, vee[lam], d), 0),
                "vee duality at {},{},{},{}", lam.parts, mu.parts, nu.parts, d,
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
# cylindric ribbons (beta-number moves on strict weights)


@lru_cache(maxsize=None)
def _ribbon_successors(mu: BoxedPartition, r: int) -> tuple:
    """(lam, winding, sign) for every way to grow one strict entry by r."""
    n, k = mu.n, mu.k
    s = mu.to_strict().parts
    out = []
    for l in range(k):
        v = s[l] + r
        red = (v - 1) % n + 1
        winding = (v - red) // n
        others = s[:l] + s[l + 1 :]
        if red in others:
            continue
        merged = sorted(others + (red,), reverse=True)
        pos = merged.index(red)
        sign = -1 if (pos - l) % 2 else 1
        lam = boxed_from_strict(AlcoveWeight(tuple(merged), n, k))
        out.append((lam, winding, sign))
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
    """Signed count of cylindric ribbon plane partitions of shape lam/d/mu, weight nu."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    raw = transfer(mu, lam, d, nu, _ribbon_successors)
    return -raw if (d * (ctx.k - 1)) % 2 else raw


def _chi_expansion(ctx: GrassContext, lam: BoxedPartition, d: int, mu: BoxedPartition) -> dict:
    """{partition: signed ribbon count} over all weights of the right size."""
    deg = lam.size - mu.size + ctx.n * d
    table = transfer_expansion(mu, {(lam, d): deg}, _ribbon_successors)[(lam, d)]
    if (d * (ctx.k - 1)) % 2:
        return {nu: -c for nu, c in table.items()}
    return table


# ---------------------------------------------------------------------------
# cylindric Schur functions


def cyl_schur(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """Cylindric Schur function via column-strict fillings, in the monomial basis."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    table = _kostka_expansion(ctx, lam, d, mu, row_strict=False)
    return SymFunc.make("m", {nu: Fraction(c) for nu, c in table.items()})


def cyl_schur_p(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """The same function by the ribbon route, in the power-sum basis.

    The signed ribbon counts are taken in the conjugate context; the epsilon
    twist turns them into the expansion of the untransposed function.
    """
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    other = ctx.conjugate_context()
    table = _chi_expansion(other, lam.conjugate_boxed(), d, mu.conjugate_boxed())
    out = {}
    for nu, c in table.items():
        coef = Fraction(c, z_factor(nu))
        if (size(nu) - length(nu)) % 2:
            coef = -coef
        if coef:
            out[nu] = coef
    return SymFunc.make("p", out)


def cyl_schur_to_schur(ctx: GrassContext, lam, d: int, mu) -> SymFunc:
    """Schur expansion with signed core-reduced GW coefficients."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    n, k = ctx.n, ctx.k
    other = ctx.conjugate_context()
    lam_c = conjugate(lam.parts)
    mu_c = conjugate(mu.parts)
    deg = lam.size - mu.size + n * d
    if d < 0 or deg < 0:
        return SymFunc.make("s", {})
    out = {}
    for nu in partitions_of(deg, max_len=n - k):
        core, weight, parity = n_core(nu, n)
        if weight > d:
            continue
        if core and core[0] > k:
            continue
        c = gw_bvi(other, mu_c, core, lam_c, d - weight)
        if not c:
            continue
        sign = -1 if ((n - k) * weight - parity) % 2 else 1
        out[conjugate(nu)] = Fraction(sign * c)
    return SymFunc.make("s", out)


def nonskew_cyl_schur(ctx: GrassContext, lam, d: int) -> SymFunc:
    """Signed multiplicity-free Schur expansion of s_{lam/d/empty}."""
    lam = _as_boxed(ctx, lam)
    n, k = ctx.n, ctx.k
    out = {}
    for nu in core_fiber(ctx, lam, d):
        _, _, parity = n_core(nu, n)
        sign = -1 if ((n - k) * d - parity) % 2 else 1
        out[conjugate(nu)] = Fraction(sign)
    return SymFunc.make("s", out)


def core_fiber(ctx: GrassContext, lam, d: int) -> list[Partition]:
    """Partitions with at most n-k rows, n-core lam' and n-weight d, by runner quotients."""
    lam = _as_boxed(ctx, lam)
    n = ctx.n
    core = conjugate(lam.parts)
    out = []
    for nu in _core_quotient_fiber(core, n, d):
        if length(nu) <= n - ctx.k:
            out.append(nu)
    return sorted(out)


def _core_quotient_fiber(core: Partition, n: int, weight: int) -> list[Partition]:
    """All partitions with the given n-core and n-weight, via the quotient bijection."""
    slots = len(core) + n * weight + n
    base = beta_numbers(core, slots)
    runners: dict[int, list[int]] = {r: [] for r in range(n)}
    for b in base:
        runners[b % n].append(b)
    for r in runners:
        runners[r].sort(reverse=True)
    out = []

    def rec(r: int, remaining: int, acc: list[int]):
        if r == n:
            if remaining == 0:
                out.append(partition_from_betas(acc))
            return
        beads = runners[r]
        for q in partitions_of_bounded_len(remaining, len(beads)):
            moved = [b + n * (q[i] if i < len(q) else 0) for i, b in enumerate(beads)]
            rec(r + 1, remaining - sum(q), acc + moved)

    rec(0, weight, [])
    return out


def partitions_of_bounded_len(total_max: int, max_len: int):
    """All partitions of size at most total_max into at most max_len parts."""
    for s in range(total_max + 1):
        yield from partitions_of(s, max_len=max_len)


def mcnamara_expand(ctx: GrassContext, lam, d: int, mu) -> dict:
    """Coefficients {(nu, d - d'): C_{mu nu}^{lam, d'}} of the non-skew expansion."""
    lam, mu = _as_boxed(ctx, lam), _as_boxed(ctx, mu)
    out = {}
    for nu in ctx.boxed:
        d_prime, rem = divmod(nu.size - lam.size + mu.size, ctx.n)
        if rem == 0 and 0 <= d_prime <= d:
            c = gw_bvi(ctx, mu, nu, lam, d_prime)
            if c:
                out[(nu, d - d_prime)] = c
    return out


def nonskew_orthogonality(ctx: GrassContext, dmax: int) -> Report:
    """Hall pairings of non-skew cylindric Schur functions against core-fiber counts."""
    rep = Report(f"non-skew orthogonality Gr({ctx.k},{ctx.n})")
    funcs = {}
    for lam in ctx.boxed:
        for d in range(dmax + 1):
            funcs[(lam, d)] = cyl_schur_p(ctx, lam, d, BoxedPartition((), ctx.n, ctx.k))
    for (lam, d), f in funcs.items():
        for (mu, d2), g in funcs.items():
            expected = (
                Fraction(len(core_fiber(ctx, lam, d)))
                if (lam == mu and d == d2)
                else Fraction(0)
            )
            rep.run(
                hall_inner(f, g) == expected,
                "pairing at {},{} vs {},{}", lam.parts, d, mu.parts, d2,
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

