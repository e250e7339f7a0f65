"""Cylindric reverse plane partitions and the cylindric complete/elementary functions.

Everything is organised around layered loop-to-loop transitions: a CRPP is a
chain of cylindric loops, each step carrying a closed-form weight in the
column counts (theta for general steps, psi for vertical strips, phi for
adjacent-column strips).  The
same transfer engine produces single weighted counts, full monomial expansions
and explicit CRPP enumerations.  The flat skew h and e are its degree-0 walk:
the skew shape lam/mu is the cylindric shape lam+/0/mu+, each partition grown
by one full first column, in the alcove one column wider than both
(Postnikov, Duke Math. J. 128, 2005).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .affine import is_valid_shape, loop_value
from .fusion import FusionContext, _slots, fusion_count
from .partitions import (
    AlcoveWeight,
    Partition,
    _comb0,
    _conj_padded,
    _orbit_ratio,
    _scan_successors,
    distinct_permutations,
    enumerate_alcove,
    multiplicity,
    normalize,
    partitions_of,
    transfer,
    transfer_expansion,
)
from . import symfunc
from .symfunc import SymFunc, antipode, omega, power_sum_counts


# ---------------------------------------------------------------------------
# one-step weights


@lru_cache(maxsize=None)
def _theta_cyl(lam: Partition, d: int, mu: Partition, n: int) -> int:
    lamc = _conj_padded(lam, n)
    muc = _conj_padded(mu, n) + (0,)

    def prod(shift: int) -> int:
        out = 1
        for i in range(n):
            out *= _comb0(lamc[i] + shift - muc[i + 1], muc[i] - muc[i + 1])
            if out == 0:
                return 0
        return out

    return prod(d) - prod(d - 1)


def theta_cyl(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> int:
    """Number of affine coset elements w with mu.w <= lam.tau^d, in closed form.

    Vanishes exactly when lam/d/mu is not a valid cylindric skew shape.
    """
    lam.same_context(mu)
    if d < 0:
        return 0
    return _theta_cyl(lam.parts, d, mu.parts, lam.n)


def oracle_rows(lam: AlcoveWeight, mu: AlcoveWeight, dmax: int) -> tuple[list[int], list[int]]:
    """Brute counts for d = 0..dmax, oracles of `theta_cyl` and `psi_cyl`: the
    pairs (w, beta) with mu.w <= lam + n*beta, beta >= 0, |beta| = d, and the
    (w, alpha) with lam - mu.w + n*alpha having all entries 0 or 1.

    For a rearrangement alpha of mu both conditions split by coordinate:
    alpha_i <= lam_i + n b_i is b_i >= ceil((alpha_i - lam_i)/n), and
    lam_i - alpha_i + n b_i in {0, 1} adds b_i <= floor((alpha_i - lam_i + 1)/n).
    The compositions b of d within the bounds are counted once per (d, bounds).
    """
    lam.same_context(mu)
    n = lam.n
    theta, psi = [0] * (dmax + 1), [0] * (dmax + 1)
    for alpha in distinct_permutations(mu.parts):
        low = tuple(max(0, -((l - a) // n)) for a, l in zip(alpha, lam.parts))
        high = tuple((a - l + 1) // n for a, l in zip(alpha, lam.parts))
        for d in range(dmax + 1):
            theta[d] += _compositions_within(d, low, None)
            psi[d] += _compositions_within(d, low, high)
    return theta, psi


@lru_cache(maxsize=None)
def _compositions_within(total: int, low: tuple, high: tuple | None) -> int:
    """The compositions of total into len(low) parts with low <= b entrywise,
    and b <= high unless high is None."""
    return sum(
        all(map(int.__le__, low, beta)) and (high is None or all(map(int.__le__, beta, high)))
        for beta in _compositions(total, len(low))
    )


@lru_cache(maxsize=None)
def _compositions(total: int, slots: int) -> tuple[tuple[int, ...], ...]:
    if slots == 0:
        return ((),) if total == 0 else ()
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _psi_cyl(lam: Partition, d: int, mu: Partition, n: int) -> int:
    lamc = _conj_padded(lam, n) + (0,)
    muc = _conj_padded(mu, n)
    out = 1
    for i in range(n):
        out *= _comb0(lamc[i] - lamc[i + 1], lamc[i] + d - muc[i])
        if out == 0:
            return 0
    return out


def psi_cyl(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> int:
    """Vertical-strip step weight; vanishes unless lam/d/mu is a cylindric vertical strip."""
    lam.same_context(mu)
    if d < 0:
        return 0
    return _psi_cyl(lam.parts, d, mu.parts, lam.n)


@lru_cache(maxsize=None)
def _phi_cyl(lam: Partition, d: int, mu: Partition, n: int) -> int:
    r = sum(lam) - sum(mu) + n * d
    if r <= 0:
        return int(r == 0 and lam == mu)
    if r % n == 0:
        return len(lam) if lam == mu else 0
    d_red = d - r // n
    if d_red not in (0, 1):
        return 0
    e = [a + d_red - b for a, b in zip(_conj_padded(lam, n), _conj_padded(mu, n))]
    if any(x not in (0, 1) for x in e):
        return 0
    starts = [c for c in range(n) if e[c] and not e[c - 1]]
    if len(starts) != 1:
        return 0
    target = (starts[0] + r) % n
    return sum(1 for p in lam if p % n == target)


def phi_cyl(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> int:
    """Adjacent-column-strip weight.

    With r boxes, a full turn (n | r) counts k times; otherwise the shape is
    reduced with tau^-1 to r mod n boxes and degree d_red in {0, 1}, whose
    column counts e_c = lam'_c + d_red - mu'_c must be 0 or 1 with the ones
    in one cyclic run of columns.  The weight is the number of parts of lam
    congruent mod n to a - 1 + r, a the first column of the run.
    """
    lam.same_context(mu)
    if d < 0:
        return 0
    return _phi_cyl(lam.parts, d, mu.parts, lam.n)


def phi_cyl_oracle(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> int:
    """Pieri-style count: positions l where replacing lam_l by lam_l + n*d - r
    turns lam into a rearrangement of mu."""
    lam.same_context(mu)
    n = lam.n
    r = lam.size - mu.size + n * d
    if d < 0 or r < 0:
        return 0
    if r == 0:
        return 1 if lam == mu else 0
    count = 0
    for l in range(lam.k):
        value = lam.parts[l] + n * d - r
        if value < 1:
            continue
        replaced = lam.parts[:l] + (value,) + lam.parts[l + 1 :]
        if normalize(replaced) == mu.parts:
            count += 1
    return count


# ---------------------------------------------------------------------------
# weighted CRPP counts through the layered transfer engine
#
# The kind of a CRPP names its one-step weight: theta for general layers, psi
# for row-strict ones, phi for adjacent-column ones.  Ribbon layers are
# adjacent-column layers between strict loops.

KINDS = ("general", "row-strict", "adjacent-column", "ribbon")


def _step(kind: str):
    """The one-step weight of a CRPP kind, read from the module's names at
    every call so that a rebound (say, instrumented) weight is the one used."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    return {
        "general": theta_cyl,
        "row-strict": psi_cyl,
        "adjacent-column": phi_cyl,
        "ribbon": phi_cyl,
    }[kind]


@lru_cache(maxsize=None)
def _successors(mu: AlcoveWeight, r: int, kind: str) -> tuple:
    """All (lam, extra_degree, weight) adding r boxes with a nonzero one-step
    weight of the kind, by one scan of the alcove.  Ribbon layers come out as
    the adjacent-column ones; their strictness is left to the CRPP walk."""
    return _scan_successors(enumerate_alcove(mu.n, mu.k), mu, r, _step(kind))


def _weight(lam: AlcoveWeight, d: int, mu: AlcoveWeight, nu, kind: str) -> int:
    lam.same_context(mu)
    return transfer(mu, lam, d, nu, lambda w, r: _successors(w, r, kind))


def theta_weight(lam: AlcoveWeight, d: int, mu: AlcoveWeight, nu) -> int:
    """Weighted count of CRPPs of shape lam/d/mu and weight nu."""
    return _weight(lam, d, mu, nu, "general")


def _expansions(mu: AlcoveWeight, ends, kind: str) -> dict:
    """{(lam, d): {partition nu: weighted CRPP count of shape lam/d/mu}} for
    every end (lam, d), all read from one walk out of mu."""
    degrees = {(lam, d): lam.size - mu.size + mu.n * d for lam, d in ends}
    return transfer_expansion(mu, degrees, lambda w, r: _successors(w, r, kind))


def _weight_expansion(lam: AlcoveWeight, d: int, mu: AlcoveWeight, kind: str) -> dict:
    """Coefficients {partition nu: weighted CRPP count}."""
    return _expansions(mu, [(lam, d)], kind)[(lam, d)]


# ---------------------------------------------------------------------------
# the cylindric complete and elementary symmetric functions


def cyl_h(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    """Cylindric complete symmetric function, expanded over monomials."""
    return SymFunc.make("m", _weight_expansion(lam, d, mu, "general"))


def cyl_e(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    """Cylindric elementary symmetric function, expanded over monomials."""
    return SymFunc.make("m", _weight_expansion(lam, d, mu, "row-strict"))


def _flat_pair(lam: Partition, mu: Partition) -> tuple[AlcoveWeight, AlcoveWeight]:
    """lam+ and mu+: each partition padded to k = max(length(lam), length(mu), 1)
    parts and grown by one full first column, in the alcove with
    n = max(lam_1, mu_1) + 1.
    At degree 0 the cylindric shape lam+/0/mu+ is the skew shape lam/mu."""
    lam, mu = normalize(lam), normalize(mu)
    k, n = max(len(lam), len(mu), 1), max(lam[:1] + mu[:1], default=0) + 1
    plus = lambda p: AlcoveWeight(tuple(x + 1 for x in p) + (1,) * (k - len(p)), n, k)
    return plus(lam), plus(mu)


def skew_h(lam: Partition, mu: Partition) -> SymFunc:
    """Skew complete symmetric function h_{lam/mu}, in the monomial basis."""
    outer, inner = _flat_pair(lam, mu)
    return cyl_h(outer, 0, inner)


def skew_e(lam: Partition, mu: Partition) -> SymFunc:
    """Skew elementary symmetric function e_{lam/mu}, in the monomial basis."""
    outer, inner = _flat_pair(lam, mu)
    return cyl_e(outer, 0, inner)


def cyl_h_in_h(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    """Complete-basis expansion with extended fusion coefficients as weights."""
    lam.same_context(mu)
    n, k = lam.n, lam.k
    deg = lam.size - mu.size + n * d
    if d < 0 or deg < 0:
        return SymFunc.make("h", {})
    nus = partitions_of(deg, max_len=k)
    return SymFunc.make("h", {nu: fusion_count(lam.parts, mu.parts, nu, n, k) for nu in nus})


def cyl_p_expand(lam: AlcoveWeight, d: int, mu: AlcoveWeight, kind: str = "h") -> SymFunc:
    """Power-sum expansion via adjacent-column plane partitions; omega gives e."""
    if kind not in ("h", "e"):
        raise ValueError(kind)
    f = power_sum_counts(_weight_expansion(lam, d, mu, "adjacent-column"))
    return omega(f) if kind == "e" else f


def nonskew_cyl_h(lam: AlcoveWeight, d: int) -> SymFunc:
    """Orbit-sum expansion of the non-skew cylindric complete function.

    Sums |S_lam|/|S_nu| h_nu over dominant weights nu in the level-n orbit of
    lam with |nu| = |lam| + d*n; identically zero below d = -mult_n(lam).
    """
    n, k = lam.n, lam.k
    if d < -multiplicity(lam.parts, n):
        return SymFunc.make("h", {})
    target = lam.size + d * n
    out = {}
    for nu in partitions_of(target, max_len=k):
        rep, ratio = _orbit_ratio(tuple(nu) + (0,) * (k - len(nu)), n, k)
        if rep == lam:
            out[nu] = ratio
    return SymFunc.make("h", out)


def nonskew_from_array(ctx: FusionContext, lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> dict:
    """Coefficients {(sigma, e): N} with h_{lam/d/mu} = sum N * h_{sigma/e/n^k},
    N = N_{mu sigma}^lam read from the fusion array of ctx, the context of lam
    and mu."""
    ctx._check(lam, mu)
    plane, i = ctx.fusion[ctx.index[mu.parts]], ctx.index[lam.parts]
    return _nonskew_terms(lam, d, mu, lambda s, sigma: plane[s][i])


def _nonskew_terms(lam: AlcoveWeight, d: int, mu: AlcoveWeight, coefficient) -> dict:
    """{(sigma, k + d - d'): coefficient(s, sigma)} over the alcove points
    sigma = A_s with |mu| + |sigma| - |lam| = n d' for 0 <= d' <= d + k,
    nonzero values only, scanning the class |sigma| = |lam| - |mu| mod n."""
    n, k = lam.n, lam.k
    out = {}
    for s, sigma, size in _alcove_classes(n, k)[(lam.size - mu.size) % n]:
        d_prime = (size - lam.size + mu.size) // n
        c = coefficient(s, sigma) if 0 <= d_prime <= d + k else 0
        if c:
            out[(sigma, k + d - d_prime)] = c
    return out


@lru_cache(maxsize=None)
def _alcove_classes(n: int, k: int) -> tuple:
    """The (s, A_s, |A_s|) of the alcove in its order, split by |A_s| mod n."""
    A = enumerate_alcove(n, k)
    return tuple([(s, a, a.size) for s, a in enumerate(A) if a.size % n == r] for r in range(n))


# ---------------------------------------------------------------------------
# explicit CRPPs


@dataclass(frozen=True)
class Crpp:
    """Chain of cylindric loops (weight, offset) from the inner to the outer one."""

    loops: tuple  # ((AlcoveWeight, d_i), ...) with d_i weakly increasing
    kind: str = "general"

    def __post_init__(self):
        """Each layer needs a nonzero one-step weight of the kind; a ribbon
        layer that adds boxes also needs both its loops strict."""
        step = _step(self.kind)
        if len(self.loops) < 1:
            raise ValueError("a CRPP needs at least the inner loop")
        for (w1, e1), (w2, e2) in zip(self.loops, self.loops[1:]):
            w1.same_context(w2)
            if e2 < e1:
                raise ValueError("offsets must be weakly increasing")
            de, boxes = e2 - e1, w2.size - w1.size + w2.n * (e2 - e1)
            strict = self.kind != "ribbon" or boxes == 0 or w1.is_strict() and w2.is_strict()
            if not (strict and step(w2, de, w1)):
                raise ValueError(
                    f"step {w1.parts}[{e1}] -> {w2.parts}[{e2}] is not a {self.kind} layer"
                )

    @property
    def inner(self) -> AlcoveWeight:
        return self.loops[0][0]

    @property
    def outer(self) -> AlcoveWeight:
        return self.loops[-1][0]

    @property
    def degree(self) -> int:
        return self.loops[-1][1]

    def weight(self) -> tuple[int, ...]:
        n = self.inner.n
        return tuple(
            w2.size - w1.size + n * (e2 - e1)
            for (w1, e1), (w2, e2) in zip(self.loops, self.loops[1:])
        )

    def value(self) -> int:
        """Product of the one-step weights of the kind over the layers."""
        step = _step(self.kind)
        out = 1
        for (w1, e1), (w2, e2) in zip(self.loops, self.loops[1:]):
            out *= step(w2, e2 - e1, w1)
        return out

    def vee(self) -> "Crpp":
        """Reverse the chain, replacing every loop weight by its complement."""
        d = self.degree
        new = tuple(
            (w.vee(), d - e) for (w, e) in reversed(self.loops)
        )
        return Crpp(new, self.kind)

    def render(self) -> str:
        """Fundamental-strip picture, rows 1..k top to bottom."""
        k = self.inner.k
        inner_at = [loop_value(self.inner, 0, i) for i in range(1, k + 1)]
        outer_at = [
            loop_value(self.outer, self.degree, i) for i in range(1, k + 1)
        ]
        lo = min(inner_at)
        lines = []
        for i in range(1, k + 1):
            row = []
            for j in range(lo + 1, outer_at[i - 1] + 1):
                if j <= inner_at[i - 1]:
                    row.append(".")
                else:
                    layer = next(
                        idx
                        for idx, (w, e) in enumerate(self.loops)
                        if j <= loop_value(w, e, i)
                    )
                    row.append(str(layer))
            lines.append(" ".join(row))
        return "\n".join(lines)


def enumerate_crpp(
    lam: AlcoveWeight,
    d: int,
    mu: AlcoveWeight,
    weight=None,
    max_level: int | None = None,
    kind: str = "general",
):
    """All CRPPs of shape lam/d/mu, of fixed weight or with at most max_level layers.

    One walk grows chains from (mu, 0) layer by layer through `_successors`:
    with a weight it tries the one layer size the weight gives (a zero entry
    repeats the loop), with max_level every size up to the boxes left.
    Output is sorted by the loop sequence so golden files stay stable.
    """
    lam.same_context(mu)
    _step(kind)  # rejects an unknown kind
    if (weight is None) == (max_level is None):
        raise ValueError("provide exactly one of weight, max_level")
    if not is_valid_shape(lam, d, mu) or d < 0:
        return []
    n = lam.n
    end = (lam, d)
    if weight is not None:
        weight = tuple(weight)
        if sum(weight) != lam.size - mu.size + n * d:
            return []
        max_level = len(weight)
    results = []

    def rec(chain):
        level = len(chain) - 1
        if chain[-1] == end and (weight is None or level == max_level):
            results.append(Crpp(chain, kind))
        if level == max_level:
            return
        w1, e1 = chain[-1]
        budget = lam.size + n * d - (w1.size + n * e1)
        for r in range(1, budget + 1) if weight is None else (weight[level],):
            if r == 0:
                rec(chain + ((w1, e1),))
                continue
            for w2, de, _ in _successors(w1, r, kind):
                if e1 + de <= d and (kind != "ribbon" or w1.is_strict() and w2.is_strict()):
                    rec(chain + ((w2, e1 + de),))

    rec(((mu, 0),))
    key = lambda c: tuple((w.parts, e) for w, e in c.loops)
    return sorted(results, key=key)


# ---------------------------------------------------------------------------
# coproduct identity and antipode


def coproduct_cyl_check(lam: AlcoveWeight, d: int, mu: AlcoveWeight, kind: str = "h") -> bool:
    """Check Delta(f_{lam/d/mu}) = sum over d1+d2=d, nu of f_{lam/d1/nu} (x) f_{nu/d2/mu}.

    f_{lam/d/mu} and every right factor come from one walk out of mu."""
    if kind not in ("h", "e"):
        raise ValueError(kind)
    step = "general" if kind == "h" else "row-strict"
    alcove = enumerate_alcove(lam.n, lam.k)
    right = _expansions(mu, [(nu, d2) for d2 in range(d + 1) for nu in alcove], step)
    return coproduct_holds(lam, d, right, lambda d1, nu: _weight_expansion(lam, d1, nu, step))


def coproduct_holds(lam: AlcoveWeight, d: int, right: dict, left) -> bool:
    """Delta(f_{lam/d/mu}) = sum over d1+d2=d, nu of f_{lam/d1/nu} (x) f_{nu/d2/mu},
    with right the expansions {(nu, d2): f_{nu/d2/mu}} of one walk out of mu
    for every alcove point nu and d2 <= d, and left(d1, nu) = f_{lam/d1/nu},
    asked for only where the right factor is nonzero.  Both sides are integer
    tables {(a, b): coefficient of m_a (x) m_b}, Delta(m_rho) each split once."""
    lhs, rhs = Counter(), Counter()  # equal when they differ only in zeros
    for rho, c in right[(lam, d)].items():
        for a, b, _ in symfunc._p_splits(rho):
            lhs[(a, b)] += c
    for d1 in range(0, d + 1):
        for nu in enumerate_alcove(lam.n, lam.k):
            factor = right[(nu, d - d1)]
            for a, ca in (left(d1, nu) if factor else {}).items():
                for b, cb in factor.items():
                    rhs[(a, b)] += ca * cb
    return lhs == rhs


def antipode_check(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> bool:
    """gamma(h_{lam/d/mu}) = (-1)^(degree) e_{lam/d/mu}."""
    deg = lam.size - mu.size + lam.n * d
    return antipode(cyl_h(lam, d, mu)) == cyl_e(lam, d, mu) * (-1 if deg % 2 else 1)


class PackedAntipode:
    """gamma(h) = (-1)^D e for many pairs (h, e) of monomial expansions of
    degree D, checked one degree at a time as packed integers.

    With S(m_nu) = (-1)^length(nu) sum_rho c_{nu rho} m_rho the identity reads
    sum_nu (-1)^length(nu) h_nu c_{nu rho} = (-1)^D e_rho for every rho.  Each
    pair gets a signed W-bit slot in one integer per nu for h and one per rho
    for e (Kronecker substitution), W the bit length of
    max(sum|h| max|c|, max|e|) plus 2 with max|c| over the rows of the nu of
    h.  Every slot of either side then lies strictly between -2^(W-2) and
    2^(W-2), so a slot of their difference fits in W signed bits: the sides
    are equal only when every slot is, and `_slots` reads the failing pairs
    back from the difference.  Each row of S(m_nu), read through
    `symfunc._m_antipode_row`, is applied to a whole accumulator in one pass.
    """

    def __init__(self):
        self._groups: dict[int, list] = {}  # D -> [keys, packed h, packed e, slot widths]
        self._rows: dict = {}  # nu -> (row of S(m_nu), max|c| over it)

    def _row(self, nu: Partition) -> tuple:
        if nu not in self._rows:
            row = symfunc._m_antipode_row(nu)
            self._rows[nu] = (row, max((abs(c) for _, c in row), default=0))
        return self._rows[nu]

    def add(self, key, deg: int, h: dict, e: dict) -> None:
        """Fold the expansions h and e of degree deg, as {partition: integer},
        into the accumulators of deg under key; a pair of zeros always holds."""
        if not (h or e):
            return
        keys, packed_h, packed_e, widths = self._groups.setdefault(deg, [[], {}, {}, []])
        offset = sum(widths)
        c = max((self._row(nu)[1] for nu in h), default=0)
        bound = max(sum(map(abs, h.values())) * c, max(map(abs, e.values()), default=0))
        widths.append(bound.bit_length() + 2)
        keys.append(key)
        for nu, v in h.items():
            packed_h[nu] = packed_h.get(nu, 0) + ((-v if len(nu) % 2 else v) << offset)
        for rho, v in e.items():
            packed_e[rho] = packed_e.get(rho, 0) + ((-v if deg % 2 else v) << offset)

    def failing(self) -> set:
        """The keys whose pair breaks the identity, read from the slots of
        every nonzero difference of the packed sides."""
        out = set()
        for keys, packed_h, packed_e, widths in self._groups.values():
            lhs: dict = {}
            for nu, x in packed_h.items():
                for rho, c in self._row(nu)[0]:
                    lhs[rho] = lhs.get(rho, 0) + c * x
            for rho in lhs.keys() | packed_e.keys():
                diff = lhs.get(rho, 0) - packed_e.get(rho, 0)
                if diff:
                    out.update(key for key, v in zip(keys, _slots(diff, widths)) if v)
        return out
