"""Cylindric reverse plane partitions and the cylindric complete/elementary functions.

Everything is organised around layered loop-to-loop transitions: a CRPP is a
chain of cylindric loops, each step carrying a closed-form weight in the
column counts (theta for general steps, psi for vertical strips, phi for
adjacent-column strips).  The
same transfer engine produces single weighted counts, full monomial expansions
and explicit CRPP enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .affine import is_valid_shape, loop_value
from .fusion import fusion_count
from .partitions import (
    AlcoveWeight,
    Partition,
    _comb0,
    _conj_padded,
    _scan_successors,
    distinct_permutations,
    enumerate_alcove,
    multiplicity,
    normalize,
    partitions_of,
    reduce_to_alcove,
    size,
    stab_order,
    transfer,
    transfer_expansion,
    z_factor,
)
from .symfunc import SymFunc, TensorSymFunc, antipode, coproduct, tensor


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


def theta_cyl_oracle(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> int:
    """Brute count of pairs (w, beta): mu.w <= lam + n*beta, beta >= 0, |beta| = d."""
    lam.same_context(mu)
    if d < 0:
        return 0
    n, k = lam.n, lam.k
    count = 0
    for alpha in distinct_permutations(mu.parts):
        for beta in _compositions(d, k):
            if all(a <= l + n * b for a, l, b in zip(alpha, lam.parts, beta)):
                count += 1
    return count


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


def psi_cyl_oracle(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> int:
    """Brute count of (w, alpha) with lam - mu.w + n*alpha having all entries 0 or 1."""
    lam.same_context(mu)
    if d < 0:
        return 0
    n, k = lam.n, lam.k
    count = 0
    for perm in distinct_permutations(mu.parts):
        for alpha in _compositions(d, k):
            if all(l - p + n * a in (0, 1) for l, p, a in zip(lam.parts, perm, alpha)):
                count += 1
    return count


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


def psi_weight(lam: AlcoveWeight, d: int, mu: AlcoveWeight, nu) -> int:
    return _weight(lam, d, mu, nu, "row-strict")


def phi_weight(lam: AlcoveWeight, d: int, mu: AlcoveWeight, nu) -> int:
    return _weight(lam, d, mu, nu, "adjacent-column")


def _weight_expansion(lam: AlcoveWeight, d: int, mu: AlcoveWeight, kind: str) -> dict:
    """Coefficients {partition nu: weighted CRPP count}."""
    deg = lam.size - mu.size + lam.n * d
    return transfer_expansion(mu, lam, d, deg, lambda w, r: _successors(w, r, kind))


# ---------------------------------------------------------------------------
# the cylindric complete and elementary symmetric functions


def cyl_h(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    """Cylindric complete symmetric function, expanded over monomials."""
    table = _weight_expansion(lam, d, mu, "general")
    return SymFunc.make("m", {nu: Fraction(c) for nu, c in table.items()})


def cyl_e(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    """Cylindric elementary symmetric function, expanded over monomials."""
    table = _weight_expansion(lam, d, mu, "row-strict")
    return SymFunc.make("m", {nu: Fraction(c) for nu, c in table.items()})


def cyl_h_in_h(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    """Complete-basis expansion with extended fusion coefficients as weights."""
    lam.same_context(mu)
    n, k = lam.n, lam.k
    deg = lam.size - mu.size + n * d
    if d < 0 or deg < 0:
        return SymFunc.make("h", {})
    out = {}
    for nu in partitions_of(deg, max_len=k):
        c = fusion_count(lam.parts, mu.parts, nu, n, k)
        if c:
            out[nu] = Fraction(c)
    return SymFunc.make("h", out)


def cyl_e_in_e(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> SymFunc:
    f = cyl_h_in_h(lam, d, mu)
    return SymFunc.make("e", dict(f.coeffs))


def cyl_p_expand(lam: AlcoveWeight, d: int, mu: AlcoveWeight, kind: str = "h") -> SymFunc:
    """Power-sum expansion via adjacent-column plane partitions."""
    if kind not in ("h", "e"):
        raise ValueError(kind)
    table = _weight_expansion(lam, d, mu, "adjacent-column")
    out = {}
    for nu, c in table.items():
        coef = Fraction(c, z_factor(nu))
        if kind == "e" and (size(nu) - len(nu)) % 2:
            coef = -coef
        out[nu] = coef
    return SymFunc.make("p", out)


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
    s_lam = stab_order(lam.parts)
    for nu in partitions_of(target, max_len=k):
        padded = tuple(nu) + (0,) * (k - len(nu))
        rep, _ = reduce_to_alcove(padded, n, k)
        if rep == lam:
            num, rem = divmod(s_lam, stab_order(padded))
            if rem:
                raise ValueError(f"orbit coefficient at {nu} is not an integer")
            out[nu] = Fraction(num)
    return SymFunc.make("h", out)


def cyl_in_nonskew(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> dict:
    """Coefficients {(sigma, e): N} with h_{lam/d/mu} = sum N * h_{sigma/e/n^k}."""
    lam.same_context(mu)
    n, k = lam.n, lam.k
    out = {}
    for d_prime in range(0, d + k + 1):
        target = d_prime * n + lam.size - mu.size
        for sigma in enumerate_alcove(n, k):
            if sigma.size != target:
                continue
            c = fusion_count(lam.parts, mu.parts, sigma.parts, n, k)
            if c:
                out[(sigma, k + d - d_prime)] = c
    return out


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

    def theta_value(self) -> int:
        out = 1
        for (w1, e1), (w2, e2) in zip(self.loops, self.loops[1:]):
            out *= theta_cyl(w2, e2 - e1, w1)
        return out

    def psi_value(self) -> int:
        out = 1
        for (w1, e1), (w2, e2) in zip(self.loops, self.loops[1:]):
            out *= psi_cyl(w2, e2 - e1, w1)
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
# coproduct identity


def coproduct_cyl_check(lam: AlcoveWeight, d: int, mu: AlcoveWeight, kind: str = "h") -> bool:
    """Check Delta(f_{lam/d/mu}) = sum over d1+d2=d, nu of f_{lam/d1/nu} (x) f_{nu/d2/mu}."""
    if kind not in ("h", "e"):
        raise ValueError(kind)
    fn = cyl_h if kind == "h" else cyl_e
    lhs = coproduct(fn(lam, d, mu), bases=("m", "m"))
    rhs: dict = {}
    for d1 in range(0, d + 1):
        d2 = d - d1
        for nu in enumerate_alcove(lam.n, lam.k):
            left = fn(lam, d1, nu)
            if left.is_zero():
                continue
            right = fn(nu, d2, mu)
            if right.is_zero():
                continue
            for key, c in tensor(left, right).coeffs:
                rhs[key] = rhs.get(key, Fraction(0)) + c
    return lhs == TensorSymFunc.make(("m", "m"), rhs)


def antipode_check(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> bool:
    """gamma(h_{lam/d/mu}) = (-1)^(degree) e_{lam/d/mu}."""
    deg = lam.size - mu.size + lam.n * d
    lhs = antipode(cyl_h(lam, d, mu))
    rhs = cyl_e(lam, d, mu) * (-1 if deg % 2 else 1)
    return lhs == rhs
