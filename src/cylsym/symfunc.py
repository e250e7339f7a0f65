"""The graded ring of symmetric functions over Q, in five bases.

Internally every product, pairing and coproduct pivots through the power-sum
basis, where multiplication is concatenation of indices and the Hall pairing
is diagonal.  Equality across bases and hashing pivot through the monomial
basis, which power sums reach by integer Pieri rows.  Basis conversions are
computed degree by degree with memoized expansions; the triangular solve
monomial -> power sum serves only conversions out of the monomial basis.
The antipode, omega and the (m, m) coproduct of a monomial expansion stay in
the monomial basis; the first two run in integers by the antipode of
quasisymmetric functions (Malvenuto-Reutenauer, J. Algebra 177, 1995;
Ehrenborg, Adv. Math. 119, 1996).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .partitions import (
    Partition,
    beta_numbers,
    length,
    multiplicity,
    normalize,
    partition_from_betas,
    partitions_of,
    size,
    z_factor,
)

BASES = ("p", "m", "h", "e", "s")

Coeffs = dict[Partition, Fraction]


def _clean(coeffs: Coeffs) -> Coeffs:
    return {lam: c for lam, c in coeffs.items() if c != 0}


@dataclass(frozen=True)
class SymFunc:
    """Sparse symmetric function: a basis tag and a partition -> rational map."""

    basis: str
    coeffs: tuple  # canonical sorted tuple of (partition, Fraction)

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")

    @staticmethod
    def make(basis: str, coeffs: dict) -> "SymFunc":
        """From {partition: integer or Fraction}; zeros are dropped and every
        coefficient is stored as a Fraction."""
        return SymFunc(basis, tuple(sorted((lam, Fraction(c)) for lam, c in coeffs.items() if c)))

    def dict(self) -> Coeffs:
        return dict(self.coeffs)

    def __getitem__(self, lam) -> Fraction:
        lam = normalize(lam)
        return dict(self.coeffs).get(lam, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self) -> set[int]:
        return {size(lam) for lam, _ in self.coeffs}

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis != other.basis:
            other = other.to(self.basis)
        out = dict(self.coeffs)
        for lam, c in other.coeffs:
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFunc.make(self.basis, out)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymFunc.make(
                self.basis, {lam: c * Fraction(other) for lam, c in self.coeffs}
            )
        if not isinstance(other, SymFunc):
            return NotImplemented
        return multiply(self, other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.basis == other.basis:
            return self.coeffs == other.coeffs
        return self.to("m").coeffs == other.to("m").coeffs

    def __hash__(self):
        # equality compares m-expansions across bases, so hashing must too
        return hash(self.to("m").coeffs)

    def to(self, basis: str) -> "SymFunc":
        return convert(self, basis)

    def to_json(self) -> str:
        terms = [
            {"partition": list(lam), "num": c.numerator, "den": c.denominator}
            for lam, c in self.coeffs
        ]
        return json.dumps({"basis": self.basis, "terms": terms})

    @staticmethod
    def from_json(text: str) -> "SymFunc":
        data = json.loads(text)
        coeffs = {
            normalize(t["partition"]): Fraction(t["num"], t["den"])
            for t in data["terms"]
        }
        return SymFunc.make(data["basis"], coeffs)


def sym(basis: str, lam) -> SymFunc:
    """Basis element, e.g. sym('h', (2,1))."""
    return SymFunc.make(basis, {normalize(lam): Fraction(1)})


# ---------------------------------------------------------------------------
# expansions of single basis elements into power sums


def power_sum_counts(counts: dict) -> SymFunc:
    """sum_nu c_nu p_nu / z_nu from the integer counts {nu: c_nu}; h_r is the
    sum with every c_nu = 1 and a Schur function the one with c_nu = chi(nu)."""
    return SymFunc.make("p", {nu: Fraction(c, z_factor(nu)) for nu, c in counts.items()})


@lru_cache(maxsize=None)
def _h_to_p(r: int) -> tuple:
    return power_sum_counts(dict.fromkeys(partitions_of(r), 1)).coeffs


def _pmul(f: Coeffs, g: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for lam, c in f.items():
        for mu, d in g.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, Fraction(0)) + c * d
    return _clean(out)


@lru_cache(maxsize=None)
def _basis_elem_to_p(basis: str, lam: Partition) -> tuple:
    """p-expansion of a single basis element, as a sorted coefficient tuple."""
    if basis == "p":
        return ((lam, Fraction(1)),)
    if basis == "s":
        chi = {mu: mn_character(lam, mu) for mu in partitions_of(size(lam))}
        return power_sum_counts(chi).coeffs
    if basis == "h":
        acc: Coeffs = {(): Fraction(1)}
        for part in lam:
            acc = _pmul(acc, dict(_h_to_p(part)))
        return tuple(sorted(acc.items()))
    if basis == "e":
        return omega(SymFunc("p", _basis_elem_to_p("h", lam))).coeffs
    if basis == "m":
        return tuple(sorted(_m_to_p_solved(size(lam))[lam].items()))
    raise ValueError(basis)


@lru_cache(maxsize=None)
def _m_to_p_solved(deg: int) -> dict[Partition, Coeffs]:
    """Solve for every m_lam of degree deg against the triangular p -> m transition.

    Back substitution: p_rho = sum_mu R[rho][mu] m_mu with R triangular wrt the
    order and a nonzero diagonal, so m_lam = (p_lam - sum_{mu > lam} ...) / R[lam][lam].
    """
    solved: dict[Partition, Coeffs] = {}
    # lex-descending refines dominance, so dominance-larger partitions come first
    for lam in sorted(partitions_of(deg), reverse=True):
        row = p_to_m_row(lam)
        expr: Coeffs = {lam: Fraction(1)}
        for mu, coef in row.items():
            if mu == lam:
                continue
            for rho, c in solved[mu].items():
                expr[rho] = expr.get(rho, Fraction(0)) - coef * c
        diag = row[lam]
        solved[lam] = _clean({rho: c / diag for rho, c in expr.items()})
    return solved


@lru_cache(maxsize=None)
def p_to_m_row(rho: Partition) -> Coeffs:
    """Expansion p_rho = sum_mu R[rho][mu] m_mu via the one-power-sum Pieri rule."""
    acc: Coeffs = {(): Fraction(1)}
    for r in rho:
        nxt: Coeffs = {}
        for sig, c in acc.items():
            for tau, mult in _monomial_times_power(sig, r):
                nxt[tau] = nxt.get(tau, Fraction(0)) + c * mult
        acc = nxt
    return _clean(acc)


@lru_cache(maxsize=None)
def _monomial_times_power(sig: Partition, r: int) -> tuple:
    """m_sig * p_r = sum (m_x(sig') + ... ) m_sig'; one part grows by r."""
    out: dict[Partition, int] = {}
    candidates = {0} | set(sig)
    for y in candidates:
        grown = y + r
        stripped = list(sig)
        if y:
            stripped.remove(y)
        new = normalize(tuple(stripped) + (grown,))
        out[new] = out.get(new, 0) + multiplicity(new, grown)
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# conversions


def to_p(f: SymFunc) -> SymFunc:
    if f.basis == "p":
        return f
    out: Coeffs = {}
    for lam, c in f.coeffs:
        for rho, d in _basis_elem_to_p(f.basis, lam):
            out[rho] = out.get(rho, Fraction(0)) + c * d
    return SymFunc.make("p", out)


def convert(f: SymFunc, basis: str) -> SymFunc:
    """Exact change of basis; the inverse directions pair against dual bases."""
    if basis == f.basis:
        return f
    fp = to_p(f)
    if basis == "p":
        return fp
    if basis == "m":
        out: Coeffs = {}
        for rho, c in fp.coeffs:
            for mu, r in p_to_m_row(rho).items():
                out[mu] = out.get(mu, Fraction(0)) + c * r
        return SymFunc.make("m", out)
    if basis == "s":
        # <f, s_sig> over orthonormal Schur functions
        out = {}
        for deg in fp.degrees():
            for sig in partitions_of(deg):
                val = Fraction(0)
                for rho, c in fp.coeffs:
                    if size(rho) == deg:
                        val += c * mn_character(sig, rho)
                if val:
                    out[sig] = val
        return SymFunc.make("s", out)
    if basis == "h":
        # f = sum <f, m_nu> h_nu since h and m are dual
        out = {}
        for deg in fp.degrees():
            for nu in partitions_of(deg):
                val = hall_inner(fp, sym("m", nu))
                if val:
                    out[nu] = val
        return SymFunc.make("h", out)
    if basis == "e":
        return SymFunc.make("e", dict(convert(omega(fp), "h").coeffs))
    raise ValueError(basis)


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product, computed in the p basis and returned in f's basis."""
    prod_p = SymFunc.make("p", _pmul(to_p(f).dict(), to_p(g).dict()))
    return convert(prod_p, f.basis)


def hall_inner(f: SymFunc, g: SymFunc) -> Fraction:
    """Hall pairing: <p_lam, p_mu> = delta * z_lam, extended bilinearly."""
    fp, gp = to_p(f).dict(), to_p(g).dict()
    if len(gp) < len(fp):
        fp, gp = gp, fp
    total = Fraction(0)
    for rho, c in fp.items():
        d = gp.get(rho)
        if d:
            total += c * d * z_factor(rho)
    return total


def omega(f: SymFunc) -> SymFunc:
    """Involution p_r -> (-1)^(r-1) p_r; swaps h and e.

    On the monomial basis omega = (-1)^degree antipode, read off the integer
    antipode rows; other bases pivot through p.
    """
    if f.basis == "m":
        return _m_antipode(f, by_degree=True)
    out = {rho: c * sign_character(rho) for rho, c in to_p(f).coeffs}
    return convert(SymFunc.make("p", out), f.basis)


def antipode(f: SymFunc) -> SymFunc:
    """Hopf antipode: p_r -> -p_r, so p_rho picks up (-1)^length.

    Monomial input stays in the monomial basis through `_m_antipode_row`;
    other bases pivot through p.
    """
    if f.basis == "m":
        return _m_antipode(f, by_degree=False)
    out = {
        rho: c * (-1 if length(rho) % 2 else 1) for rho, c in to_p(f).coeffs
    }
    return convert(SymFunc.make("p", out), f.basis)


def _m_antipode(f: SymFunc, by_degree: bool) -> SymFunc:
    """Antipode of a monomial expansion, times (-1)^degree when by_degree.

    S(m_lam) = (-1)^length(lam) sum_mu c_{lam mu} m_mu with the integer rows of
    `_m_antipode_row`, so the sum runs in integers over the lcm of the input's
    denominators, with one Fraction per output term.
    """
    den = lcm(*(c.denominator for _, c in f.coeffs))
    acc: dict[Partition, int] = {}
    for lam, c in f.coeffs:
        a = c.numerator * (den // c.denominator)
        if (len(lam) + (size(lam) if by_degree else 0)) % 2:
            a = -a
        for mu, r in _m_antipode_row(lam):
            acc[mu] = acc.get(mu, 0) + a * r
    return SymFunc.make("m", {mu: Fraction(v, den) for mu, v in acc.items() if v})


@lru_cache(maxsize=None)
def _m_antipode_row(lam: Partition) -> tuple:
    """The (mu, c_{lam mu}) of S(m_lam) = (-1)^length(lam) sum_mu c_{lam mu} m_mu.

    c_{lam mu} counts the distinct arrangements of lam's parts that cut into
    consecutive blocks summing to mu_1, mu_2, ... in order.  This is the
    quasisymmetric antipode S(M_alpha) = (-1)^length(alpha) sum M_beta over
    the compositions beta coarser than alpha reversed (Malvenuto-Reutenauer,
    J. Algebra 177, 1995; Ehrenborg, Adv. Math. 119, 1996), summed over the
    arrangements alpha of lam.  The row recurses on its last block B, of least
    sum: each non-empty sub-multiset B, in its length(B)!/prod t_v! orders,
    extends every rho of the row of lam minus B with last part at least |B|.
    Rows list mu by decreasing last part, so each scan stops at the first rho
    too small; the recursion reads the memo as `_rows`, out of reach of a
    rebound `_m_antipode_row`, and each mu is the one tuple of `_ROW_KEYS`.
    """
    if not lam:
        return (((), 1),)
    blocks = [(0, 0, 1, ())]  # (|B|, length(B), prod of t_v!, lam minus B) per B
    for v in sorted(set(lam), reverse=True):
        m = multiplicity(lam, v)
        blocks = [
            (s + v * t, ell + t, den * factorial(t), rest + (v,) * (m - t))
            for s, ell, den, rest in blocks
            for t in range(m + 1)
        ]
    blocks.sort(reverse=True)  # by decreasing |B|: the empty block comes last
    out: dict[Partition, int] = {}
    for s, ell, den, rest in blocks[:-1]:
        orders = factorial(ell) // den
        for rho, c in _rows(rest):
            if rho and rho[-1] < s:
                break
            mu = rho + (s,)
            out[mu] = out.get(mu, 0) + orders * c
    return tuple((_ROW_KEYS.setdefault(mu, mu), c) for mu, c in out.items())


_rows = _m_antipode_row
_ROW_KEYS: dict[Partition, Partition] = {}


# ---------------------------------------------------------------------------
# tensor square, coproduct


@dataclass(frozen=True)
class TensorSymFunc:
    """Element of Lambda (x) Lambda with a basis tag per factor."""

    bases: tuple[str, str]
    coeffs: tuple  # sorted ((lam, mu), Fraction) pairs

    @staticmethod
    def make(bases, coeffs) -> "TensorSymFunc":
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return TensorSymFunc(tuple(bases), items)

    def dict(self):
        return dict(self.coeffs)

    def __add__(self, other: "TensorSymFunc") -> "TensorSymFunc":
        if not isinstance(other, TensorSymFunc):
            return NotImplemented
        if self.bases != other.bases:
            other = other.to(self.bases)
        out = dict(self.coeffs)
        for k, v in other.coeffs:
            out[k] = out.get(k, Fraction(0)) + v
        return TensorSymFunc.make(self.bases, out)

    def to(self, bases) -> "TensorSymFunc":
        bases = tuple(bases)
        if bases == self.bases:
            return self
        out: dict = {}
        for (lam, mu), c in self.coeffs:
            left = convert(sym(self.bases[0], lam), bases[0])
            right = convert(sym(self.bases[1], mu), bases[1])
            for a, ca in left.coeffs:
                for b, cb in right.coeffs:
                    key = (a, b)
                    out[key] = out.get(key, Fraction(0)) + c * ca * cb
        return TensorSymFunc.make(bases, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorSymFunc):
            return NotImplemented
        if self.bases == other.bases:
            return self.coeffs == other.coeffs
        return self.to(("m", "m")).coeffs == other.to(("m", "m")).coeffs

    def __hash__(self):
        return hash(self.to(("m", "m")).coeffs)


@lru_cache(maxsize=None)
def _p_splits(rho: Partition) -> tuple:
    """All multiset splits of rho with multinomial multiplicities.

    Values are taken in decreasing order, so both sides come out as partitions.
    """
    splits = [((), (), 1)]
    for v in sorted(set(rho), reverse=True):
        m = multiplicity(rho, v)
        new = []
        for left, right, mult in splits:
            for take in range(m + 1):
                new.append(
                    (
                        left + (v,) * take,
                        right + (v,) * (m - take),
                        mult * comb(m, take),
                    )
                )
        splits = new
    return tuple(splits)


def coproduct(f: SymFunc, bases=("p", "p")) -> TensorSymFunc:
    """Delta with primitive power sums: Delta(p_r) = p_r (x) 1 + 1 (x) p_r.

    A monomial expansion asked for in (m, m) stays in monomials:
    Delta(m_lam) = sum m_a (x) m_b over the multiset splits (a, b) of lam's
    parts, each once.  Other bases pivot through p.
    """
    out: dict = {}
    if f.basis == "m" and tuple(bases) == ("m", "m"):
        for lam, c in f.coeffs:
            for left, right, _ in _p_splits(lam):
                out[(left, right)] = out.get((left, right), Fraction(0)) + c
        return TensorSymFunc.make(("m", "m"), out)
    for rho, c in to_p(f).coeffs:
        for left, right, mult in _p_splits(rho):
            out[(left, right)] = out.get((left, right), Fraction(0)) + c * mult
    return TensorSymFunc.make(("p", "p"), out).to(bases)


# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama on beta numbers)


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character of the symmetric group: shape lam at cycle type mu."""
    lam, mu = normalize(lam), normalize(mu)
    if size(lam) != size(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    betas = frozenset(beta_numbers(lam, max(len(lam), 1)))
    total = 0
    for b in betas:
        if b >= r and (b - r) not in betas:
            crossed = sum(1 for x in betas if b - r < x < b)
            sub = partition_from_betas(betas - {b} | {b - r})
            total += (-1) ** crossed * mn_character(sub, rest)
    return total


def sign_character(mu: Partition) -> int:
    return -1 if (size(mu) - length(mu)) % 2 else 1


# ---------------------------------------------------------------------------
# straightening and the raising-operator expansion of monomial functions


def schur_straighten(v) -> tuple[int, Partition] | None:
    """Normalise a Schur index by the exchange rule; None when the term vanishes.

    The rule (..., a, b, ...) -> -(..., b-1, a+1, ...) swaps two entries of
    w = v + (l, ..., 1), l = len(v).  So the term vanishes when w has a
    repeated entry, and otherwise its sign is the parity of the sort of w into
    decreasing order.  The result, sorted w minus (l, ..., 1), also vanishes
    when its last part is negative; trailing zeros are dropped.
    """
    ell = len(v)
    w = [x + ell - i for i, x in enumerate(v)]
    if len(set(w)) < ell:
        return None
    inversions = sum(a < b for i, a in enumerate(w) for b in w[i + 1 :])
    w.sort(reverse=True)
    lam = [x - ell + i for i, x in enumerate(w)]
    if lam and lam[-1] < 0:
        return None
    return (-1 if inversions % 2 else 1), tuple(x for x in lam if x)


def monomial_in_schur(lam: Partition) -> SymFunc:
    """Expansion of m_lam in Schur functions by raising operators with straightening."""
    lam = normalize(lam)
    if not lam:
        return sym("s", ())
    n_slots = max(size(lam), len(lam))
    padded = tuple(lam) + (0,) * (n_slots - len(lam))
    pairs = [
        (i, j)
        for i in range(n_slots)
        for j in range(i + 1, n_slots)
        if padded[i] > padded[j]
    ]
    out: Coeffs = {}

    def rec(idx: int, vec: tuple, sign: int):
        if idx == len(pairs):
            res = schur_straighten(vec)
            if res is not None:
                s2, part = res
                out[part] = out.get(part, Fraction(0)) + sign * s2
            return
        rec(idx + 1, vec, sign)
        i, j = pairs[idx]
        lowered = list(vec)
        lowered[i] -= 1
        lowered[j] += 1
        rec(idx + 1, tuple(lowered), -sign)

    rec(0, padded, 1)
    return SymFunc.make("s", out)
