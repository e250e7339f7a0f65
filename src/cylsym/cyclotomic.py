"""Exact arithmetic in Q(zeta_n), the field of n-th roots of unity.

Elements are residues modulo the n-th cyclotomic polynomial, stored as a
vector of phi(n) integer numerators over one positive denominator, in lowest
terms.  Phi_n is irreducible over Q, so representatives are unique and
equality is coefficient equality.  The Galois action zeta -> zeta^a gives both
complex conjugation (a = -1) and the inverse, by the norm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .partitions import Weight, distinct_permutations


class NonIntegralError(ValueError):
    """A cyclotomic number expected to be a (rational) integer was not.

    Carries the offending residue; signals a formula bug upstream.
    """

    def __init__(self, value: "CycloNum", message: str):
        super().__init__(f"{message}: {value}")
        self.value = value


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of Phi_n, by dividing x^n - 1 by the proper Phi_d."""
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_polydiv(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _exact_polydiv(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials known to divide exactly (monic divisor)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        out[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    if any(num[: len(den) - 1]):
        raise ValueError("polynomial division is not exact")
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the nonzero (j, c) of Phi_n below its leading term)."""
    phi = cyclotomic_poly(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(coeffs: list[int], n: int) -> list[int]:
    """Residue of sum c_i x^i modulo the monic integer Phi_n: phi(n) integers."""
    deg, tail = _phi_tail(n)
    c = list(coeffs) + [0] * (deg - len(coeffs))
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for j, p in tail:
                c[i - deg + j] -= top * p
    return c[:deg]


class CycloNum:
    """Element of Q(zeta_n): integer numerators `num` of the powers
    zeta^0 .. zeta^(phi(n)-1) modulo Phi_n, over one denominator `den` > 0.

    The pair is kept in lowest terms, so equality and hashing are value
    equality.  `CycloNum(n, coeffs)` takes any rational vector of length
    phi(n).  Instances are immutable.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        q = [Fraction(c) for c in coeffs]
        if len(q) != euler_phi(n):
            raise ValueError("coefficient vector has the wrong length")
        den = lcm(*(c.denominator for c in q))
        self._fill(n, [c.numerator * (den // c.denominator) for c in q], den)

    def _fill(self, n: int, num, den: int) -> "CycloNum":
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def _of(n: int, num, den: int = 1) -> "CycloNum":
        """num / den for integer numerators and den > 0, put in lowest terms."""
        return object.__new__(CycloNum)._fill(n, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    def __reduce__(self):
        return CycloNum._of, (self.n, self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(n: int, value) -> "CycloNum":
        q = Fraction(value)
        return CycloNum._of(n, [q.numerator] + [0] * (euler_phi(n) - 1), q.denominator)

    @staticmethod
    def zero(n: int) -> "CycloNum":
        return CycloNum.from_rational(n, 0)

    @staticmethod
    def one(n: int) -> "CycloNum":
        return CycloNum.from_rational(n, 1)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycloNum"):
        if self.n != other.n:
            raise ValueError(f"mixing Q(zeta_{self.n}) and Q(zeta_{other.n})")

    def __add__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        a, b = self.den, other.den
        return CycloNum._of(
            self.n, [x * b + y * a for x, y in zip(self.num, other.num)], a * b
        )

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "CycloNum":
        return CycloNum._of(self.n, [-x for x in self.num], self.den)

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            self._check(other)
            a, b = self.num, other.num
            prod = [0] * (2 * len(a) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        prod[j] += x * y
            return CycloNum._of(self.n, _reduce_mod_phi(prod, self.n), self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return CycloNum._of(
            self.n, [x * other.numerator for x in self.num], self.den * other.denominator
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.num)

    def _galois(self, a: int) -> "CycloNum":
        """sigma_a: zeta -> zeta^a, for a coprime to n."""
        n = self.n
        spread = [0] * n
        for i, c in enumerate(self.num):
            spread[a * i % n] = c
        return CycloNum._of(n, _reduce_mod_phi(spread, n), self.den)

    def inv(self) -> "CycloNum":
        """Multiplicative inverse by the norm: x^-1 = prod_{a != 1} sigma_a(x) / N(x)
        over the units a mod n (Cohen, GTM 138, section 4.3)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        rest = CycloNum.one(self.n)
        for a in range(2, self.n):
            if gcd(a, self.n) == 1:
                rest = rest * self._galois(a)
        return rest * (1 / (self * rest).to_fraction())

    def conjugate(self) -> "CycloNum":
        """Complex conjugation zeta -> zeta^(-1), the Galois action sigma_{-1}."""
        return self._galois(-1)

    # -- coercions ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if any(self.num[1:]):
            raise NonIntegralError(self, "not a rational number")
        return Fraction(self.num[0], self.den)

    def to_integer(self) -> int:
        q = self.to_fraction()
        if q.denominator != 1:
            raise NonIntegralError(self, "not an integer")
        return q.numerator

    def __repr__(self) -> str:
        terms = [f"{Fraction(c, self.den)}*z^{i}" for i, c in enumerate(self.num) if c]
        return f"CycloNum(n={self.n}, {' + '.join(terms) or '0'})"


def _root_sum(n: int, terms) -> CycloNum:
    """sum of c * zeta_n^e over the (e, c) in terms, with one reduction by Phi_n."""
    counts = [0] * n
    for e, c in terms:
        counts[e % n] += c
    return CycloNum._of(n, _reduce_mod_phi(counts, n))


@lru_cache(maxsize=None)
def zeta_pow(n: int, e: int) -> CycloNum:
    """zeta_n^e as a reduced residue."""
    return _root_sum(n, ((e, 1),))


# ---------------------------------------------------------------------------
# specialised evaluations


def msym_exponents(lam, p: Weight, n: int) -> list[int]:
    """m_lam(zeta^p) in the group ring Z[x]/(x^n - 1): entry e counts the
    distinct permutations alpha of lam (padded to len(p)) with p . alpha = e mod n."""
    padded = tuple(lam) + (0,) * (len(p) - len(lam))
    if len(padded) != len(p):
        raise ValueError(f"{lam} has more than {len(p)} parts")
    counts = [0] * n
    for alpha in distinct_permutations(padded):
        counts[sum(pi * ai for pi, ai in zip(p, alpha)) % n] += 1
    return counts


def eval_msym(lam, p: Weight, n: int) -> CycloNum:
    """Monomial symmetric function at zeta powers: msym_exponents reduced by Phi_n."""
    return CycloNum._of(n, _reduce_mod_phi(msym_exponents(lam, p, n), n))


def alternant_exponents(lam: Weight, sigma: Weight, n: int) -> list[int]:
    """det(zeta^(sigma_j * lam_i)) in the group ring Z[x]/(x^n - 1) by Leibniz
    expansion: entry e is the signed count of the permutations with exponent e mod n."""
    k = len(lam)
    if len(sigma) != k:
        raise ValueError("rank mismatch")
    counts = [0] * n
    for perm, sign in _signed_permutations(k):
        counts[sum(lam[i] * sigma[perm[i]] for i in range(k)) % n] += sign
    return counts


def eval_alternant(lam: Weight, sigma: Weight, n: int) -> CycloNum:
    """det(zeta^(sigma_j * lam_i)): alternant_exponents reduced by Phi_n."""
    return CycloNum._of(n, _reduce_mod_phi(alternant_exponents(lam, sigma, n), n))


@lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    from itertools import permutations

    out = []
    for perm in permutations(range(k)):
        inv = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact square roots of integers, for the scaled modular matrices


def sqrt_int(m: int, n_field: int) -> CycloNum:
    """sqrt(m) for m >= 1 inside Q(zeta_{n_field}), via quadratic Gauss sums.

    Requires 8 | n_field and p | n_field for every odd prime factor p of m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    root = CycloNum.from_rational(n_field, 1)
    sq = 1
    rest = m
    f = 2
    fac: dict[int, int] = {}
    while f * f <= rest:
        while rest % f == 0:
            fac[f] = fac.get(f, 0) + 1
            rest //= f
        f += 1
    if rest > 1:
        fac[rest] = fac.get(rest, 0) + 1
    for p, e in fac.items():
        sq *= p ** (e // 2)
        if e % 2:
            root = root * _sqrt_prime(p, n_field)
    result = root * sq
    if (result * result).to_integer() != m:
        raise ValueError(f"square root of {m} squares to the wrong value")
    return result


def _sqrt_prime(p: int, n_field: int) -> CycloNum:
    if p == 2:
        if n_field % 8 != 0:
            raise ValueError("need 8 | n_field for sqrt(2)")
        z8 = zeta_pow(n_field, n_field // 8)
        return z8 + z8.conjugate()
    if n_field % p != 0 or n_field % 4 != 0:
        raise ValueError(f"need 4p | n_field for sqrt({p})")
    step = n_field // p
    gauss = _root_sum(n_field, ((step * a * a, 1) for a in range(p)))
    if p % 4 == 1:
        return gauss
    # gauss^2 = -p here; divide by i, whose inverse is its conjugate
    i_unit = zeta_pow(n_field, n_field // 4)
    return gauss * i_unit.conjugate()
