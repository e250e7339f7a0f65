"""Exact arithmetic in Q(zeta_n), the field of n-th roots of unity.

Elements are residues modulo the n-th cyclotomic polynomial, stored as a
rational coefficient vector of length phi(n).  Phi_n is irreducible over Q, so
representatives are unique and equality is coefficient equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

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


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            for j in range(deg + 1):
                c[i - deg + j] -= top * phi[j]
        c.pop()
    while len(c) < deg:
        c.append(Fraction(0))
    return tuple(c)


@dataclass(frozen=True)
class CycloNum:
    """Element of Q(zeta_n) as a length-phi(n) rational vector mod Phi_n."""

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.n):
            raise ValueError("coefficient vector has the wrong length")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(n: int, value) -> "CycloNum":
        c = [Fraction(value)] + [Fraction(0)] * (euler_phi(n) - 1)
        return CycloNum(n, tuple(c))

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
        self._check(other)
        return CycloNum(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        self._check(other)
        return CycloNum(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloNum(self.n, tuple(a * q for a in self.coeffs))
        self._check(other)
        m = len(self.coeffs)
        prod = [Fraction(0)] * (2 * m - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloNum(self.n, _reduce_mod_phi(prod, self.n))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inv(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_n)")
        phi = [Fraction(c) for c in cyclotomic_poly(self.n)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 is now a nonzero constant gcd
        c = r0[0]
        inv_coeffs = [x / c for x in s0]
        return CycloNum(self.n, _reduce_mod_phi(inv_coeffs, self.n))

    def __truediv__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return self * other.inv()

    def conjugate(self) -> "CycloNum":
        """Complex conjugation zeta -> zeta^(-1)."""
        out = CycloNum.zero(self.n)
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + zeta_pow(self.n, -i) * c
        return out

    # -- coercions ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if any(c != 0 for c in self.coeffs[1:]):
            raise NonIntegralError(self, "not a rational number")
        return self.coeffs[0]

    def to_integer(self) -> int:
        q = self.to_fraction()
        if q.denominator != 1:
            raise NonIntegralError(self, "not an integer")
        return q.numerator

    def __repr__(self) -> str:
        terms = [f"{c}*z^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return f"CycloNum(n={self.n}, {' + '.join(terms) or '0'})"


def _polydivmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        pos = len(a) - len(b)
        q[pos] = f
        for i, c in enumerate(b):
            a[pos + i] -= f * c
        while a and a[-1] == 0:
            a.pop()
    return q, a or [Fraction(0)]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _polysub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


@lru_cache(maxsize=None)
def zeta_pow(n: int, e: int) -> CycloNum:
    """zeta_n^e as a reduced residue."""
    e = e % n
    mono = [Fraction(0)] * (e + 1)
    mono[e] = Fraction(1)
    return CycloNum(n, _reduce_mod_phi(mono, n))


# ---------------------------------------------------------------------------
# specialised evaluations


def eval_msym(lam, p: Weight, n: int) -> CycloNum:
    """Monomial symmetric function at zeta powers: sum over distinct permutations
    alpha of lam (padded to len(p)) of zeta^(p . alpha)."""
    k = len(p)
    padded = tuple(lam) + (0,) * (k - len(lam))
    if len(padded) != k:
        raise ValueError(f"{lam} has more than {k} parts")
    total = CycloNum.zero(n)
    for alpha in distinct_permutations(padded):
        e = sum(pi * ai for pi, ai in zip(p, alpha))
        total = total + zeta_pow(n, e)
    return total


def eval_alternant(lam: Weight, sigma: Weight, n: int) -> CycloNum:
    """det(zeta^(sigma_j * lam_i)) by Leibniz expansion."""
    k = len(lam)
    if len(sigma) != k:
        raise ValueError("rank mismatch")
    total = CycloNum.zero(n)
    for perm, sign in _signed_permutations(k):
        e = sum(lam[i] * sigma[perm[i]] for i in range(k))
        term = zeta_pow(n, e)
        total = total + (term if sign > 0 else -term)
    return total


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
    gauss = reduce(
        lambda acc, a: acc + zeta_pow(n_field, step * (a * a % p)),
        range(p),
        CycloNum.zero(n_field),
    )
    if p % 4 == 1:
        return gauss
    # gauss^2 = -p here, divide by i
    i_unit = zeta_pow(n_field, n_field // 4)
    return gauss * i_unit.inv()
