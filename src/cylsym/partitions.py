"""Partitions, weights, alcoves and the index combinatorics shared by all modules.

Partitions are plain tuples of weakly decreasing positive ints (canonical form
has no trailing zeros).  Weights are plain int tuples of a fixed rank and may
contain zeros or repeats.  Alcove and boxed weights carry their (n, k) context
so that mixing contexts is a detectable error rather than a silent bug.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, combinations
from math import comb, factorial, prod

Partition = tuple[int, ...]
Weight = tuple[int, ...]


class ContextMismatchError(ValueError):
    """Raised when alcove/boxed weights from different (n, k) contexts are mixed."""


# ---------------------------------------------------------------------------
# basic partition algebra


def normalize(parts) -> Partition:
    """Canonical partition: weakly decreasing, trailing zeros removed."""
    p = tuple(sorted((x for x in parts if x != 0), reverse=True))
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in {parts!r}")
    return p


def is_partition(parts) -> bool:
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)) and all(
        x >= 0 for x in parts
    )


def size(lam: Partition) -> int:
    return sum(lam)


def length(lam: Partition) -> int:
    return len([x for x in lam if x > 0])


def conjugate(lam: Partition) -> Partition:
    """conjugate(lam)[i-1] = #{j : lam_j >= i}."""
    lam = normalize(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x >= i) for i in range(1, lam[0] + 1))


@lru_cache(maxsize=None)
def _conj_padded(parts: Partition, n: int) -> tuple[int, ...]:
    """Column counts lam'_1, ..., lam'_n: the conjugate padded with zeros to n
    entries, for parts at most n (alcove and strict weights).  The cylindric
    step weights and strips are conditions on lam'_c + d - mu'_c."""
    c = conjugate(parts)
    return tuple(c) + (0,) * (n - len(c))


def multiplicity(lam, value: int) -> int:
    return sum(1 for x in lam if x == value)


def z_factor(lam: Partition) -> int:
    """Order of the centraliser of a permutation of cycle type lam."""
    z = 1
    for v in set(lam):
        if v > 0:
            m = multiplicity(lam, v)
            z *= v**m * factorial(m)
    return z


def stab_order(mu: Weight) -> int:
    """Order of the stabiliser of mu in S_len(mu); counts repeats of every value, zeros included."""
    out = 1
    for v in set(mu):
        out *= factorial(multiplicity(mu, v))
    return out


def quantum_dim(lam: Weight, k: int) -> int:
    """Multinomial k! / prod over value multiplicities; an integer."""
    if len(lam) != k:
        raise ValueError(f"weight {lam} does not have rank {k}")
    d, rem = divmod(factorial(k), stab_order(lam))
    if rem:
        raise ValueError(f"k! is not divisible by the stabiliser order of {lam}")
    return d


def hooks(lam: Partition) -> list[int]:
    lam = normalize(lam)
    lamc = conjugate(lam)
    return [
        lam[i] + lamc[j] - i - j - 1
        for i in range(len(lam))
        for j in range(lam[i])
    ]


def standard_tableaux_count(lam: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    lam = normalize(lam)
    f, rem = divmod(factorial(size(lam)), prod(hooks(lam)) if lam else 1)
    if rem:
        raise ValueError(f"hook length formula gives a non-integer at {lam}")
    return f


def partitions_of(m: int, max_part: int | None = None, max_len: int | None = None):
    """Yield all partitions of m (descending parts), optionally bounded."""
    if m < 0:
        return
    first = m if max_part is None else min(m, max_part)

    def rec(remaining, biggest, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        if max_len is not None and len(acc) >= max_len:
            return
        for part in range(min(biggest, remaining), 0, -1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    if m == 0:
        yield ()
    else:
        yield from rec(m, first, [])


def _comb0(a: int, b: int) -> int:
    """Binomial that vanishes whenever an argument is negative."""
    if a < 0 or b < 0:
        return 0
    return comb(a, b)


# ---------------------------------------------------------------------------
# layered transfer over (state, winding) pairs
#
# A chain of states (loops on the cylinder, boxed partitions, flat partitions)
# is grown one layer at a time; successors(state, r) yields every
# (state', extra_winding, coeff) for a layer of r boxes.  A vector maps
# (state, winding) to the summed coefficient of all chains ending there.


def _layer(vec: dict, r: int, dmax: int, successors) -> dict:
    out: dict = {}
    for (w1, e1), c in vec.items():
        for w2, de, coeff in successors(w1, r):
            e2 = e1 + de
            if e2 <= dmax:
                key = (w2, e2)
                out[key] = out.get(key, 0) + c * coeff
    return out


def transfer(start, end, dmax: int, weight, successors) -> int:
    """Summed coefficient of all chains start -> end of winding dmax whose
    layers add weight[0], weight[1], ... boxes; zero layers are skipped."""
    weight = tuple(weight)
    if any(r < 0 for r in weight):
        raise ValueError(f"weight entries must be non-negative: {weight}")
    vec = {(start, 0): 1}
    for r in weight:
        if r:
            vec = _layer(vec, r, dmax, successors)
            if not vec:
                return 0
    return vec.get((end, dmax), 0)


def transfer_expansion(
    start, ends: dict, successors, max_part: int | None = None, max_len: int | None = None
) -> dict:
    """{end: {nu: transfer(start, state, e, nu, successors)}} for every end
    (state, e) of `ends`, which maps it to its degree |nu|; the nu are the
    partitions with parts at most max_part and at most max_len parts, nonzero
    values only.

    One walk serves every end.  Partitions are visited in descending order,
    so each layer vector is computed once for every prefix it shares, and an
    end of degree m is read at every node whose prefix has size m.  Windings
    only grow along a chain, so the walk bounded by the largest winding reads
    each smaller one exactly.
    """
    out: dict = {end: {} for end in ends}
    at: dict[int, list] = {}
    for end, deg in ends.items():
        if deg >= 0:
            at.setdefault(deg, []).append(end)
    if not at:
        return out
    top = max(at)
    dmax = max(e for _, e in ends)

    def rec(prefix: Partition, vec: dict, total: int, biggest: int):
        for end in at.get(total, ()):
            c = vec.get(end, 0)
            if c:
                out[end][prefix] = c
        if len(prefix) == max_len:
            return
        for r in range(min(biggest, top - total), 0, -1):
            nxt = _layer(vec, r, dmax, successors)
            if nxt:
                rec(prefix + (r,), nxt, total + r, r)

    rec((), {(start, 0): 1}, 0, top if max_part is None else max_part)
    return out


def _scan_successors(states, mu, r: int, step) -> tuple:
    """Every (lam, de, step(lam, de, mu)) with a nonzero weight over the states
    of one cylinder: a layer of r boxes on mu ends at lam with the winding
    de = (|mu| + r - |lam|) / n, so each state is visited once."""
    total, n = mu.size + r, mu.n
    out = []
    for lam in states:
        de, rem = divmod(total - lam.size, n)
        if rem == 0 and de >= 0:
            w = step(lam, de, mu)
            if w:
                out.append((lam, de, w))
    return tuple(out)


def distinct_permutations(mu: Weight):
    """All distinct rearrangements of a weight, as tuples."""
    return _distinct_perms_cached(tuple(sorted(mu, reverse=True)))


@lru_cache(maxsize=None)
def _distinct_perms_cached(mu_sorted: Weight) -> tuple[Weight, ...]:
    k = len(mu_sorted)
    if k == 0:
        return ((),)
    out = set()

    def rec(remaining, acc):
        if not remaining:
            out.add(tuple(acc))
            return
        used = set()
        for i, v in enumerate(remaining):
            if v in used:
                continue
            used.add(v)
            rec(remaining[:i] + remaining[i + 1 :], acc + [v])

    rec(list(mu_sorted), [])
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# text syntax: comma separated descending parts, "-" for the empty partition

_PART_RE = re.compile(r"^\s*(-|\d+(\s*,\s*\d+)*)\s*$")


def parse_partition(text: str) -> Partition:
    """Parse "4,3,2" (descending, zeros allowed and stripped); "-" is empty."""
    if not _PART_RE.match(text or ""):
        raise ValueError(f"cannot parse partition from {text!r}")
    if text.strip() == "-":
        return ()
    parts = tuple(int(x) for x in text.split(","))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {text!r}")
    return normalize(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(x) for x in lam) if lam else "-"


# ---------------------------------------------------------------------------
# n-cores via beta numbers (abacus)


def beta_numbers(lam: Partition, slots: int | None = None) -> list[int]:
    """First-column hook lengths lam_i + slots - i, a strictly decreasing set."""
    lam = normalize(lam)
    ell = len(lam) if slots is None else slots
    if ell < len(lam):
        raise ValueError("slots must cover all parts")
    padded = list(lam) + [0] * (ell - len(lam))
    return [padded[i] + ell - (i + 1) for i in range(ell)]


def partition_from_betas(betas) -> Partition:
    bs = sorted(betas, reverse=True)
    ell = len(bs)
    return normalize(tuple(bs[i] - (ell - (i + 1)) for i in range(ell)))


@lru_cache(maxsize=None)
def n_core(lam: Partition, n: int) -> tuple[Partition, int, int]:
    """n-core of lam with its n-weight and the removal height-sum parity.

    A removal slides a bead b -> b-n on the abacus, with height one more than
    the beads it passes.  Sliding until no bead moves packs each runner to the
    top, each bead keeping its rank there: the weight is the drop of the bead
    sum over n, and the beads passed are, mod 2, the inversions of the order."""
    if n < 2:
        raise ValueError("n must be at least 2")
    betas = sorted(beta_numbers(lam))
    packed, on_runner, inversions = [], [0] * n, 0
    for b in betas:
        p = b % n + n * on_runner[b % n]
        on_runner[b % n] += 1
        inversions += sum(q > p for q in packed)
        packed.append(p)
    weight = (sum(betas) - sum(packed)) // n
    return partition_from_betas(packed), weight, (inversions + weight) % 2


# ---------------------------------------------------------------------------
# alcove / boxed weights with explicit (n, k) context


@dataclass(frozen=True, order=True)
class AlcoveWeight:
    """A partition with exactly k parts, each in [1, n]."""

    parts: Partition
    n: int
    k: int

    def __post_init__(self):
        p = self.parts
        if len(p) != self.k:
            raise ValueError(f"{p} does not have {self.k} parts")
        if not is_partition(p) or (p and (p[0] > self.n or p[-1] < 1)):
            raise ValueError(f"{p} is not in the (n={self.n}, k={self.k}) alcove")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def quantum_dim(self) -> int:
        return quantum_dim(self.parts, self.k)

    def is_strict(self) -> bool:
        return len(set(self.parts)) == self.k

    def star(self) -> "AlcoveWeight":
        """Swap the part-value multiplicities i <-> n - i, fixing n."""
        mapped = tuple(self.n if p == self.n else self.n - p for p in self.parts)
        return AlcoveWeight(normalize(mapped), self.n, self.k)

    def vee(self) -> "AlcoveWeight":
        return AlcoveWeight(
            tuple(self.n + 1 - p for p in reversed(self.parts)), self.n, self.k
        )

    def rot(self, a: int) -> "AlcoveWeight":
        """Shift every part value by a modulo n, staying inside (0, n]."""
        mapped = tuple((p - 1 + a) % self.n + 1 for p in self.parts)
        return AlcoveWeight(normalize(mapped), self.n, self.k)

    def same_context(self, other: "AlcoveWeight"):
        if (self.n, self.k) != (other.n, other.k):
            raise ContextMismatchError(
                f"mixing contexts (n={self.n},k={self.k}) and (n={other.n},k={other.k})"
            )


@dataclass(frozen=True, order=True)
class BoxedPartition:
    """A partition with at most k parts, each at most n - k."""

    parts: Partition
    n: int
    k: int

    def __post_init__(self):
        p = normalize(self.parts)
        object.__setattr__(self, "parts", p)
        if len(p) > self.k or (p and p[0] > self.n - self.k):
            raise ValueError(f"{p} does not fit the {self.k} x {self.n - self.k} box")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def padded(self) -> Weight:
        return tuple(self.parts) + (0,) * (self.k - len(self.parts))

    def to_strict(self) -> AlcoveWeight:
        """Add the staircase (k, ..., 1); lands in the strict alcove."""
        rho = staircase(self.k)
        return AlcoveWeight(
            tuple(a + b for a, b in zip(self.padded(), rho)), self.n, self.k
        )

    def conjugate_boxed(self) -> "BoxedPartition":
        """Conjugate partition inside the transposed (n-k) x k box."""
        return BoxedPartition(conjugate(self.parts), self.n, self.n - self.k)

    def vee(self) -> "BoxedPartition":
        """Complement-reverse; matches the vee involution on strict weights."""
        strict = self.to_strict().vee()
        return boxed_from_strict(strict)

    def same_context(self, other: "BoxedPartition"):
        if (self.n, self.k) != (other.n, other.k):
            raise ContextMismatchError(
                f"mixing contexts (n={self.n},k={self.k}) and (n={other.n},k={other.k})"
            )


def staircase(k: int) -> Partition:
    return tuple(range(k, 0, -1))


@lru_cache(maxsize=None)
def boxed_from_strict(lam: AlcoveWeight) -> BoxedPartition:
    if not lam.is_strict():
        raise ValueError(f"{lam.parts} is not strict")
    rho = staircase(lam.k)
    return BoxedPartition(
        normalize(tuple(a - b for a, b in zip(lam.parts, rho))), lam.n, lam.k
    )


@lru_cache(maxsize=None)
def enumerate_alcove(n: int, k: int) -> tuple[AlcoveWeight, ...]:
    """All k-part partitions with parts in [1, n], lexicographically sorted."""
    out = [
        AlcoveWeight(tuple(sorted(c, reverse=True)), n, k)
        for c in combinations_with_replacement(range(1, n + 1), k)
    ]
    return tuple(sorted(out, key=lambda a: a.parts))


@lru_cache(maxsize=None)
def enumerate_strict(n: int, k: int) -> tuple[AlcoveWeight, ...]:
    """Strictly decreasing alcove weights; empty when k > n."""
    out = [
        AlcoveWeight(tuple(sorted(c, reverse=True)), n, k)
        for c in combinations(range(1, n + 1), k)
    ]
    return tuple(sorted(out, key=lambda a: a.parts))


@lru_cache(maxsize=None)
def enumerate_boxed(n: int, k: int) -> tuple[BoxedPartition, ...]:
    return tuple(
        sorted(
            (boxed_from_strict(s) for s in enumerate_strict(n, k)),
            key=lambda b: b.parts,
        )
    )


def lawful_rows(weights, n: int, dmax: int | None = None):
    """Yield (lam, mu, row) for every pair of weights, lam outer, in their order.

    The row lists, in the order of the weights, every (nu, d) with nu among
    the weights and |lam| + |mu| - |nu| = n*d for 0 <= d <= dmax (no upper
    bound when dmax is None): Gromov-Witten invariants and fusion coefficients
    vanish off this degree law.  A row depends on |lam| + |mu| only and is
    built once.
    """
    sized = [(w, w.size) for w in weights]
    rows: dict[int, tuple] = {}
    for lam, a in sized:
        for mu, b in sized:
            row = rows.get(a + b)
            if row is None:
                row = []
                for nu, c in sized:
                    d, rem = divmod(a + b - c, n)
                    if rem == 0 and 0 <= d and (dmax is None or d <= dmax):
                        row.append((nu, d))
                row = rows[a + b] = tuple(row)
            yield lam, mu, row


def reduce_to_alcove(nu: Weight, n: int, k: int) -> tuple[AlcoveWeight, int]:
    """Unique alcove point of the level-n orbit of nu, with the winding number d.

    Each entry is shifted by a multiple of n into (0, n], the result sorted;
    d satisfies n*d + |reduced| = |nu|.
    """
    if len(nu) != k:
        raise ValueError(f"weight {nu} does not have rank {k}")
    shifted = tuple((v - 1) % n + 1 for v in nu)
    lam = AlcoveWeight(tuple(sorted(shifted, reverse=True)), n, k)
    d, rem = divmod(sum(nu) - lam.size, n)
    if rem:
        raise ValueError(f"level-{n} reduction of {nu} changed the size by a non-multiple of n")
    return lam, d


def _orbit_ratio(nu: Weight, n: int, k: int) -> tuple[AlcoveWeight, int]:
    """The alcove point lam of the level-n orbit of nu, with |S_lam| / |S_nu|.

    Reduction maps equal entries to equal entries, so S_nu is a subgroup of
    S_lam and the ratio is an integer: the orbit multiplicity of nu.
    """
    lam, _ = reduce_to_alcove(nu, n, k)
    ratio, rem = divmod(stab_order(lam.parts), stab_order(nu))
    if rem:
        raise ValueError(f"orbit coefficient at {nu} is not an integer")
    return lam, ratio
