"""The extended affine symmetric group as integer bijections, and cylindric geometry.

A group element is stored by its window (w(1), ..., w(k)); the bijection
extends by w(m + k) = w(m) + k.  Validity requires pairwise distinct residues
mod k and window sum congruent to 1 + 2 + ... + k mod k.  Cylindric loops are
quasi-periodic maps Z -> Z attached to alcove weights, and cylindric skew
shapes are the regions between two loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .partitions import (
    AlcoveWeight,
    BoxedPartition,
    Weight,
    boxed_from_strict,
    staircase,
)


@dataclass(frozen=True)
class ExtAffinePerm:
    """Bijection of Z with w(m+k) = w(m) + k, in window notation."""

    window: tuple[int, ...]

    def __post_init__(self):
        w = self.window
        k = len(w)
        if k == 0:
            raise ValueError("empty window")
        if len({v % k for v in w}) != k:
            raise ValueError(f"window {w} has repeated residues mod {k}")
        if sum(w) % k != k * (k + 1) // 2 % k:
            raise ValueError(f"window {w} has sum {sum(w)} != binom({k},2) mod {k}")

    @property
    def k(self) -> int:
        return len(self.window)

    def __call__(self, m: int) -> int:
        q, r = divmod(m - 1, self.k)
        return self.window[r] + q * self.k

    def compose(self, other: "ExtAffinePerm") -> "ExtAffinePerm":
        """(self . other)(m) = self(other(m))."""
        if self.k != other.k:
            raise ValueError("rank mismatch")
        return ExtAffinePerm(tuple(self(other(i)) for i in range(1, self.k + 1)))

    def inverse(self) -> "ExtAffinePerm":
        k = self.k
        window = [0] * k
        for j in range(1, k + 1):
            v = self(j)
            q, r = divmod(v - 1, k)
            # self maps j + m*k to v + m*k, so the preimage of r+1 is j - q*k
            window[r] = j - q * k
        return ExtAffinePerm(tuple(window))


def identity_perm(k: int) -> ExtAffinePerm:
    return ExtAffinePerm(tuple(range(1, k + 1)))


def tau_power(k: int, d: int) -> ExtAffinePerm:
    """Shift m -> m - d."""
    return ExtAffinePerm(tuple(i - d for i in range(1, k + 1)))


def sigma(k: int, i: int) -> ExtAffinePerm:
    """Simple reflection: swaps m = i, i+1 mod k (indices 0..k-1 allowed)."""
    i = i % k
    window = list(range(1, k + 1))
    if i == 0:
        window[0] = 0
        window[k - 1] = k + 1
    else:
        window[i - 1], window[i] = window[i], window[i - 1]
    return ExtAffinePerm(tuple(window))


def generators(k: int) -> list[ExtAffinePerm]:
    gens = [sigma(k, i) for i in range(k)]
    gens.append(tau_power(k, 1))
    gens.append(tau_power(k, -1))
    return gens


# ---------------------------------------------------------------------------
# level-n loops and the level-n action


def _extend(values: Weight, n: int, i: int) -> int:
    """Value at i of the quasi-periodic extension v(i + k) = v(i) - n of the
    window values on [k]."""
    q, r = divmod(i - 1, len(values))
    return values[r] - n * q


def loop_value(lam: AlcoveWeight, d: int, i: int) -> int:
    """Value of the quasi-periodic extension of lam, shifted by tau^d, at i."""
    return _extend(lam.parts, lam.n, i - d)


@dataclass(frozen=True)
class CylindricLoop:
    """Lattice path on the cylinder: alcove base shifted d steps to the right."""

    base: AlcoveWeight
    offset: int = 0

    def __call__(self, i: int) -> int:
        return loop_value(self.base, self.offset, i)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    def window(self) -> Weight:
        return tuple(self(i) for i in range(1, self.k + 1))


def act_on_weight(values: Weight, w: ExtAffinePerm, n: int) -> Weight:
    """Right level-n action on the weight given by its values on [k]."""
    k = len(values)
    if w.k != k:
        raise ValueError("rank mismatch")
    return tuple(_extend(values, n, w(i)) for i in range(1, k + 1))


def act_on_loop(loop: CylindricLoop, w: ExtAffinePerm) -> CylindricLoop:
    """Compose a loop with a group element; defined when the result is a loop again."""
    k = loop.k
    if w.k != k:
        raise ValueError("rank mismatch")
    values = tuple(loop(w(i)) for i in range(1, k + 1))
    return loop_from_window(values, loop.n)


def loop_from_window(values: Weight, n: int) -> CylindricLoop:
    """Normalise a weakly decreasing quasi-periodic window into (base, offset)."""
    k = len(values)
    ext = partial(_extend, values, n)
    if any(ext(i) < ext(i + 1) for i in range(0, k + 1)):
        raise ValueError(f"window {values} is not weakly decreasing on Z")
    # d + 1 is the smallest index whose value drops to n or below; the k values
    # from there lie in [1, n] by quasi-periodicity
    i = 1
    if ext(i) <= n:
        while ext(i - 1) <= n:
            i -= 1
    else:
        while ext(i) > n:
            i += 1
    d = i - 1
    base = AlcoveWeight(tuple(ext(j) for j in range(d + 1, d + k + 1)), n, k)
    return CylindricLoop(base, d)


# ---------------------------------------------------------------------------
# cylindric skew shapes (level-n convention)


@dataclass(frozen=True)
class CylindricShape:
    """Cells strictly above the inner loop and at most the outer one, degree d."""

    outer: AlcoveWeight
    degree: int
    inner: AlcoveWeight

    def __post_init__(self):
        self.outer.same_context(self.inner)

    @property
    def n(self) -> int:
        return self.outer.n

    @property
    def k(self) -> int:
        return self.outer.k

    def outer_at(self, i: int) -> int:
        return loop_value(self.outer, self.degree, i)

    def inner_at(self, i: int) -> int:
        return loop_value(self.inner, 0, i)

    def is_valid(self) -> bool:
        return all(self.inner_at(i) <= self.outer_at(i) for i in range(1, self.k + 1))

    def cell_count(self) -> int:
        return self.outer.size + self.n * self.degree - self.inner.size

    def row_counts(self) -> tuple[int, ...]:
        return tuple(self.outer_at(i) - self.inner_at(i) for i in range(1, self.k + 1))

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Cells in the fundamental strip of rows 1..k."""
        return tuple(
            (i, j)
            for i in range(1, self.k + 1)
            for j in range(self.inner_at(i) + 1, self.outer_at(i) + 1)
        )


def is_valid_shape(lam: AlcoveWeight, d: int, mu: AlcoveWeight) -> bool:
    """mu[0] <= lam[d] pointwise on one period (hence on all of Z)."""
    lam.same_context(mu)
    return CylindricShape(lam, d, mu).is_valid()


# ---------------------------------------------------------------------------
# shifted (staircase) coordinates: loops on the cylinder of circumference n - k


def shifted_act(bar: BoxedPartition, w: ExtAffinePerm) -> Weight:
    """(bar + rho) . w - rho evaluated on [k]; the shifted level-n action."""
    if w.k != bar.k:
        raise ValueError("rank mismatch")
    strict = bar.to_strict()
    rho = staircase(bar.k)
    moved = act_on_weight(strict.parts, w, bar.n)
    return tuple(m - r for m, r in zip(moved, rho))


def shifted_reduce(values: Weight, n: int, k: int) -> BoxedPartition | None:
    """Boxed representative of the shifted orbit; None for degenerate weights.

    Degenerate means two entries of values + rho share a residue mod n, in
    which case the orbit misses the fundamental box.
    """
    if len(values) != k:
        raise ValueError("rank mismatch")
    rho = staircase(k)
    shifted = [v + r for v, r in zip(values, rho)]
    reduced = [(s - 1) % n + 1 for s in shifted]
    if len(set(reduced)) != k:
        return None
    strict = AlcoveWeight(tuple(sorted(reduced, reverse=True)), n, k)
    return boxed_from_strict(strict)
