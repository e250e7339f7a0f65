"""Fusion coefficients by three independent routes and the checks of the
modular S- and T-matrices.

The three routes: counting pairs of rearrangements (the defining cardinality),
the root-of-unity orthogonality sum (Verlinde), and reduction of out-of-alcove
indices by stabiliser ratios.  The fusion array of a context counts the same
pairs by one pass over partners, independently of the per-triple count.
The first two routes also come by rows, every nu of a pair (lam, mu) at once:
`count_row` bins the pairs of rearrangements by residues, and `verlinde_row`
contracts against the packed dual vectors of every nu.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial
from operator import add, mul

from .cyclotomic import CycloNum, NonIntegralError, msym_exponents, sqrt_int, zeta_pow
from .cyclotomic import _reduce_mod_phi, _root_sum
from .partitions import (
    AlcoveWeight,
    Partition,
    _orbit_ratio,
    distinct_permutations,
    enumerate_alcove,
    format_partition,
    lawful_rows,
    normalize,
    stab_order,
)


@dataclass
class Report:
    """Outcome of a verification suite: ok flag plus failure witnesses."""

    name: str
    failures: list[str] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def run(self, condition: bool, witness: str, *args):
        """Count one check; on failure record witness.format(*args)."""
        self.checks += 1
        if not condition:
            self.failures.append(witness.format(*args))

    def run_rows(self, rows: list, labels) -> None:
        """One check per entry of every row, rows a list of (left, right,
        witness) of one length.  Equal rows are counted at once; otherwise
        every row runs at each index x in turn, recording
        witness.format(*labels(x)) on failure, so the witnesses come out in
        the order of a per-entry loop."""
        if all(left == right for left, right, _ in rows):
            self.checks += len(rows) * len(rows[0][0])
            return
        for x in range(len(rows[0][0])):
            args = labels(x)
            for left, right, witness in rows:
                self.run(left[x] == right[x], witness, *args)

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)})"
        head = f"{self.name}: {self.checks} checks, {status}"
        if self.failures:
            head += "\n  first counterexample: " + self.failures[0]
        return head


def _slots(x: int, widths) -> list[int]:
    """The signed slots v_r of x = sum_r v_r 2^(w_0 + ... + w_(r-1)), where
    |v_r| < 2^(w_r - 1) for the widths w_r: the decoder of every packed
    integer (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009)."""
    out = []
    for w in widths:
        v = x & ((1 << w) - 1)
        if v >> (w - 1):
            v -= 1 << w
        out.append(v)
        x = (x - v) >> w
    return out


# ---------------------------------------------------------------------------
# route 1: the counting definition, valid for dominant weights of rank k


@lru_cache(maxsize=None)
def fusion_count(lam: Partition, mu: Partition, nu: Partition, n: int, k: int) -> int:
    """Pairs of rearrangements of mu and nu summing to lam modulo n, entrywise."""
    lam_p = tuple(lam) + (0,) * (k - len(lam))
    mu_p = tuple(mu) + (0,) * (k - len(mu))
    nu_p = tuple(nu) + (0,) * (k - len(nu))
    count = 0
    for a in distinct_permutations(mu_p):
        for b in distinct_permutations(nu_p):
            if all((x + y - z) % n == 0 for x, y, z in zip(a, b, lam_p)):
                count += 1
    return count


def n_count(lam: AlcoveWeight, mu: AlcoveWeight, nu) -> int:
    """Fusion coefficient N_{mu nu}^lam by the counting definition.

    nu may be any dominant weight of rank at most k (parts may repeat or exceed n).
    """
    lam.same_context(mu)
    if isinstance(nu, AlcoveWeight):
        lam.same_context(nu)
    nu_parts = nu.parts if isinstance(nu, AlcoveWeight) else normalize(nu)
    return fusion_count(lam.parts, mu.parts, nu_parts, lam.n, lam.k)


def count_row(ctx: FusionContext, lam: AlcoveWeight, mu: AlcoveWeight) -> list[int]:
    """N_{lam mu}^nu for every nu of the alcove by the counting definition,
    one pass over the pairs (a, b) of rearrangements of lam and mu.

    Each pair lands in the bin of the multiset of residues of a + b mod n,
    keyed as sum_i (k+1)^((a_i + b_i) mod n).  Permuting the coordinates of a
    counted pair permutes its sum, so the bin of nu's residues counts every
    rearrangement of them equally often: N times their number k!/|S_nu|.  A
    remainder raises ArithmeticError, also under python -O."""
    ctx._check(lam, mu)
    n, base = ctx.n, ctx.k + 1
    power = [base ** (t % n) for t in range(2 * n + 1)]
    bins = Counter()
    for a in distinct_permutations(lam.parts):
        for b in distinct_permutations(mu.parts):
            bins[sum(map(power.__getitem__, map(add, a, b)))] += 1
    row = []
    for nu in ctx.alcove:
        total = bins[sum(power[p] for p in nu.parts)]
        value, rem = divmod(total, len(distinct_permutations(nu.parts)))
        if rem:
            raise ArithmeticError(f"{total} pairs at {nu.parts} do not share evenly")
        row.append(value)
    return row


# ---------------------------------------------------------------------------
# context with cached root-of-unity data


class FusionContext:
    """The alcove of (n, k) with tables built on first use: the exponent
    counts of the monomials at zeta powers, read by the Verlinde route, the
    orthogonality check and the S-matrix, and the integer fusion array, read
    by the table, the suites and the third fusion route.

    A built table is never modified.  Two threads racing on first use may
    build the same table twice; both copies are equal.
    """

    def __init__(self, n: int, k: int):
        if n < 1 or k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got (n={n}, k={k})")
        self.n = n
        self.k = k
        self.alcove = enumerate_alcove(n, k)
        self.index = {a.parts: i for i, a in enumerate(self.alcove)}
        self.orbit = {a.parts: a.quantum_dim() for a in self.alcove}
        self.scale = n**k * factorial(k)
        self._duals = {}
        self._product = lru_cache(maxsize=1)(self._convolve)  # callers walk nu innermost

    @cached_property
    def msym_counts(self) -> dict:
        """msym_counts[lam][i] = m_lam(zeta^sigma) in Z[x]/(x^n - 1), sigma = alcove[i]."""
        A = self.alcove
        return {a.parts: [msym_exponents(a.parts, s.parts, self.n) for s in A] for a in A}

    @cached_property
    def fusion(self) -> list:
        """fusion[i][j][l] = N_{A_i A_j}^{A_l} over the alcove A: the pairs (a, b)
        of rearrangements of A_i and A_j with a + b = A_l entrywise mod n.

        An alcove weight is fixed by its residues mod n (a part n is residue 0),
        so a and A_l determine the partner b = A_l - a mod n, and b is a
        rearrangement of exactly one A_j.  One pass over (a, A_l) per A_i thus
        visits every counted pair once: n^k |A| steps for the whole array,
        where counting each triple by `fusion_count` takes up to (k!)^2 steps."""
        n, A = self.n, self.alcove
        m = len(A)
        slot = {tuple(sorted(p % n for p in w.parts)): j for j, w in enumerate(A)}
        targets = [tuple(p % n for p in w.parts) for w in A]
        planes = []
        for w in A:
            plane = [[0] * m for _ in range(m)]
            for a in distinct_permutations(w.parts):
                for l, target in enumerate(targets):
                    plane[slot[tuple(sorted([(t - x) % n for t, x in zip(target, a)]))]][l] += 1
            planes.append(plane)
        return planes

    def unit(self) -> AlcoveWeight:
        return AlcoveWeight((self.n,) * self.k, self.n, self.k)

    def _check(self, *weights):
        for w in weights:
            if isinstance(w, AlcoveWeight):
                self.alcove[0].same_context(w)

    def _convolve(self, lam: Partition, mu: Partition) -> list[int]:
        """m_lam * m_mu at every sigma in Z[x]/(x^n - 1), flattened over (sigma, i)."""
        out = []
        for a, b in zip(self.msym_counts[lam], self.msym_counts[mu]):
            conv = [0] * self.n
            for i, x in enumerate(a):
                if x:
                    conv = [c + x * y for c, y in zip(conv, b[-i:] + b[:-i])]
            out += conv
        return out

    def _dual(self, nu: AlcoveWeight) -> list[tuple[int, ...]]:
        """The phi(n) dual vectors of nu over the columns (sigma, i): the residues
        mod Phi_n of x^i m^{nu*}(x^sigma) k!/|S_sigma|, built once per nu."""
        if nu.parts not in self._duals:
            star = nu.star().parts
            weighted = [
                [stab_order(star) * self.orbit[s.parts] * c for c in e]
                for s, e in zip(self.alcove, self.msym_counts[star])
            ]
            self._duals[nu.parts] = _rotations(weighted, self.n)
        return self._duals[nu.parts]

    def _contract(self, p: list[int], nu: AlcoveWeight) -> list[int]:
        """The residue mod Phi_n of sum_(sigma, i) p[sigma, i] x^i m^{nu*}(x^sigma) k!/|S_sigma|,
        as phi(n) dot products with the dual vectors of nu."""
        return [sum(map(mul, p, q)) for q in self._dual(nu)]

    @cached_property
    def _packed_duals(self) -> tuple[list[int], list[int]]:
        """The dual vectors of every nu packed column by column: one integer per
        (sigma, i) with a signed W-bit slot per (nu, r), and the slot widths.

        A contraction with a product p = m_lam m_mu has |p|_1 <= |A| c^2 for
        the largest exponent count c = max |m_lam(x^sigma)|_1, so every slot
        of it is below |A| c^2 max|dual| < 2^(W-1) in absolute value."""
        duals = [q for nu in self.alcove for q in self._dual(nu)]
        mass = max(sum(map(abs, e)) for rows in self.msym_counts.values() for e in rows)
        top = max(abs(v) for q in duals for v in q)
        width = (len(self.alcove) * mass**2 * top).bit_length() + 1
        packed = [sum(v << (width * s) for s, v in enumerate(col)) for col in zip(*duals)]
        return packed, [width] * len(duals)

    def _integral(self, r: list[int]) -> int:
        """The integer r / (n^k k!) for a residue r mod Phi_n; a nonconstant or
        non-integral r raises NonIntegralError, also under python -O."""
        value, rem = divmod(r[0], self.scale)
        if rem or any(r[1:]):
            raise NonIntegralError(CycloNum._of(self.n, r, self.scale), "Verlinde sum")
        return value


def _rotations(vectors, n: int) -> list[tuple[int, ...]]:
    """The residues mod Phi_n of x^i v for every v in Z[x]/(x^n - 1) and every
    i < n, transposed: phi(n) vectors over the columns (v, i)."""
    return list(zip(*(_reduce_mod_phi(v[-i:] + v[:-i], n) for v in vectors for i in range(n))))


def n_verlinde(ctx: FusionContext, lam: AlcoveWeight, mu: AlcoveWeight, nu: AlcoveWeight) -> int:
    """Verlinde route: the pre-cancelled orthogonality sum over the alcove.

    N_{lam mu}^nu = sum_sigma m_lam(z^s) m_mu(z^s) m^{nu*}(z^s) / (n^k |S_sigma|),
    with m^{nu*} = |S_nu*| m_nu*, times n^k k! is one integer contraction in
    Z[x]/(x^n - 1) reduced by Phi_n; a non-integral value raises NonIntegralError.
    """
    ctx._check(lam, mu, nu)
    return ctx._integral(ctx._contract(ctx._product(lam.parts, mu.parts), nu))


def verlinde_row(ctx: FusionContext, lam: AlcoveWeight, mu: AlcoveWeight) -> list[int]:
    """N_{lam mu}^nu for every nu of the alcove by the Verlinde route: the
    contractions of `n_verlinde` for all nu at once, as one dot product of the
    product m_lam m_mu with the packed dual columns, decoded by `_slots`."""
    ctx._check(lam, mu)
    packed, widths = ctx._packed_duals
    r = _slots(sum(map(mul, ctx._product(lam.parts, mu.parts), packed)), widths)
    step = len(r) // len(ctx.alcove)
    return [ctx._integral(r[s : s + step]) for s in range(0, len(r), step)]


def n_reduce(ctx: FusionContext, lam: AlcoveWeight, mu: AlcoveWeight, nu) -> int:
    """Reduction route: pull a dominant nu back into the alcove point nu_bar of
    its orbit; the multiplier is the stabiliser ratio |S_nu_bar| / |S_nu|."""
    ctx._check(lam, mu, nu)
    nu_parts = nu.parts if isinstance(nu, AlcoveWeight) else normalize(nu)
    padded = tuple(nu_parts) + (0,) * (ctx.k - len(nu_parts))
    if len(padded) != ctx.k:
        raise ValueError(f"{nu_parts} has more than {ctx.k} parts")
    nu_bar, mult = _orbit_ratio(padded, ctx.n, ctx.k)
    return mult * fusion_count(lam.parts, mu.parts, nu_bar.parts, ctx.n, ctx.k)


# ---------------------------------------------------------------------------
# tables


@dataclass
class CoeffTable:
    """Keyed integer table (lambda, mu, nu, d) -> value, JSON/CSV serialisable."""

    n: int
    k: int
    value_key: str = "N"
    entries: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return "".join(_render(self, "json"))

    @staticmethod
    def from_json(text: str, value_key: str = "N") -> "CoeffTable":
        data = json.loads(text)
        table = CoeffTable(data["n"], data["k"], value_key, {}, data.get("metadata", {}))
        for e in data["entries"]:
            d = e["d"] if e["d"] is not None else -1
            key = (tuple(e["lambda"]), tuple(e["mu"]), tuple(e["nu"]), d)
            table.entries[key] = e[value_key]
        return table

    def to_csv(self) -> str:
        return "".join(_render(self, "csv"))


def _render(table: CoeffTable, fmt: str):
    """Yield a table in key order, one chunk per row: "json" the bytes of
    json.dumps(payload, indent=0, sort_keys=True) with d = -1 as null, "csv"
    those of csv.writer without zero rows, "text" columns padded in a first pass."""
    keys = sorted(table.entries)
    items = zip(keys, map(table.entries.__getitem__, keys))  # no second copy of the rows
    cell = {p: format_partition(p) for p in {p for key in table.entries for p in key[:3]}}
    if fmt == "json":
        cell = {p: "[\n" + s.replace(",", ",\n") + "\n]" if p else "[]" for p, s in cell.items()}
        slot = {table.value_key: "{0}", "d": "{1}", "lambda": "{2}", "mu": "{3}", "nu": "{4}"}
        entry = "{{\n" + ",\n".join(f'"{key}": {slot[key]}' for key in sorted(slot)) + "\n}}"
        for i, ((lam, mu, nu, d), v) in enumerate(items):
            row = entry.format(v, d if d >= 0 else "null", cell[lam], cell[mu], cell[nu])
            yield (",\n" if i else '{\n"entries": [\n') + row
        meta = json.dumps(table.metadata, indent=0, sort_keys=True) if table.metadata else ""
        tail = f',\n"k": {table.k}' + (f',\n"metadata": {meta}' if meta else "")
        yield ("\n]" if keys else '{\n"entries": []') + tail + f',\n"n": {table.n}\n}}'
    elif fmt == "csv":
        cell = {p: f'"{s}"' if "," in s else s for p, s in cell.items()}
        yield "lambda,mu,nu,d,value\r\n"
        yield from (f"{cell[l]},{cell[m]},{cell[u]},{d},{v}\r\n" for (l, m, u, d), v in items if v)
    else:
        cell.update((d, str(d) if d >= 0 else "-") for d in {key[3] for key in table.entries})
        head, pads = "", []
        for i, name in enumerate(("lambda", "mu", "nu", "d")):
            used = {key[i] for key in table.entries}
            width = max([len(name)] + [len(cell[x]) for x in used])
            head += name.ljust(width) + "  "
            pads.append({x: cell[x].ljust(width) + "  " for x in used})
        lam_pad, mu_pad, nu_pad, d_pad = pads
        yield head + "value\n"
        for (lam, mu, nu, d), v in items:
            yield f"{lam_pad[lam]}{mu_pad[mu]}{nu_pad[nu]}{d_pad[d]}{v}\n"


def build_table(ctx: FusionContext, dmax: int | None = None, keep_zero: bool = False) -> CoeffTable:
    """Fusion table over the whole alcove; d = (|lam|+|mu|-|nu|)/n per entry,
    and -1 for the zero entries off the degree law that keep_zero keeps."""
    table = CoeffTable(ctx.n, ctx.k, "N")
    A = ctx.alcove
    pair_values = (values for row in ctx.fusion for values in row)
    for (lam, mu, lawful), values in zip(lawful_rows(A, ctx.n), pair_values):
        degree = {nu.parts: d for nu, d in lawful}
        for nu, value in zip(A, values):
            d = degree.get(nu.parts, -1)
            if (dmax is None or d <= dmax) and (value or keep_zero):
                table.entries[(lam.parts, mu.parts, nu.parts, d)] = value
    return table


# ---------------------------------------------------------------------------
# symmetry and Frobenius suites


def symmetry_suite(ctx: FusionContext) -> Report:
    """Unit, commutativity, star/rotation covariance, associativity and the
    quantum-dimension sum rule, checked exhaustively over the alcove.

    Each identity is written once, over whole rows through `Report.run_rows`,
    so the witnesses of a failing row come out in the order of the per-entry
    loops.  Associativity packs each row N[s][l] into one integer with signed
    W-bit slots (Kronecker substitution): a slot of either side is at most
    |A| max|N|^2 < 2^(W-1) in absolute value, so one integer comparison
    settles |A| checks, and sides that differ are read back by `_slots`.
    """
    rep = Report(f"fusion symmetries (n={ctx.n}, k={ctx.k})")
    A = ctx.alcove
    N = ctx.fusion
    m = len(A)
    unit = ctx.unit()
    u = ctx.index[unit.parts]
    star = [ctx.index[a.star().parts] for a in A]
    rot1, rot2, rot3 = ([ctx.index[a.rot(r).parts] for a in A] for r in (1, 2, 3))
    qd = [a.quantum_dim() for a in A]
    for i, lam in enumerate(A):
        si = star[i]
        for j, mu in enumerate(A):
            row = N[i][j]
            rep.run(
                N[i][u][j] == (1 if i == j else 0),
                "unit: N_({},{})^{}", lam.parts, unit.parts, mu.parts,
            )
            expect = qd[i] if si == j else 0
            rep.run(row[u] == expect, "eta: N_({},{})^{}", lam.parts, mu.parts, unit.parts)
            starred = [N[si][star[j]][x] for x in star]
            scaled = [v * q for v, q in zip(row, qd)]
            dual = [qd[i] * N[j][x][si] for x in star]
            rotated = [N[rot1[i]][rot2[j]][x] for x in rot3]
            rep.run_rows(
                [
                    (row, N[j][i], "commutativity at {},{},{}"),
                    (row, starred, "star covariance at {},{},{}"),
                    (scaled, dual, "dual symmetry at {},{},{}"),
                    (row, rotated, "rotation covariance at {},{},{}"),
                ],
                lambda l: (lam.parts, mu.parts, A[l].parts),
            )

    # the quantum dimension sum rule, and associativity as the fusion-matrix
    # identity sum_s N_{lam mu}^s N_s = N_mu N_lam with (N_x)[a][b] = N_{xa}^b
    width = (m * max(abs(v) for plane in N for row in plane for v in row) ** 2).bit_length() + 1
    widths = [width] * m
    packed = [[sum(v << (width * r) for r, v in enumerate(row)) for row in plane] for plane in N]
    nonzero = [[[(s, c) for s, c in enumerate(row) if c] for row in plane] for plane in N]
    for i, lam in enumerate(A):
        for j, mu in enumerate(A):
            rep.run(
                qd[i] * qd[j] == sum(c * q for c, q in zip(N[i][j], qd)),
                "dimension rule at {},{}", lam.parts, mu.parts,
            )
            for l, nu in enumerate(A):
                left = sum(c * packed[s][l] for s, c in nonzero[i][j])
                right = sum(c * packed[i][s] for s, c in nonzero[j][l])
                if left == right:
                    rep.checks += m
                else:
                    witness = "associativity at {},{},{},{}"
                    rep.run_rows(
                        [(_slots(left, widths), _slots(right, widths), witness)],
                        lambda r: (lam.parts, mu.parts, nu.parts, A[r].parts),
                    )
    return rep


def orthogonality_check(ctx: FusionContext) -> Report:
    """Scaled S-matrix orthogonality: the alcove sum of m_lam * m^{mu*} / (n^k |S_sigma|),
    read off the contraction of the Verlinde route with m_lam in place of m_lam m_mu."""
    rep = Report(f"monomial orthogonality (n={ctx.n}, k={ctx.k})")
    for lam in ctx.alcove:
        flat = [c for e in ctx.msym_counts[lam.parts] for c in e]
        for mu in ctx.alcove:
            r = ctx._contract(flat, mu)
            ok = not any(r[1:]) and r[0] == (ctx.scale if lam == mu else 0)
            rep.run(ok, "orthogonality at {},{}", lam.parts, mu.parts)
    return rep


def s_matrix_inverse_check(ctx: FusionContext) -> Report:
    """S * S^{-1} = id with the inverse built from the conjugate entries
    m_mu(zeta^{-nu}), read as the complex conjugates of m_mu(zeta^nu).

    With both scalings omitted the product must equal n^k times the identity.
    It is contracted in integers as `orthogonality_check` is: conjugation is
    exponent reversal in Z[x]/(x^n - 1), done once per entry, and each product
    entry is phi(n) dot products with the rotations of the reversed column.
    """
    rep = Report(f"S-matrix inverse (n={ctx.n}, k={ctx.k})")
    n, A = ctx.n, ctx.alcove
    E = [ctx.msym_counts[a.parts] for a in A]
    duals = [_rotations([row[l][:1] + row[l][:0:-1] for row in E], n) for l in range(len(A))]
    for i, lam in enumerate(A):
        flat = [c for e in E[i] for c in e]
        for l, nu in enumerate(A):
            r = [sum(map(mul, flat, q)) for q in duals[l]]
            ok = not any(r[1:]) and r[0] == (n**ctx.k if i == l else 0)
            rep.run(ok, "inverse at {},{}", lam.parts, nu.parts)
    return rep


def _t_exponent(lam: Partition, n: int, k: int) -> int:
    """The T-matrix entry of lam as a power of zeta_{24n}."""
    return -k * n * (n - 1) + 12 * sum(p * (n - p) for p in lam)


def t_matrix(ctx: FusionContext):
    """Diagonal T-matrix data in Q(zeta_{24n}): a 24th-root phase times zeta powers."""
    return [(lam, zeta_pow(24 * ctx.n, _t_exponent(lam.parts, ctx.n, ctx.k))) for lam in ctx.alcove]


def t_unitarity_check(ctx: FusionContext) -> Report:
    rep = Report(f"T unitarity (n={ctx.n}, k={ctx.k})")
    for lam, t in t_matrix(ctx):
        val = t * t.conjugate()
        rep.run(val.to_integer() == 1, "|T|^2 at {}", lam.parts)
    return rep


def modular_relations_check(n: int) -> Report:
    """k = 1 presentation: S^2 = (ST)^3 = C with the charge conjugation C.

    Runs in the group ring Z[x]/(x^{24n} - 1), x standing for zeta_{24n}:
    S' = sqrt(n) S has the monomial entries x^{24ab} and T the monomials
    x^t(a), so S'^2, (S'T)^3 and S' conj(S') are sums of monomials.  Each
    entry is reduced once by Phi_{24n} and compared with n C, n sqrt(n) C and
    n id in Q(zeta_{24n}), where sqrt(n) exists exactly.
    """
    rep = Report(f"modular relations (n={n}, k=1)")
    big = 24 * n
    idx = range(1, n + 1)
    t = {a: _t_exponent((a,), n, 1) for a in idx}
    zero, scaled = CycloNum.zero(big), CycloNum.from_rational(big, n)

    def equal(exponents, where, value) -> bool:
        # each entry sum_e x^e over exponents(a, c), reduced once, is value where
        # where(a, c) holds and 0 elsewhere
        return all(
            _root_sum(big, ((e, 1) for e in exponents(a, c))) == (value if where(a, c) else zero)
            for a in idx
            for c in idx
        )

    def charge(a, c):
        return (a + c) % n == 0

    rep.run(equal(lambda a, c: [24 * b * (a + c) for b in idx], charge, scaled), "S^2 = C")
    rep.run(
        equal(
            lambda a, d: [
                24 * (a * b + b * c + c * d) + t[b] + t[c] + t[d] for b in idx for c in idx
            ],
            charge,
            sqrt_int(n, big) * n,
        ),
        "(ST)^3 = C",
    )
    rep.run(equal(lambda a, c: [24 * b * (a - c) for b in idx], int.__eq__, scaled), "S S* = id")
    return rep
