"""Fusion coefficients by three independent routes, modular matrices and the
Frobenius identity suite.

The three routes: counting pairs of rearrangements (the defining cardinality),
the root-of-unity orthogonality sum (Verlinde), and reduction of out-of-alcove
indices by stabiliser multinomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb, factorial
from operator import mul

from .cyclotomic import CycloNum, NonIntegralError, eval_msym, msym_exponents, sqrt_int, zeta_pow
from .cyclotomic import _reduce_mod_phi
from .partitions import (
    AlcoveWeight,
    Partition,
    Weight,
    distinct_permutations,
    enumerate_alcove,
    format_partition,
    lawful_rows,
    multiplicity,
    normalize,
    reduce_to_alcove,
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

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.failures)})"
        head = f"{self.name}: {self.checks} checks, {status}"
        if self.failures:
            head += "\n  first counterexample: " + self.failures[0]
        return head


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


# ---------------------------------------------------------------------------
# context with cached root-of-unity data


class FusionContext:
    """The alcove of (n, k) with tables built on first use: the exponent
    counts of the monomials at zeta powers, read by the Verlinde route, the
    orthogonality check and the S-matrix, and the integer fusion array, read
    by the table and the suites.

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
        """fusion[i][j][l] = N_{A_i A_j}^{A_l} over the alcove A, by counting;
        entries off the degree law of `lawful_rows` are 0 without a count."""
        n, k, A = self.n, self.k, self.alcove
        rows = []
        for lam, mu, lawful in lawful_rows(A, n):
            values = [0] * len(A)
            for nu, _ in lawful:
                values[self.index[nu.parts]] = fusion_count(nu.parts, lam.parts, mu.parts, n, k)
            rows.append(values)
        return [rows[i : i + len(A)] for i in range(0, len(rows), len(A))]

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

    def _contract(self, p: list[int], nu: AlcoveWeight) -> list[int]:
        """The residue mod Phi_n of sum_(sigma, i) p[sigma, i] x^i m^{nu*}(x^sigma) k!/|S_sigma|,
        as phi(n) dot products with the dual vectors of nu, built once per nu."""
        if nu.parts not in self._duals:
            star = nu.star().parts
            cols = []
            for s, e in zip(self.alcove, self.msym_counts[star]):
                e = [stab_order(star) * self.orbit[s.parts] * c for c in e]
                cols += [_reduce_mod_phi(e[-i:] + e[:-i], self.n) for i in range(self.n)]
            self._duals[nu.parts] = list(zip(*cols))
        return [sum(map(mul, p, q)) for q in self._duals[nu.parts]]


def n_verlinde(ctx: FusionContext, lam: AlcoveWeight, mu: AlcoveWeight, nu: AlcoveWeight) -> int:
    """Verlinde route: the pre-cancelled orthogonality sum over the alcove.

    N_{lam mu}^nu = sum_sigma m_lam(z^s) m_mu(z^s) m^{nu*}(z^s) / (n^k |S_sigma|),
    with m^{nu*} = |S_nu*| m_nu*, times n^k k! is one integer contraction in
    Z[x]/(x^n - 1) reduced by Phi_n; a non-integral value raises NonIntegralError.
    """
    ctx._check(lam, mu, nu)
    r = ctx._contract(ctx._product(lam.parts, mu.parts), nu)
    value, rem = divmod(r[0], ctx.scale)
    if rem or any(r[1:]):
        raise NonIntegralError(CycloNum._of(ctx.n, r, ctx.scale), "Verlinde sum")
    return value


def n_reduce(ctx: FusionContext, lam: AlcoveWeight, mu: AlcoveWeight, nu) -> int:
    """Reduction route: pull a dominant nu back into the alcove by multinomials."""
    ctx._check(lam, mu, nu)
    nu_parts = nu.parts if isinstance(nu, AlcoveWeight) else normalize(nu)
    padded = tuple(nu_parts) + (0,) * (ctx.k - len(nu_parts))
    if len(padded) != ctx.k:
        raise ValueError(f"{nu_parts} has more than {ctx.k} parts")
    nu_check, _ = reduce_to_alcove(padded, ctx.n, ctx.k)
    mult = 1
    for i in range(1, ctx.n + 1):
        mult *= comb_multinomial(
            multiplicity(nu_check.parts, i),
            [multiplicity(padded, v) for v in range(i % ctx.n, max(padded) + 1, ctx.n)],
        )
    base = fusion_count(lam.parts, mu.parts, nu_check.parts, ctx.n, ctx.k)
    return base * mult


def comb_multinomial(total: int, parts) -> int:
    parts = [p for p in parts if p]
    if sum(parts) != total:
        # multiplicities must refill the alcove class exactly
        return 0 if total or parts else 1
    out = 1
    remaining = total
    for p in parts:
        out *= comb(remaining, p)
        remaining -= p
    return out


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
    items = sorted(table.entries.items())
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
        yield ("\n]" if items else '{\n"entries": []') + tail + f',\n"n": {table.n}\n}}'
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
    quantum-dimension sum rule, checked exhaustively over the alcove."""
    rep = Report(f"fusion symmetries (n={ctx.n}, k={ctx.k})")
    A = ctx.alcove
    N = ctx.fusion
    unit = ctx.unit()
    u = ctx.index[unit.parts]
    star = [ctx.index[a.star().parts] for a in A]
    rot1, rot2, rot3 = ([ctx.index[a.rot(r).parts] for a in A] for r in (1, 2, 3))
    qd = [a.quantum_dim() for a in A]
    for i, lam in enumerate(A):
        for j, mu in enumerate(A):
            rep.run(
                N[i][u][j] == (1 if i == j else 0),
                "unit: N_({},{})^{}", lam.parts, unit.parts, mu.parts,
            )
            expect = qd[i] if star[i] == j else 0
            rep.run(N[i][j][u] == expect, "eta: N_({},{})^{}", lam.parts, mu.parts, unit.parts)
            for l, nu in enumerate(A):
                v = N[i][j][l]
                rep.run(v == N[j][i][l], "commutativity at {},{},{}", lam.parts, mu.parts, nu.parts)
                rep.run(
                    v == N[star[i]][star[j]][star[l]],
                    "star covariance at {},{},{}", lam.parts, mu.parts, nu.parts,
                )
                rep.run(
                    v * qd[l] == qd[i] * N[j][star[l]][star[i]],
                    "dual symmetry at {},{},{}", lam.parts, mu.parts, nu.parts,
                )
                rep.run(
                    v == N[rot1[i]][rot2[j]][rot3[l]],
                    "rotation covariance at {},{},{}", lam.parts, mu.parts, nu.parts,
                )
    # the quantum dimension sum rule, and associativity as the fusion-matrix
    # identity sum_s N_{lam mu}^s N_s = N_mu N_lam with (N_x)[a][b] = N_{xa}^b
    for i, lam in enumerate(A):
        for j, mu in enumerate(A):
            rep.run(
                qd[i] * qd[j] == sum(c * q for c, q in zip(N[i][j], qd)),
                "dimension rule at {},{}", lam.parts, mu.parts,
            )
            lam_mu = [(s, c) for s, c in enumerate(N[i][j]) if c]
            for l, nu in enumerate(A):
                mu_nu = [(s, c) for s, c in enumerate(N[j][l]) if c]
                for r, rho in enumerate(A):
                    left = sum(c * N[s][l][r] for s, c in lam_mu)
                    right = sum(c * N[i][s][r] for s, c in mu_nu)
                    rep.run(
                        left == right,
                        "associativity at {},{},{},{}", lam.parts, mu.parts, nu.parts, rho.parts,
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


def s_matrix(ctx: FusionContext):
    """Scaled modular S-matrix entries m_lam(zeta^mu); the sqrt(n^k) factor is omitted.

    Returns (matrix, metadata); matrix[i][j] corresponds to (alcove[i], alcove[j]).
    """
    n = ctx.n
    mat = [
        [CycloNum._of(n, _reduce_mod_phi(e, n)) for e in ctx.msym_counts[lam.parts]]
        for lam in ctx.alcove
    ]
    meta = {"scaling": f"entries are sqrt(n^k) * S, n^k = {ctx.n ** ctx.k}"}
    return mat, meta


def s_matrix_inverse_check(ctx: FusionContext) -> Report:
    """S * S^{-1} = id with the inverse built from the conjugate entries
    m_mu(zeta^{-nu}), read as the complex conjugates of m_mu(zeta^nu).

    With both scalings omitted the product must equal n^k times the identity;
    the middle index carries the stabiliser weight.
    """
    rep = Report(f"S-matrix inverse (n={ctx.n}, k={ctx.k})")
    n, k = ctx.n, ctx.k
    S, _ = s_matrix(ctx)
    for i, lam in enumerate(ctx.alcove):
        for l, nu in enumerate(ctx.alcove):
            total = CycloNum.zero(n)
            for row, s in zip(S, S[i]):
                total = total + s * row[l].conjugate()
            ok = total == CycloNum.from_rational(n, n**k if i == l else 0)
            rep.run(ok, "inverse at {},{}", lam.parts, nu.parts)
    return rep


def t_matrix(ctx: FusionContext):
    """Diagonal T-matrix data in Q(zeta_{24n}): a 24th-root phase times zeta powers."""
    n, k = ctx.n, ctx.k
    big = 24 * n
    out = []
    for lam in ctx.alcove:
        exponent = -k * n * (n - 1) + 12 * sum(p * (n - p) for p in lam.parts)
        out.append((lam, zeta_pow(big, exponent)))
    return out


def t_unitarity_check(ctx: FusionContext) -> Report:
    rep = Report(f"T unitarity (n={ctx.n}, k={ctx.k})")
    for lam, t in t_matrix(ctx):
        val = t * t.conjugate()
        rep.run(val.to_integer() == 1, "|T|^2 at {}", lam.parts)
    return rep


def modular_relations_check(n: int) -> Report:
    """k = 1 presentation: S^2 = (ST)^3 = C with the charge conjugation C.

    Runs in Q(zeta_{24n}) where both sqrt(n) and the T phase exist exactly.
    """
    rep = Report(f"modular relations (n={n}, k=1)")
    big = 24 * n
    sqrt_n = sqrt_int(n, big)
    inv_sqrt = sqrt_n.inv()
    S = [
        [zeta_pow(big, 24 * a * b) * inv_sqrt for b in range(1, n + 1)]
        for a in range(1, n + 1)
    ]
    T = [
        [
            zeta_pow(big, -n * (n - 1) + 12 * a * (n - a)) if a == b else CycloNum.zero(big)
            for b in range(1, n + 1)
        ]
        for a in range(1, n + 1)
    ]
    C = [
        [
            CycloNum.from_rational(big, 1 if (a + b) % n == 0 else 0)
            for b in range(1, n + 1)
        ]
        for a in range(1, n + 1)
    ]

    def matmul(X, Y):
        return [
            [
                sum((X[i][m] * Y[m][j] for m in range(n)), CycloNum.zero(big))
                for j in range(n)
            ]
            for i in range(n)
        ]

    def equal(X, Y):
        return all((X[i][j] - Y[i][j]).is_zero() for i in range(n) for j in range(n))

    S2 = matmul(S, S)
    rep.run(equal(S2, C), "S^2 = C")
    ST = matmul(S, T)
    rep.run(equal(matmul(matmul(ST, ST), ST), C), "(ST)^3 = C")
    S_conj = [[S[i][j].conjugate() for j in range(n)] for i in range(n)]
    ident = [
        [CycloNum.from_rational(big, 1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    rep.run(equal(matmul(S, S_conj), ident), "S S* = id")
    return rep


def frobenius_suite(ctx: FusionContext) -> Report:
    """Bilinear form non-degeneracy and the quotient-ring ideal annihilation."""
    rep = Report(f"Frobenius structure (n={ctx.n}, k={ctx.k})")
    n, k = ctx.n, ctx.k
    A = ctx.alcove
    unit = ctx.unit()
    # eta(v_lam, v_mu) proportional to N^{n^k}: a monomial pairing delta_{lam*, mu} d_lam
    for lam in A:
        nonzero = []
        for mu in A:
            v = fusion_count(unit.parts, lam.parts, mu.parts, n, k)
            expect = lam.quantum_dim() if lam.star() == mu else 0
            rep.run(v == expect, "eta entry at {},{}", lam.parts, mu.parts)
            if v:
                nonzero.append(mu)
        rep.run(len(nonzero) == 1, "eta row at {} is monomial", lam.parts)
    # the ideal generators p_{n+r} - p_r vanish at every alcove evaluation point
    for sigma in A:
        for r in range(0, k):
            val = _power_sum_eval(sigma.parts, n + r, n) - _power_sum_eval(sigma.parts, r, n)
            rep.run(val.is_zero(), "ideal generator p_{} - p_{} at {}", n + r, r, sigma.parts)
        p_n = _power_sum_eval(sigma.parts, n, n)
        rep.run(p_n == CycloNum.from_rational(n, k), "p_n = k at {}", sigma.parts)
    return rep


def _power_sum_eval(sigma: Weight, r: int, n: int) -> CycloNum:
    total = CycloNum.zero(n)
    for s in sigma:
        total = total + zeta_pow(n, r * s)
    return total


def mfusion_pointwise_check(ctx: FusionContext, samples: int = 50, seed: int = 7) -> Report:
    """Pointwise product expansion of monomial functions at random zeta powers."""
    import random

    rng = random.Random(seed)
    rep = Report(f"pointwise fusion expansion (n={ctx.n}, k={ctx.k})")
    n, k = ctx.n, ctx.k
    pairs = [(a, b) for a in ctx.alcove for b in ctx.alcove]
    for _ in range(samples):
        lam, mu = rng.choice(pairs)
        p = tuple(rng.randrange(-2 * n, 2 * n + 1) for _ in range(k))
        lhs = eval_msym(lam.parts, p, n) * eval_msym(mu.parts, p, n)
        rhs = CycloNum.zero(n)
        for nu in ctx.alcove:
            c = fusion_count(nu.parts, lam.parts, mu.parts, n, k)
            if c:
                rhs = rhs + eval_msym(nu.parts, p, n) * c
        rep.run((lhs - rhs).is_zero(), "pointwise at {},{},p={}", lam.parts, mu.parts, p)
    return rep
