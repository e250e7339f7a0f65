"""Command line surface: tables, expansions and verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Output is byte-stable for fixed arguments: keys are sorted and rationals
rendered canonically.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import lru_cache
from itertools import chain

from . import fusion as fu
from . import grassmannian as gr
from .cylindric import (
    PackedAntipode,
    _expansions,
    coproduct_holds,
    cyl_e,
    cyl_h,
    nonskew_from_array,
    oracle_rows,
    phi_cyl,
    phi_cyl_oracle,
    psi_cyl,
    theta_cyl,
)
from .partitions import AlcoveWeight, BoxedPartition, format_partition
from .partitions import parse_partition


class UsageError(Exception):
    pass


def _partition_arg(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write(chunks, path: str | None):
    """Send the chunks to the file at path, or to stdout without one, ending with
    a newline; a failed write (a closed pipe, a full device) is a usage error."""

    def ended():
        last = ""
        for last in chunks:
            yield last
        if not last.endswith("\n"):
            yield "\n"

    try:
        if path:
            with open(path, "w") as fh:
                fh.writelines(ended())
        else:
            sys.stdout.writelines(ended())
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            # the unwritten buffer then goes to /dev/null at exit, not to a traceback
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {path or 'stdout'}: {exc.strerror}") from None


def _table_text(table: fu.CoeffTable) -> str:
    return "".join(fu._render(table, "text"))


def cmd_fusion(args) -> int:
    table = fu.build_table(fu.FusionContext(args.n, args.k), dmax=args.dmax, keep_zero=True)
    _write(fu._render(table, args.format), args.out)
    return 0


def cmd_gw(args) -> int:
    try:
        ctx = gr.grass_context(args.n, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write(fu._render(gr.gw_table(ctx, args.dmax), args.format), args.out)
    return 0


def cmd_cyl(args) -> int:
    lam = _partition_arg(args.lam)
    mu = _partition_arg(args.mu)
    if args.kind in ("h", "e"):
        try:
            lam_w = AlcoveWeight(lam, args.n, args.k)
            mu_w = AlcoveWeight(mu, args.n, args.k)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        f = cyl_h(lam_w, args.d, mu_w) if args.kind == "h" else cyl_e(lam_w, args.d, mu_w)
    else:
        try:
            ctx = gr.grass_context(args.n, args.k)
            lam_b = BoxedPartition(lam, args.n, args.k)
            mu_b = BoxedPartition(mu, args.n, args.k)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        f = gr.cyl_schur(ctx, lam_b, args.d, mu_b)
    if args.format == "json":
        _write([f.to_json()], args.out)
    else:
        lines = (f"{format_partition(p)}  {c}\n" for p, c in sorted(f.coeffs))
        _write(chain([f"basis {f.basis}\n"], lines), args.out)
    return 0


def _suite_formula_oracle(ctx: fu.FusionContext) -> fu.Report:
    rep = fu.Report(f"formula vs oracle (n={ctx.n}, k={ctx.k})")
    alcove = ctx.alcove
    for lam in alcove:
        for mu in alcove:
            theta, psi = oracle_rows(lam, mu, 3)
            rows = [
                ([theta_cyl(lam, d, mu) for d in range(4)], theta, "theta at {}/{}/{}"),
                ([psi_cyl(lam, d, mu) for d in range(4)], psi, "psi at {}/{}/{}"),
                (
                    [phi_cyl(lam, d, mu) for d in range(4)],
                    [phi_cyl_oracle(lam, d, mu) for d in range(4)],
                    "phi at {}/{}/{}",
                ),
            ]
            rep.run_rows(rows, lambda d: (lam.parts, d, mu.parts))
    return rep


def _suite_route_equivalence(ctx: fu.FusionContext) -> fu.Report:
    n, k = ctx.n, ctx.k
    rep = fu.Report(f"fusion route equivalence (n={n}, k={k})")
    A = ctx.alcove
    for i, lam in enumerate(A):
        verlinde = fu.verlinde_rows(ctx, lam)  # one twist of the packed duals per lam
        for j, mu in enumerate(A):
            # all three give N_{lam mu}^nu for every nu: the count of pairs binned
            # by residues, the Verlinde sum and the array's count by partners
            a, b, c = fu.count_row(ctx, lam, mu), verlinde[j], ctx.fusion[i][j]
            rep.run_rows(
                [(list(zip(a, b)), [(x, x) for x in c], "routes at {},{},{}: {},{},{}")],
                lambda l: (lam.parts, mu.parts, A[l].parts, a[l], b[l], c[l]),
            )
    if 1 <= k < n:
        gctx = gr.grass_context(n, k)
        for lam, mu, row, bvi in gr.gw_bvi_rows(gctx, 1):
            ribbon = [gr.gw_ribbon(gctx, lam, mu, nu, d) for nu, d in row]
            rep.run_rows(
                [(bvi, ribbon, "GW routes at {},{},{},{}")],
                lambda x: (lam.parts, mu.parts, row[x][0].parts, row[x][1]),
            )
    return rep


def _suite_coalgebra(ctx: fu.FusionContext) -> fu.Report:
    """The antipode and positivity at every lam/1/mu, the coproduct on the first
    three alcove points.  One general walk out of each mu, read at (nu, 0) and
    (nu, 1), and one row-strict walk read at (nu, 1) are folded into the
    packed antipode check as they come; only the coproduct's factors are kept.
    The failing pairs are read back from the packed slots, one check per pair
    in the order of the alcove."""
    n, k = ctx.n, ctx.k
    rep = fu.Report(f"coalgebra (n={n}, k={k})")
    alcove = ctx.alcove
    small = alcove[: min(3, len(alcove))]
    packed = PackedAntipode()
    left, right = {}, {}
    for mu in alcove:
        hs = _expansions(mu, [(nu, d) for d in (0, 1) for nu in alcove], "general")
        es = _expansions(mu, [(nu, 1) for nu in alcove], "row-strict")
        for lam in alcove:
            packed.add((lam, mu), lam.size - mu.size + n, hs[(lam, 1)], es[(lam, 1)])
        left[mu] = {(lam, d): hs[(lam, d)] for lam in small for d in (0, 1)}
        if mu in small:
            right[mu] = hs
    wrong = packed.failing()
    for lam in alcove:
        for mu in alcove:
            rep.run((lam, mu) not in wrong, "antipode at {}/1/{}", lam.parts, mu.parts)
            for (sigma, e), c in nonskew_from_array(ctx, lam, 1, mu).items():
                rep.run(
                    c >= 0, "positivity at {}/1/{} -> {},{}", lam.parts, mu.parts, sigma.parts, e
                )
    for lam in small:
        for mu in small:
            holds = coproduct_holds(lam, 1, right[mu], lambda d1, nu: left[nu][(lam, d1)])
            rep.run(holds, "coproduct at {}/1/{}", lam.parts, mu.parts)
    return rep


def _suite_orthogonality(ctx: fu.FusionContext) -> fu.Report:
    rep = fu.orthogonality_check(ctx)
    others = [fu.s_matrix_inverse_check(ctx), fu.t_unitarity_check(ctx)]
    if ctx.k == 1:
        others.append(fu.modular_relations_check(ctx.n))
    for other in others:
        rep.checks += other.checks
        rep.failures.extend(other.failures)
    return rep


SUITES = {
    "formula-oracle": _suite_formula_oracle,
    # looked up at every call, so that a rebound (say, instrumented) suite is the one run
    "symmetry": lambda ctx: fu.symmetry_suite(ctx),
    "route-equivalence": _suite_route_equivalence,
    "coalgebra": _suite_coalgebra,
    "orthogonality": _suite_orthogonality,
}


def cmd_verify(args) -> int:
    """Run the chosen suites on one context, so that `verify all` builds the
    fusion array, the exponent counts and the duals once."""
    chosen = SUITES if args.suite == "all" else (args.suite,)
    ctx = fu.FusionContext(args.n, args.k)
    reports = []

    def summaries():  # one line per suite as soon as it has run
        for name in chosen:
            reports.append(SUITES[name](ctx))
            yield reports[-1].summary() + "\n"

    _write(summaries(), None)
    return 0 if all(rep.ok for rep in reports) else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cylsym",
        description="cylindric symmetric functions, fusion coefficients and Gromov-Witten invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fusion = sub.add_parser("fusion", help="fusion coefficient table")
    p_fusion.add_argument("--n", type=int, required=True)
    p_fusion.add_argument("--k", type=int, required=True)
    p_fusion.add_argument("--dmax", type=int, default=None)
    p_fusion.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_fusion.add_argument("--out", default=None)
    p_fusion.set_defaults(func=cmd_fusion)

    p_gw = sub.add_parser("gw", help="Gromov-Witten invariant table")
    p_gw.add_argument("--n", type=int, required=True)
    p_gw.add_argument("--k", type=int, required=True)
    p_gw.add_argument("--dmax", type=int, required=True)
    p_gw.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_gw.add_argument("--out", default=None)
    p_gw.set_defaults(func=cmd_gw)

    p_cyl = sub.add_parser("cyl", help="expand a cylindric function")
    p_cyl.add_argument("kind", choices=("h", "e", "s"))
    p_cyl.add_argument("--n", type=int, required=True)
    p_cyl.add_argument("--k", type=int, required=True)
    p_cyl.add_argument("--lambda", dest="lam", required=True, help='outer weight, e.g. "2,1"')
    p_cyl.add_argument("--mu", required=True, help='inner weight; "-" for empty')
    p_cyl.add_argument("--d", type=int, required=True)
    p_cyl.add_argument("--format", choices=("json", "text"), default="text")
    p_cyl.add_argument("--out", default=None)
    p_cyl.set_defaults(func=cmd_cyl)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return int(exc.code) if exc.code else 0
    if args.n < 1 or args.k < 1:
        print("error: n and k must be positive", file=sys.stderr)
        return 2
    for flag in ("dmax", "d"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"error: --{flag} must be non-negative", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
