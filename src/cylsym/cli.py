"""Command line surface: tables, expansions and verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Output is byte-stable for fixed arguments: keys are sorted and rationals
rendered canonically.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from itertools import chain

from . import fusion as fu
from . import grassmannian as gr
from .cylindric import (
    antipode_check,
    cyl_e,
    cyl_h,
    coproduct_cyl_check,
    cyl_in_nonskew,
    phi_cyl,
    phi_cyl_oracle,
    psi_cyl,
    psi_cyl_oracle,
    theta_cyl,
    theta_cyl_oracle,
)
from .partitions import AlcoveWeight, BoxedPartition, enumerate_alcove, format_partition
from .partitions import lawful_rows, parse_partition


class UsageError(Exception):
    pass


def _partition_arg(text: str):
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write(chunks, path: str | None):
    """Send the chunks to the file at path, or to stdout without one, and end
    with a newline if the last chunk lacks one."""

    def ended():
        last = ""
        for last in chunks:
            yield last
        if not last.endswith("\n"):
            yield "\n"

    if not path:
        sys.stdout.writelines(ended())
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(ended())
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


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


def _suite_formula_oracle(n: int, k: int) -> fu.Report:
    rep = fu.Report(f"formula vs oracle (n={n}, k={k})")
    alcove = enumerate_alcove(n, k)
    for lam in alcove:
        for mu in alcove:
            for d in range(0, 4):
                rep.run(
                    theta_cyl(lam, d, mu) == theta_cyl_oracle(lam, d, mu),
                    "theta at {}/{}/{}", lam.parts, d, mu.parts,
                )
                rep.run(
                    psi_cyl(lam, d, mu) == psi_cyl_oracle(lam, d, mu),
                    "psi at {}/{}/{}", lam.parts, d, mu.parts,
                )
                rep.run(
                    phi_cyl(lam, d, mu) == phi_cyl_oracle(lam, d, mu),
                    "phi at {}/{}/{}", lam.parts, d, mu.parts,
                )
    return rep


def _suite_route_equivalence(n: int, k: int) -> fu.Report:
    ctx = fu.FusionContext(n, k)
    rep = fu.Report(f"fusion route equivalence (n={n}, k={k})")
    for lam in ctx.alcove:
        for mu in ctx.alcove:
            for nu in ctx.alcove:
                # all three give N_{lam mu}^nu; the top index comes first in
                # the counting and reduction signatures
                a = fu.n_count(nu, lam, mu)
                b = fu.n_verlinde(ctx, lam, mu, nu)
                c = fu.n_reduce(ctx, nu, lam, mu)
                rep.run(
                    a == b == c, "routes at {},{},{}: {},{},{}",
                    lam.parts, mu.parts, nu.parts, a, b, c,
                )
    if 1 <= k < n:
        gctx = gr.grass_context(n, k)
        for lam, mu, row in lawful_rows(gctx.boxed, n, 1):
            for nu, d in row:
                rep.run(
                    gr.gw_bvi(gctx, lam, mu, nu, d) == gr.gw_ribbon(gctx, lam, mu, nu, d),
                    "GW routes at {},{},{},{}", lam.parts, mu.parts, nu.parts, d,
                )
    return rep


def _suite_coalgebra(n: int, k: int) -> fu.Report:
    rep = fu.Report(f"coalgebra (n={n}, k={k})")
    alcove = enumerate_alcove(n, k)
    for lam in alcove:
        for mu in alcove:
            rep.run(antipode_check(lam, 1, mu), "antipode at {}/1/{}", lam.parts, mu.parts)
            for (sigma, e), c in cyl_in_nonskew(lam, 1, mu).items():
                rep.run(
                    c >= 0, "positivity at {}/1/{} -> {},{}", lam.parts, mu.parts, sigma.parts, e
                )
    small = alcove[: min(3, len(alcove))]
    for lam in small:
        for mu in small:
            rep.run(coproduct_cyl_check(lam, 1, mu), "coproduct at {}/1/{}", lam.parts, mu.parts)
    return rep


def _suite_symmetry(n: int, k: int) -> fu.Report:
    return fu.symmetry_suite(fu.FusionContext(n, k))


def _suite_orthogonality(n: int, k: int) -> fu.Report:
    ctx = fu.FusionContext(n, k)
    rep = fu.orthogonality_check(ctx)
    others = [fu.s_matrix_inverse_check(ctx), fu.t_unitarity_check(ctx)]
    if k == 1:
        others.append(fu.modular_relations_check(n))
    for other in others:
        rep.checks += other.checks
        rep.failures.extend(other.failures)
    return rep


SUITES = {
    "formula-oracle": _suite_formula_oracle,
    "symmetry": _suite_symmetry,
    "route-equivalence": _suite_route_equivalence,
    "coalgebra": _suite_coalgebra,
    "orthogonality": _suite_orthogonality,
}


def cmd_verify(args) -> int:
    chosen = SUITES if args.suite == "all" else (args.suite,)
    failed = False
    for name in chosen:
        rep = SUITES[name](args.n, args.k)
        print(rep.summary())
        failed = failed or not rep.ok
    return 1 if failed else 0


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
