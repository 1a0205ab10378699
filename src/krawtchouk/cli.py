"""Command-line front end: matrices, verification suites, zeon operators,
algebra statistics.

Exit codes: 0 all checks pass, 1 at least one identity violation,
2 usage or parameter error. JSON goes to stdout, diagnostics and timing to
stderr; stdout is byte-stable across identical invocations.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .algebra import Family, analyze_family
from .identities import (
    catalan_connection_report,
    central_row_value,
    column_square_central_link,
    column_squares_closed_form,
    column_sum_of_squares,
    row_sum_of_squares,
    super_catalan_link,
    sweep_column_sum_relation,
    sweep_partial_sum_plain,
    sweep_sum_squares_general,
    sweep_sum_squares_symmetric,
)
from .matrices import (
    build_matrix,
    clear_memo,
    closed_form_row1_col01,
    verify_binomial_conjugation,
    verify_involution,
    verify_pascal,
    verify_recurrence_j,
    verify_sign_symmetries,
)
from .report import IdentityReport, render_rational, render_side
from .zeon import layer, lower_op, op_T, op_Tstar, op_U, raise_op, zeon_sum

DEFAULT_R_LIST = [
    Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
    Fraction(3, 7), Fraction(-2), Fraction(5),
]

# Largest sizes the CLI accepts. The builder costs about N^3 operations (ints
# at r = 1, rationals otherwise); twice the size at r != 1 takes minutes. On
# a 2-core 3.11 host, matrix --n 160 takes 0.5 s at r = 1 and 11 s at r = 3/7;
# verify --suite all --max-n 24 0.5-0.75 s at --r 3/7 --r 1, 1.4-2.1 s at the
# default r (whole process, on a host whose speed varies about 2x).
MAX_MATRIX_N = 160
MAX_VERIFY_N = 24
# Most decimal digits in the numerator and in the denominator of an r; the
# builder slows with them. matrix --n 160 takes 22-26 s at r = 999999/999998
# (entries of at most 960 digits a part) and 25-27 s with 7 digits.
MAX_R_DIGITS = 6
# Most --r values one verify takes; each adds a sweep of every level. verify
# --suite all --max-n 24 takes 19-22 s with 20 six-digit r values (44 MiB peak).
MAX_R_VALUES = 20

# a negative r such as -5/9 or -1e1, which argparse would read as an option:
# any '-' followed by a digit or '.'; parse_rational validates it
NEGATIVE_RATIONAL = re.compile(r"-[\d.]")


def join_negative_r(argv: list[str]) -> list[str]:
    """Rewrite '--r -5/9' as '--r=-5/9', so that argparse reads it as a value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--r" and NEGATIVE_RATIONAL.match(token):
            out[-1] = f"--r={token}"
        else:
            out.append(token)
    return out


def parse_rational(text: str) -> Fraction:
    """An r within the MAX_R_DIGITS budget. An exponent of five or more digits
    is refused before Fraction forms 10**exponent: 1e10000000 takes 12 s."""
    exponent = re.search(r"[eE][-+]?([\d_]+)", text)
    if not exponent or len(exponent[1].replace("_", "").lstrip("0")) < 5:
        try:
            r = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"not a rational 'num/den' or integer: {text!r}") from exc
        if max(abs(r.numerator), r.denominator) < 10 ** MAX_R_DIGITS:
            return r
    raise argparse.ArgumentTypeError(
        f"{text} exceeds the budget ({MAX_R_DIGITS} digits in numerator and denominator)")


# ---------------------------------------------------------------------------
# suite functions: each checks one level or one range and returns its report
# ---------------------------------------------------------------------------

def _t_sums(N: int, r_list: list[Fraction]) -> IdentityReport:
    """All summation identities at one level N: the general-r theorem, its
    symmetric specialization, plain partial sums, the column-sum relation,
    and full row/column sums of squares. Each column is swept once per
    identity, so a level costs O(N^2) int operations per r. The general-r
    sides come times a common scale and are compared in ints; Fractions are
    formed only for a failure, divided back by record_scaled."""
    rep = IdentityReport(suite=f"sums N={N}")
    if N >= 1:
        general: dict[tuple, list] = {}  # (r, j) -> sweep; those at r = 1 are reused
        for r in r_list:
            if r == -1:
                continue
            M = build_matrix(N, r)
            M1 = build_matrix(N - 1, r)
            for j in range(N + 1):
                general[r, j] = sweep_sum_squares_general(N, r, j, M, M1)
                for m, (lhs, rhs, scale) in enumerate(general[r, j]):
                    rep.record_scaled(("thm-sqsum", r, j, m), lhs, rhs, scale)
        Ms = build_matrix(N, 1)
        Ms1 = build_matrix(N - 1, 1)
        for j in range(N + 1):
            symmetric = sweep_sum_squares_symmetric(N, j, Ms, Ms1)
            at_1 = general.get((1, j)) or sweep_sum_squares_general(N, 1, j, Ms, Ms1)
            for m, (lhs, rhs) in enumerate(symmetric):
                rep.record(("symm-sqsum", j, m), lhs, rhs)
                rep.record(("symm-vs-general", j, m), (lhs, rhs), at_1[m][:2])
            # full-column weighted square sum vanishes by the sign symmetry
            rep.record(("full-column-zero", j), symmetric[N][0], 0)
        for j in range(2, N + 1):
            for m, (lhs, rhs1, rhs2) in enumerate(sweep_partial_sum_plain(N, j, Ms, Ms1)):
                rep.record(("plain-partial-1", j, m), lhs, rhs1)
                rep.record(("plain-partial-2", j, m), lhs, rhs2)
        for j in range(N):
            for m, (lhs, rhs) in enumerate(sweep_column_sum_relation(N, j, Ms, Ms1)):
                rep.record(("column-sum", j, m), lhs, rhs)
        for j in range(N + 1):
            brute, closed = column_sum_of_squares(N, j, Ms)
            rep.record(("col-squares", j), brute, closed)
        for i in range(N + 1):
            brute, closed = row_sum_of_squares(N, i, Ms)
            rep.record(("row-squares", i), brute, closed)
    return rep


def _t_colsquares_integrality(max_N: int) -> IdentityReport:
    rep = IdentityReport(suite=f"col-squares integrality N<={max_N}")
    for N in range(max_N + 1):
        for j in range(N + 1):
            rep.record(("integral", N, j), column_squares_closed_form(N, j).denominator, 1)
    return rep


def _t_central_rows(N: int) -> IdentityReport:
    rep = IdentityReport(suite=f"central-row N={N}")
    M = build_matrix(N, 1)
    m = N // 2
    for j in range(N + 1):
        rep.record((N, j), central_row_value(N, j), M.entry(m, j))
    return rep


def _t_column_square_link(m: int) -> IdentityReport:
    rep = IdentityReport(suite=f"column-square-central-link m={m}")
    for j in range(0, 2 * m + 1, 2):
        lhs, rhs = column_square_central_link(m, j)
        rep.record((m, j), lhs, rhs)
    return rep


def _t_supercatalan(max_n: int) -> IdentityReport:
    rep = IdentityReport(suite=f"supercatalan n<={max_n}")
    for n in range(max_n + 1):
        for k in range(n + 1):
            lhs, rhs = super_catalan_link(n, k)
            rep.record((n, k), lhs, rhs)
    return rep


def _t_zeon(n: int) -> IdentityReport:
    """Structural checks on the zeon operators at one n."""
    rep = IdentityReport(suite=f"zeon n={n}")
    raises = [raise_op(n, i) for i in range(1, n + 1)]
    lowers = [lower_op(n, i) for i in range(1, n + 1)]
    for i in range(n):
        rep.record_bool(("raise-square-zero", i + 1), (raises[i] @ raises[i]).is_zero())
        rep.record_bool(("lower-square-zero", i + 1), (lowers[i] @ lowers[i]).is_zero())
        rep.record_bool(("adjoint", i + 1), raises[i].transpose() == lowers[i])
        for k in range(i + 1, n):
            rep.record_bool(
                ("raise-commute", i + 1, k + 1),
                raises[i] @ raises[k] == raises[k] @ raises[i],
            )
            rep.record_bool(
                ("lower-commute", i + 1, k + 1),
                lowers[i] @ lowers[k] == lowers[k] @ lowers[i],
            )
    T = zeon_sum(n, [(1, R) for R in raises])
    Tstar = zeon_sum(n, [(1, L) for L in lowers])
    U = Tstar @ T - T @ Tstar  # op_U's definition, on the T and T* at hand
    rep.record_bool(("Tstar-transpose",), Tstar == T.transpose())
    rep.record(("T-nnz",), T.nnz(), n * 2 ** (n - 1))
    rep.record_bool(("U-diagonal",), U.is_diagonal())
    rep.record(("U-spectrum",), U.diagonal(), [n - 2 * layer(I) for I in range(1 << n)])
    anticomm_sum = zeon_sum(n, (term for L, R in zip(lowers, raises)
                                for term in ((1, L @ R), (-1, R @ L))))
    rep.record_bool(("sum-of-commutators-is-U",), anticomm_sum == U)
    return rep


def _t_injected_fault() -> IdentityReport:
    """Deliberately corrupted matrix comparison, exercising the exit-1 path."""
    rep = IdentityReport(suite="injected-fault")
    M = build_matrix(4, 1)
    corrupted = [list(row) for row in M.entries]
    corrupted[1][0] += 1
    for n in range(5):
        for j in range(5):
            rep.record((n, j), corrupted[n][j], M.entries[n][j])
    return rep


# suite name -> its reports up to level top at the r values rs, in the order the suites run
SUITES = {
    "pascal": lambda top, rs: [verify_pascal(N, r) for N in range(top + 1) for r in rs],
    "recurrence": lambda top, rs: [verify_recurrence_j(N, r)
                                   for N in range(1, top + 1) for r in rs],
    "involution": lambda top, rs: [verify_involution(N) for N in range(top + 1)],
    "symmetries": lambda top, rs: [verify_sign_symmetries(N) for N in range(top + 1)],
    "rows-cols": lambda top, rs: [closed_form_row1_col01(N) for N in range(top + 1)],
    "conjugation": lambda top, rs: [verify_binomial_conjugation(N) for N in range(top + 1)],
    "sums": lambda top, rs: [_t_sums(N, rs) for N in range(1, top + 1)]
        + [_t_colsquares_integrality(max(top, 20))],
    "catalan": lambda top, rs: [_t_central_rows(N) for N in range(max(top, 14) + 1)]
        + [catalan_connection_report(m) for m in range(1, top + 1)]
        + [_t_column_square_link(m) for m in range(top + 1)],
    "supercatalan": lambda top, rs: [_t_supercatalan(max(top, 15))],
    "zeon": lambda top, rs: [_t_zeon(n) for n in range(1, min(top, 8) + 1)],
}
SUITE_NAMES = [*SUITES, "all"]


def _reports(suites: list[str], max_n: int, r_list: list[Fraction]) -> list[IdentityReport]:
    return [report for name, run in SUITES.items() if name in suites or "all" in suites
            for report in run(max_n, r_list)]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_matrix(M, fmt: str) -> str:
    cells = [[render_rational(v) for v in row] for row in M.entries]
    if fmt == "csv":
        header = f"# krawtchouk N={M.N} r={M.r.numerator}/{M.r.denominator}"
        return "\n".join([header] + [",".join(row) for row in cells]) + "\n"
    if fmt == "json":
        return json.dumps(
            {
                "schema": 1,
                "kind": "krawtchouk_matrix",
                "N": M.N,
                "r": f"{M.r.numerator}/{M.r.denominator}",
                "entries": cells,
            },
            sort_keys=True,
        ) + "\n"
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells) + "\n"


def _add_format(p: argparse.ArgumentParser, choices: list[str]) -> None:
    """--format; without it main reads $KRAWTCHOUK_FORMAT, or else takes the
    first choice, on each call, and checks it against the choices."""
    p.add_argument("--format", choices=choices)
    p.set_defaults(formats=choices)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_budget(option: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{option} {value} exceeds the budget ({limit})")


def cmd_matrix(args) -> int:
    _check_budget("--n", args.n, MAX_MATRIX_N)
    M = build_matrix(args.n, args.r)
    sys.stdout.write(_render_matrix(M, args.format))
    return 0


def cmd_verify(args) -> int:
    _check_budget("--max-n", args.max_n, MAX_VERIFY_N)
    if len(args.r) > MAX_R_VALUES:
        raise ValueError(
            f"--r given {len(args.r)} times exceeds the budget ({MAX_R_VALUES} values)")
    t0 = time.monotonic()
    reports = _reports(args.suite, args.max_n, args.r)
    if args.inject_fault:
        reports.append(_t_injected_fault())
    wall = time.monotonic() - t0

    total_cases = sum(r.cases for r in reports)
    total_failures = sum(r.failure_count for r in reports)
    exit_code = 0 if total_failures == 0 else 1
    if args.format == "json":
        doc = {
            "schema": 1,
            "tool_version": __version__,
            "invocation": {
                "suite": args.suite,
                "max_n": args.max_n,
                "r": [f"{x.numerator}/{x.denominator}" for x in args.r],
                "jobs": 1,  # schema 1 keeps the key; verify runs in this process
            },
            "suites": [r.to_json() for r in reports],
            "total_cases": total_cases,
            "total_failures": total_failures,
            "exit_code": exit_code,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        for r in reports:
            status = "ok" if r.ok else f"FAIL ({r.failure_count})"
            sys.stdout.write(f"{r.suite}: {r.cases} cases, {status}\n")
            for f in r.failures[:5]:
                left, right = render_side(f.left), render_side(f.right)
                sys.stdout.write(f"  mismatch {render_side(f.params)}: {left} != {right}\n")
        sys.stdout.write(
            f"total: {total_cases} cases, {total_failures} failures\n"
        )
    sys.stderr.write(f"wall time: {wall:.3f}s\n")
    return exit_code


# the zeon command's operator tokens; a token ending in ':' takes an index i
ZEON_OPERATORS = {"T": op_T, "Tstar": op_Tstar, "U": op_U,
                  "raise:": raise_op, "lower:": lower_op}


def cmd_zeon(args) -> int:
    name = args.op
    kind, colon, idx = name.partition(":")
    build = ZEON_OPERATORS.get(kind + colon)
    if build is None:
        raise ValueError(f"unknown operator token {name!r}")
    try:
        index = (int(idx),) if colon else ()
    except ValueError:
        raise ValueError(f"operator index in {name!r} is not an integer") from None
    M = build(args.n, *index)
    if args.format == "json":
        sys.stdout.write(json.dumps(M.to_json_dict(name), sort_keys=True) + "\n")
    else:
        sys.stdout.write(M.to_coordinate_text(name))
        if name == "U":
            diag = " ".join(str(v) for v in M.diagonal())
            sys.stdout.write(f"# diagonal {diag}\n")
    return 0


def cmd_algebra(args) -> int:
    family = Family(args.family)
    comparison = analyze_family(family, args.n, allow_large=args.allow_large)
    if args.format == "json":
        sys.stdout.write(json.dumps(comparison.to_json(), sort_keys=True) + "\n")
    else:
        c, p = comparison.computed, comparison.predicted
        sys.stdout.write(f"family {family.value}, n={args.n}\n")
        sys.stdout.write("stat   computed  predicted  match\n")
        for name in ("d", "delta", "zeta", "z"):
            cv, pv = getattr(c, name), getattr(p, name)
            flag = comparison.matches.get(name)
            mark = "-" if flag is None else ("yes" if flag else "NO")
            sys.stdout.write(f"{name:<6} {cv:>8}  {pv:>9}  {mark}\n")
        if "z_equals_delta" in comparison.matches:
            mark = "yes" if comparison.matches["z_equals_delta"] else "NO"
            sys.stdout.write(f"z == delta (commutative family): {mark}\n")
        sys.stdout.write(
            "components: "
            + " ".join(f"{m}x{deg}" for m, deg in comparison.components.components)
            + f" (count {comparison.components.count})\n"
        )
        for note in comparison.notes:
            sys.stdout.write(note + "\n")
    if args.check and not comparison.ok:
        return 1
    return 0


@functools.cache  # built on the first main call, not at import, and then reused
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krawtchouk",
        description="Exact Krawtchouk matrices, identity verification, and "
        "Boolean-lattice operator algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="emit a Krawtchouk matrix")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--r", type=parse_rational, default=Fraction(1))
    _add_format(p, ["pretty", "csv", "json"])
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", action="append", choices=SUITE_NAMES, required=True)
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.add_argument("--r", type=parse_rational, action="append", default=None)
    _add_format(p, ["text", "json"])
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("zeon", help="emit a zeon operator matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--op", required=True,
                   help="T, Tstar, U, raise:i, or lower:i")
    _add_format(p, ["coord", "json"])
    p.set_defaults(func=cmd_zeon)

    p = sub.add_parser("algebra", help="compare computed and predicted algebra statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--allow-large", action="store_true", dest="allow_large")
    _add_format(p, ["text", "json"])
    p.set_defaults(func=cmd_algebra)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(join_negative_r(sys.argv[1:] if argv is None else argv))
    if args.format is None:
        args.format = os.environ.get("KRAWTCHOUK_FORMAT", args.formats[0])
    if args.format not in args.formats:
        parser.error(f"KRAWTCHOUK_FORMAT={args.format!r} is not a format of "
                     f"{args.command}; accepted: {', '.join(args.formats)}")
    if args.command == "matrix" and args.n < 0:
        parser.error("--n must be nonnegative")
    if args.command == "verify":
        if args.max_n < 0:
            parser.error("--max-n must be nonnegative")
        if args.r is None:
            args.r = list(DEFAULT_R_LIST)
    if args.command == "zeon" and not 1 <= args.n <= 12:
        parser.error("--n must be in [1, 12] for operator emission")
    try:
        return args.func(args)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        clear_memo()  # a later command reuses nothing, so keep no matrix alive


if __name__ == "__main__":
    sys.exit(main())
