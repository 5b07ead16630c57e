"""Command line interface: each subcommand's parser carries its handler as args.run.

Exit codes: 0 on success (everything verified), 1 when a verification or
claim check fails, 2 on usage or domain errors (message on stderr), and 141
(128 + SIGPIPE, silently) when the reader of stdout closes it early.

The CLI only parses arguments and prints; every coset, record and range
check comes from the library.
"""

import argparse
import dataclasses
import json
import os
import sys
from typing import Sequence

from .errors import DomainError, GammaprodError
from .identities import _coset_identity, _identities, full_product_identity, mersenne_identity
from .render import FORMATS, _spell, render_identity
from .survey import ClaimReport, _odd_moduli, check_reference_claims, survey_range
from .verification import _check_tolerance, verify_full_product, verify_identity


def _add_render_options(p: argparse.ArgumentParser) -> None:
    """--format and --ascii, for the commands that render an identity."""
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--ascii", action="store_true",
                   help="write Gamma/pi instead of unicode in text output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaprod",
        description="Construct, enumerate and numerically verify gamma product "
                    "identities indexed by cosets of <n+2> in the units mod 2n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="list the cosets of <n+2> in the units mod 2n")
    p.set_defaults(run=_cmd_decompose)
    p.add_argument("n", type=int)

    p = sub.add_parser("identities", help="render every identity for n")
    p.set_defaults(run=_cmd_identities)
    p.add_argument("n", type=int)
    _add_render_options(p)

    p = sub.add_parser("verify", help="numerically verify the identities for n, "
                                      "or for every odd n up to --max")
    p.set_defaults(run=_cmd_verify)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("n", type=int, nargs="?")
    which.add_argument("--max", type=int, dest="max_n", metavar="N",
                       help="verify every odd n in [3, N] and its full product, "
                            "then report the worst residuals")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute residual tolerance (default scales with the term count)")
    p.add_argument("--coset-of", type=int, default=None, metavar="X",
                   help="verify only the coset containing X")

    p = sub.add_parser("survey", help="tabulate coset statistics over odd n")
    p.set_defaults(run=_cmd_survey)
    p.add_argument("--max", type=int, required=True, dest="max_n")
    p.add_argument("--json", action="store_true")
    p.add_argument("--check-claims", action="store_true",
                   help="also evaluate the recorded n<100 reference counts")

    p = sub.add_parser("mersenne", help="the subgroup identity for n = 2**m - 1")
    p.set_defaults(run=_cmd_mersenne)
    p.add_argument("m", type=int)
    _add_render_options(p)

    p = sub.add_parser("full-product", help="the product over every unit mod 2n")
    p.set_defaults(run=_cmd_full_product)
    p.add_argument("n", type=int)

    return parser


def _report_line(report, coset=None) -> str:
    """One verify line; a coset is spelled inside the line's one %-fill, never copied."""
    start = f"{'PASS' if report.passed else 'FAIL'} n={report.n} "
    end = f" residual={report.residual:+.3e} tol={report.tolerance:.3e}"
    if coset is None:
        return f"{start}full-product{end}"
    return _spell(coset, start + "coset=(", "", "", ",", ")" + end)


def _cmd_decompose(args) -> int:
    for identity in _identities(args.n):
        print(_spell(identity.coset, "(", "", "", ",", ")"))
        del identity  # not alive while the walk builds the next record
    return 0


def _cmd_identities(args) -> int:
    for identity in _identities(args.n):
        print(render_identity(identity, args.format, ascii_symbols=args.ascii).payload)
    return 0


class _Tally:
    """Running totals of verification reports: how many, how many failed,
    and the first report of largest |residual|, as max() over them all picks."""

    def __init__(self):
        self.checked = self.failures = 0
        self.worst = None

    def add(self, report) -> None:
        self.checked += 1
        self.failures += not report.passed
        if self.worst is None or abs(report.residual) > abs(self.worst.residual):
            self.worst = report


def _verify_cosets(n, tol, tally: _Tally, coset_of=None) -> None:
    """Verify and print the identities for n, or only the coset of coset_of, into tally."""
    identities = _identities(n) if coset_of is None else (_coset_identity(n, coset_of),)
    for identity in identities:
        report = verify_identity(identity, tol)
        tally.add(report)
        print(_report_line(report, identity.coset))
        del identity  # not alive while the walk builds the next record


def _cmd_verify(args) -> int:
    if args.tol is not None:
        _check_tolerance(args.tol)
    cosets = _Tally()
    if args.max_n is None:
        _verify_cosets(args.n, args.tol, cosets, args.coset_of)
        return 1 if cosets.failures else 0
    if args.coset_of is not None:
        raise DomainError("--coset-of picks a coset of a single n; it cannot be used with --max")
    # a sweep keeps tallies, not reports: only the report in hand and the worst two live
    fulls = _Tally()
    for n in _odd_moduli("verify", args.max_n):
        _verify_cosets(n, args.tol, cosets)
        full = verify_full_product(n, args.tol)
        fulls.add(full)
        print(_report_line(full))
    failures = cosets.failures + fulls.failures
    print(f"{cosets.checked + fulls.checked} products checked up to n={args.max_n}, "
          f"{failures} failures")
    worst = cosets.worst
    print(f"worst coset residual {worst.residual:+.3e} at n={worst.n} "
          f"(coset of {worst.coset_min}, {worst.term_count} terms)")
    worst = fulls.worst
    print(f"worst full-product residual {worst.residual:+.3e} at n={worst.n} "
          f"({worst.term_count} terms)")
    return 1 if failures else 0


def _cmd_survey(args) -> int:
    rows = survey_range(args.max_n)
    # the claims are checked before any row prints, so a short range prints nothing
    report = check_reference_claims(rows) if args.check_claims else ClaimReport(claims=())
    for row in rows:
        if args.json:
            print(json.dumps(dataclasses.asdict(row)))
        else:
            print(f"n={row.n} phi={row.phi} nu={row.nu} cosets={row.coset_count} "
                  f"self_complementary={row.self_complementary_count} max_b={row.max_b} "
                  f"prime_power={'yes' if row.is_prime_power else 'no'}")
    for claim in report.claims:
        if args.json:
            fields = dataclasses.asdict(claim)
            print(json.dumps({"claim": fields.pop("key"), **fields}))
        else:
            line = (f"CLAIM {claim.key}: {'PASS' if claim.passed else 'FAIL'} "
                    f"expected {claim.expected}; observed {claim.observed}")
            if claim.derived:
                line += " derived=" + ",".join(str(v) for v in claim.derived)
            print(line)
    return 0 if report.all_passed else 1


def _cmd_mersenne(args) -> int:
    identity = mersenne_identity(args.m)
    print(render_identity(identity, args.format, ascii_symbols=args.ascii).payload)
    return 0


def _cmd_full_product(args) -> int:
    fp = full_product_identity(args.n)
    m = 2 * fp.n
    print(f"prod_(x in Phi({m})) Gamma(x/{m}) = (2*pi)^{fp.pow2}")
    return 0


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run the subcommand, return the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value like -1e-9 or -inf for an option, so --tol gets it joined
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--tol" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--tol={argv[i + 1]}"]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return exc.code
    try:
        return args.run(args)
    except GammaprodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (| head): on devnull, the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
