"""Command line front end.

Subcommands:
    verify  run the claim registry, print one line per claim, optional JSON
    orbit   sample the triple-y orbit and emit the diagnostic CSV
    bloch   emit the per-qubit Bloch vectors of the aligned ket families

verify exits 0 only when no executed claim fails.  File outputs are
byte-identical across runs with the same arguments.
"""

import argparse
import sys

from .claims import _check_filter, run_claims, write_bloch_csv, write_orbit_csv, write_reports_json
from .dynamics import _MAX_SAMPLES, orbit
from .linalg import _number


def _fmt(value):
    if isinstance(value, float):  # a bool or None is not a float: it prints as str() does
        return format(value, ".6g")
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _samples(text):
    """A grid size; one that is not an integer in [2, _MAX_SAMPLES] is a usage error naming that rule."""
    try:
        n = int(text)
    except ValueError:
        n = text  # not a number: the check rejects it with its rule
    try:
        return _number(n, "N", integer=True, low=2, high=_MAX_SAMPLES)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _pattern(text):
    """A claim-id glob; one that matches no claim id is a usage error."""
    try:
        _check_filter(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _cmd_verify(args):
    reports = run_claims(args.orbit_samples, args.filter)
    log = sys.stderr if args.json == "-" else sys.stdout  # stdout then holds only the JSON
    for r in reports:
        print(f"[{r.status.upper():4s}] {r.claim_id}: measured={_fmt(r.measured)} "
              f"expected={_fmt(r.expected)} tol={r.tolerance:g}", file=log)
    n_pass = sum(1 for r in reports if r.status == "pass")
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_skip = sum(1 for r in reports if r.status == "skip")
    print(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped (of {len(reports)})", file=log)
    if args.json is not None and _write_output(args.json, lambda fobj: write_reports_json(reports, fobj)):
        return 1
    return 1 if n_fail else 0


def _write_output(path, write):
    """Call write(fobj) on stdout for path "-", else on the file; exit code 1 on an OSError."""
    try:
        if path == "-":
            write(sys.stdout)
        else:
            with open(path, "w", newline="", encoding="utf-8") as fobj:
                write(fobj)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_orbit(args):
    orb = orbit(args.samples)
    return _write_output(args.csv, lambda fobj: write_orbit_csv(fobj, orb))


def _cmd_bloch(args):
    return _write_output(args.csv, write_bloch_csv)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="upb3q",
        description="verify the 3-qubit bound entangled construction and its dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run all claims and report pass/fail")
    v.add_argument("--filter", type=_pattern, default=None, metavar="PATTERN",
                   help="glob on claim ids; non-matching claims are skipped, "
                        "and a glob that matches no claim is a usage error")
    v.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full report list as JSON; - writes it to stdout "
                        "and the claim lines to stderr")
    v.add_argument("--orbit-samples", type=_samples, default=64, metavar="N",
                   help="orbit grid size used by orbit claims (default 64)")
    v.set_defaults(func=_cmd_verify)

    o = sub.add_parser("orbit", help="sample the PPT-preserving orbit as CSV")
    o.add_argument("--samples", type=_samples, default=64, metavar="N",
                   help="grid points over one period (default 64)")
    o.add_argument("--csv", default="-", metavar="PATH",
                   help="output path, or - for stdout (default)")
    o.set_defaults(func=_cmd_orbit)

    b = sub.add_parser("bloch", help="emit ket-family Bloch vectors as CSV")
    b.add_argument("--csv", default="-", metavar="PATH",
                   help="output path, or - for stdout (default)")
    b.set_defaults(func=_cmd_bloch)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
