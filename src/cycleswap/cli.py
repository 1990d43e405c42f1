"""Command-line front end.

Subcommands: ``apply-f``, ``invert-f``, ``involute``, ``table``,
``verify``, ``sample``.  Exit codes: 0 success/pass, 1 verification
failure, 2 usage or parse error, 3 capacity refusal.
"""

from __future__ import annotations

import argparse
import math
import sys

from .forward import KCycleFactorization, factor
from .gsg import GsgElement, count_fixed_points
from .harness import (
    fixed_point_distribution,
    k_cycle_distribution,
    sample_empirical,
    verify_bijection,
    verify_distribution_identity,
    verify_involution,
)
from .inverse import unfactor
from .involution import InvolutionPair, involute
from .permutations import CapacityError, count_k_cycles
from .textio import ParseError, format_gsg, format_permutation, parse_permutation, parse_residues

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleswap",
        description="Factor permutations of {1..kn} into k-cycle parts plus "
        "generalized symmetric group elements, and verify the induced "
        "statistic-swapping involution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=False):
        # k and n may instead come from --input where that flag exists;
        # checked after merging.
        p.add_argument("--k", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--format", choices=["text", "structured"], default="text")
        if trials:
            p.add_argument("--trials", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("apply-f", help="factor a permutation into (delta, sigma)")
    common(p)
    p.add_argument("--pi", help="permutation of 1..kn (cycles or one-line)")
    p.add_argument("--input", help="key/value file providing k, n, pi")

    p = sub.add_parser("invert-f", help="rebuild a permutation from (delta, sigma)")
    common(p)
    p.add_argument("--delta", help="n disjoint k-cycles, cycle notation")
    p.add_argument("--x", help="comma-separated residues, e.g. 0,1,0,2,1")
    p.add_argument("--tau", help="permutation of 1..n (cycles or one-line)")
    p.add_argument("--input", help="key/value file providing k, n, delta, x, tau")

    p = sub.add_parser("involute", help="apply the statistic-swapping involution")
    common(p)
    p.add_argument("--x", help="residues of the incoming sigma'")
    p.add_argument("--tau", help="tau of the incoming sigma'")
    p.add_argument("--pi", help="permutation of 1..kn")
    p.add_argument("--input", help="key/value file providing k, n, x, tau, pi")

    p = sub.add_parser("table", help="both statistic distributions, table layout")
    common(p)
    p.add_argument("--force", action="store_true", help="override capacity limits")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument(
        "--which",
        choices=["theorem1", "bijection", "involution", "all"],
        default="all",
    )
    p.add_argument("--force", action="store_true", help="override capacity limits")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("sample", help="empirical histograms from uniform draws")
    common(p, trials=True)
    return parser


def _read_input_file(path: str) -> dict[str, str | int]:
    # k and n are read as integers here, where the line of a bad one is known.
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"expected key=value, got {line!r}", raw.index(line) + 1, lineno)
            key, value = key.strip(), value.strip()
            if key in ("k", "n"):
                try:
                    value = int(value)
                except ValueError:
                    position = raw.index(value, raw.index("=") + 1) + 1
                    raise ParseError(
                        f"{key} must be an integer, got {value!r}", position, lineno
                    ) from None
            values[key] = value
    return values


def _merge_input(args) -> None:
    # Flags win over file values.
    if getattr(args, "input", None):
        values = _read_input_file(args.input)
        for key in ("k", "n", "pi", "delta", "x", "tau"):
            if key in values and getattr(args, key, None) is None:
                setattr(args, key, values[key])


def _parse_sigma(args) -> GsgElement:
    if args.x is None or args.tau is None:
        raise ParseError("need --x and --tau (or --input)", 1)
    return GsgElement(args.k, parse_residues(args.x, args.n), parse_permutation(args.tau, args.n))


def _check_sizes(args) -> None:
    # Sizes may come from --input, so they are checked after merging.
    for name, low in (("k", 1), ("n", 0), ("trials", 1), ("jobs", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"--{name} must be at least {low}, got {value}")


def _emit(lines: list[str]) -> None:
    print("\n".join(lines))


def _cmd_apply_f(args) -> int:
    if args.pi is None:
        raise ParseError("need --pi (or --input)", 1)
    pi = parse_permutation(args.pi, args.k * args.n)
    pair = factor(pi, args.k)
    if args.format == "structured":
        _emit(
            [
                f"k={args.k}",
                f"n={args.n}",
                f"delta={format_permutation(pair.delta.perm)}",
                f"x=({','.join(map(str, pair.sigma.x))})",
                f"tau={format_permutation(pair.sigma.tau)}",
                f"k_cycles={count_k_cycles(pi, args.k)}",
                f"fixed_points={count_fixed_points(pair.sigma)}",
            ]
        )
    else:
        _emit(
            [
                f"delta = {format_permutation(pair.delta.perm)}",
                f"sigma: {format_gsg(pair.sigma)}",
                f"k-cycles of pi = fixed points of sigma = {count_fixed_points(pair.sigma)}",
            ]
        )
    return EXIT_OK


def _cmd_invert_f(args) -> int:
    if args.delta is None:
        raise ParseError("need --delta (or --input)", 1)
    delta = KCycleFactorization(args.k, parse_permutation(args.delta, args.k * args.n))
    sigma = _parse_sigma(args)
    pi = unfactor(delta, sigma)
    if args.format == "structured":
        _emit([f"pi={format_permutation(pi)}", f"pi_oneline={format_permutation(pi, 'oneline')}"])
    else:
        _emit([f"pi = {format_permutation(pi)}"])
    return EXIT_OK


def _cmd_involute(args) -> int:
    if args.pi is None:
        raise ParseError("need --pi (or --input)", 1)
    sigma_in = _parse_sigma(args)
    pi_in = parse_permutation(args.pi, args.k * args.n)
    out = involute(InvolutionPair(sigma_in, pi_in))
    if args.format == "structured":
        _emit(
            [
                f"sigma_x=({','.join(map(str, out.sigma.x))})",
                f"sigma_tau={format_permutation(out.sigma.tau)}",
                f"pi={format_permutation(out.pi)}",
            ]
        )
    else:
        _emit(
            [
                f"sigma: {format_gsg(out.sigma)}",
                f"pi = {format_permutation(out.pi)}",
            ]
        )
    return EXIT_OK


def _cmd_table(args) -> int:
    limit = math.inf if args.force else None
    cyc = k_cycle_distribution(args.k, args.n, limit=limit, jobs=args.jobs)
    fxpt = fixed_point_distribution(args.k, args.n, limit=limit)
    if args.format == "structured":
        _emit(cyc.to_structured("cyc_") + fxpt.to_structured("fxpt_"))
        return EXIT_OK
    width = max(len(str(cyc.total)), 5) + 2
    header = "m".ljust(8) + "".join(str(m).rjust(width) for m in range(args.n + 1))
    header += "total".rjust(width + 2)
    rows = [
        ("S_kn", cyc),
        ("S(k,n)", fxpt),
    ]
    lines = [header]
    for label, dist in rows:
        line = label.ljust(8) + "".join(str(c).rjust(width) for c in dist.counts)
        line += str(dist.total).rjust(width + 2)
        lines.append(line)
    _emit(lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    limit = math.inf if args.force else None
    reports = []
    if args.which in ("theorem1", "all"):
        reports.append(verify_distribution_identity(args.k, args.n, limit=limit, jobs=args.jobs))
    if args.which in ("bijection", "all"):
        reports.append(verify_bijection(args.k, args.n, limit=limit))
    if args.which in ("involution", "all"):
        reports.append(verify_involution(args.k, args.n, pair_limit=limit, limit=limit))
    for report in reports:
        if args.format == "structured":
            _emit(report.to_structured())
        else:
            _emit([report.to_text()])
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def _cmd_sample(args) -> int:
    cyc, fxpt = sample_empirical(args.k, args.n, args.trials, args.seed)
    if args.format == "structured":
        lines = [f"k={args.k}", f"n={args.n}", f"trials={args.trials}", f"seed={args.seed}"]
        lines += [f"cyc_count_{m}={c}" for m, c in enumerate(cyc)]
        lines += [f"fxpt_count_{m}={c}" for m, c in enumerate(fxpt)]
        _emit(lines)
    else:
        lines = [f"trials={args.trials} seed={args.seed}"]
        lines.append("m        " + "  ".join(str(m) for m in range(args.n + 1)))
        lines.append("S_kn     " + "  ".join(str(c) for c in cyc))
        lines.append("S(k,n)   " + "  ".join(str(c) for c in fxpt))
        _emit(lines)
    return EXIT_OK


_COMMANDS = {
    "apply-f": _cmd_apply_f,
    "invert-f": _cmd_invert_f,
    "involute": _cmd_involute,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "input"):
            _merge_input(args)
        if args.k is None or args.n is None:
            raise ParseError("need --k and --n (or an --input file providing them)", 1)
        _check_sizes(args)
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"capacity refused: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
