"""Command-line front end.

Subcommands: check, ideal, sw, kahler, census, verify.  Verdicts are
data, not errors: a non-Spin manifold still exits 0.  Exit code 2 is
reserved for input and processing problems (unparseable files, bad
dimensions, size guards).  Exit code 1 means a cross-check disagreed:
verify lists the disagreements on its one matrix, while census
--check-oracles, the exhaustive cross-check, stops at the first one and
prints a single error line with its index and serialized matrix.  check
also exits 1, with one error line, when analyze's own cross-checks fail
(for instance the two Spin deciders disagree), since that too is a
cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache
from typing import Optional

from .bottcore import (
    InconsistencyError,
    KahlerPairing,
    ManifoldReport,
    PMatrix,
    analyze,
    bott_to_p,
    bott_verdicts,
    characteristic_ideal,
    is_kahler,
    parse_bott,
    parse_pmatrix,
    pmatrix_to_bott,
    spin_membership,
    has_full_holonomy,
    is_free,
    sw_class,
)
from .census import (
    CSV_HEADER,
    CensusConfig,
    OracleDisagreementError,
    cross_check,
    run_census,
)
from .f2poly import decode_degree2


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def _load_pmatrix(args: argparse.Namespace) -> PMatrix:
    text = _read(args.path)
    if args.pmat:
        return parse_pmatrix(text)
    return bott_to_p(parse_bott(text))


def _pairs(pairing: Optional[KahlerPairing]) -> Optional[list[list[int]]]:
    """A Kahler pairing as 1-based [[i, j], ...]; None stays None."""
    return None if pairing is None else [[i + 1, j + 1] for i, j in pairing.pairs]


def _pairs_text(pairs: list[list[int]]) -> str:
    return " ".join(f"({i},{j})" for i, j in pairs)


def _report(rep: ManifoldReport, bott: bool) -> dict:
    """check's report; the Kahler verdict is null unless the input is a Bott matrix."""
    s_vector = None if rep.kahler is None else list(rep.s_vector)
    return {
        "dimension": rep.n,
        "free": rep.free,
        "holonomyFull": rep.holonomy_full,
        "orientable": rep.orientable,
        "w1": str(rep.w1),
        "w2": str(rep.w2raw),
        "kahler": rep.kahler is not None if bott else None,
        "pairing": _pairs(rep.kahler),
        "sVector": s_vector,
        "spin": rep.spin,
        "spinMethod": "both-agree" if rep.kahler is not None else "general",
    }


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
        return
    width = max(len(k) for k in report)
    for key, value in report.items():
        if value is None:
            text = "n/a"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif key == "pairing":
            text = _pairs_text(value)
        elif key == "sVector":
            text = " ".join(str(v) for v in value)
        else:
            text = str(value)
        print(f"{key:<{width}}  {text}")


def _cmd_check(args: argparse.Namespace) -> int:
    text = _read(args.path)
    p = parse_pmatrix(text) if args.pmat else None
    a = parse_bott(text) if p is None else pmatrix_to_bott(p)
    if a is not None:
        report = _report(analyze(a), bott=True)
    else:
        # Generic P-matrix: the Kahler column test needs a Bott matrix, so
        # those fields stay null; Spin still comes from the membership test.
        # is_free goes first, as its size guard must fire before any work.
        free = is_free(p)
        spin, w1, w2 = spin_membership(p)
        rep = ManifoldReport(
            n=p.n,
            free=free,
            holonomy_full=has_full_holonomy(p),
            w1=w1,
            orientable=w1.is_zero,
            kahler=None,
            w2raw=w2,
            spin=spin,
            s_vector=None,
        )
        report = _report(rep, bott=False)
    _print_report(report, args.json)
    return 0


def _cmd_ideal(args: argparse.Namespace) -> int:
    p = _load_pmatrix(args)
    basis = characteristic_ideal(p)
    for j, theta in enumerate(basis.thetas, start=1):
        print(f"theta_{j} = {theta}")
    print(f"reduced degree-2 basis (rank {basis.rank}):")
    for row in basis.reduced.rows:
        print(f"  {decode_degree2(p.d, row)}")
    return 0


def _cmd_sw(args: argparse.Namespace) -> int:
    p = _load_pmatrix(args)
    print(sw_class(p, args.max_degree))
    return 0


def _cmd_kahler(args: argparse.Namespace) -> int:
    a = parse_bott(_read(args.path))
    pairs = _pairs(is_kahler(a))
    if args.json:
        print(json.dumps({"dimension": a.n, "kahler": pairs is not None, "pairing": pairs}))
    elif pairs is None:
        print("kahler: false")
    else:
        print(f"kahler: true  pairing {_pairs_text(pairs)}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    cfg = CensusConfig(n=args.n, emit_matrices=args.emit, check_oracles=args.check_oracles)
    row, emitted = run_census(cfg)
    if args.csv:
        print(CSV_HEADER)
        print(row.to_csv())
    else:
        names = [f.name for f in fields(row)]
        width = max(len(name) for name in names)
        for name in names:
            print(f"{name:<{width}} {getattr(row, name)}")
    for line in emitted:
        print(line)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    a = parse_bott(_read(args.path))
    try:
        problems = cross_check(a, bott_verdicts(a.n, a.row_masks))
    except InconsistencyError as exc:  # raised by the kernel's own checks
        problems = [str(exc)]
    print(f"1 matrix, {len(problems)} disagreements")
    for msg in problems:
        print(msg)
    return 0 if not problems else 1


@cache  # built on the first main() call; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realbott",
        description="Characteristic classes and Spin/Kahler deciders for real Bott manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_command(name: str, help_text: str, pmat: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help="matrix file (rows of digits; '#' comments)")
        if pmat:
            cmd.add_argument(
                "--pmat",
                action="store_true",
                help="read a P-matrix over 0..3 instead of a Bott matrix",
            )
        return cmd

    check = add_matrix_command("check", "full report for one matrix")
    check.add_argument("--json", action="store_true", help="machine-readable output")

    ideal = add_matrix_command("ideal", "characteristic-ideal generators and reduced basis")

    sw = add_matrix_command("sw", "total Stiefel-Whitney class, truncated")
    sw.add_argument(
        "--max-degree",
        type=int,
        default=2,
        metavar="K",
        help="truncation degree (default 2)",
    )

    kahler = add_matrix_command("kahler", "Kahler verdict and column pairing", pmat=False)
    kahler.add_argument("--json", action="store_true", help="machine-readable output")

    census = sub.add_parser("census", help="classify every Bott matrix of one dimension")
    census.add_argument("-n", type=int, required=True, help="matrix dimension")
    census.add_argument("--csv", action="store_true", help="CSV output")
    census.add_argument(
        "--check-oracles",
        action="store_true",
        help="cross-check every matrix against the Euclidean-motion oracle",
    )
    census.add_argument(
        "--emit", action="store_true", help="list every matrix, one per line"
    )

    verify = add_matrix_command("verify", "oracle cross-check report", pmat=False)

    check.set_defaults(func=_cmd_check)
    ideal.set_defaults(func=_cmd_ideal)
    sw.set_defaults(func=_cmd_sw)
    kahler.set_defaults(func=_cmd_kahler)
    census.set_defaults(func=_cmd_census)
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OracleDisagreementError, InconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # MatrixParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
