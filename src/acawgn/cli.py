"""Command-line front end: solve, certify, scan, bounds, probe.

Exit codes: 0 on success, 2 when any solve finished unconverged, 1 on usage
or I/O errors.  Data goes to --out (written atomically via a temp file and
rename) or standard output; diagnostics go to standard error.  No command
reads a quadrature tolerance: solves and KKT residuals use a fixed trapezoid
rule, and the TV figures of certify, scan and probe are exact sums of
closed-form CDF differences.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import tempfile

from .certificates import certificate_report, closed_form_bound, closed_form_bound_log
from .inputs import DiscreteInput
from .scan import (
    CSV_COLUMNS,
    SolveConfig,
    _validate_grid,
    records_to_csv,
    records_to_json,
    scan,
    theorem2_probe,
)
from .solver import dytso_lower_bound, solve_capacity

DEFAULT_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
_SEED_HELP = "recorded in the report; solves draw no random numbers"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCONVERGED = 2


class CliError(Exception):
    """Usage or I/O failure; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to SystemExit(2); we want 1
        raise CliError(message)


def _solve_config(args) -> SolveConfig:
    kwargs = {}
    if getattr(args, "eps", None) is not None:
        kwargs["kkt_eps"] = args.eps
    if getattr(args, "max_k", None) is not None:
        kwargs["max_k"] = args.max_k
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    try:
        return SolveConfig(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _amplitude(A: float) -> float:
    """``A`` if it is a usable amplitude: positive and finite."""
    if not (A > 0.0 and math.isfinite(A)):
        raise CliError(f"--amplitude must be positive and finite, got {A}")
    return A


def parse_grid(spec: str) -> list[float]:
    """Grid syntax: ``start:stop:step`` or a comma list like ``0.5,1,2``."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step <= 0.0:
                raise ValueError("step must be positive")
            if stop < start:
                raise ValueError("stop must be >= start")
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            grid = [start + i * step for i in range(n)]
        else:
            grid = [float(p) for p in spec.split(",") if p.strip()]
        return _validate_grid(grid)
    except (ValueError, OverflowError) as exc:
        raise CliError(f"bad grid spec {spec!r}: {exc}") from exc


def _emit(text: str, out_path: str | None):
    """Write data atomically to out_path, or to stdout when absent.

    As with a plain write, a replaced file keeps its mode and a new one gets
    0o666 less the umask, not mkstemp's 0o600.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    try:
        try:
            mode = stat.S_IMODE(os.stat(out_path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".acawgn-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, out_path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}") from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="acawgn",
                     description="Capacity-achieving discrete inputs for the "
                                 "amplitude-constrained Gaussian channel.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve one amplitude for (K_A, C(A))")
    p_solve.add_argument("--amplitude", type=float, required=True)
    p_solve.add_argument("--eps", type=float, default=None, help="KKT epsilon (nats)")
    p_solve.add_argument("--max-k", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_solve.add_argument("--bits", action="store_true",
                         help="also report the capacity in bits")
    p_solve.add_argument("--out", default=None)

    p_cert = sub.add_parser("certify", help="certificate report for a stored input")
    p_cert.add_argument("--input", required=True,
                        help="JSON file: a bare input or a solve report")
    p_cert.add_argument("--measure-tv", action="store_true",
                        help="also compute TV(f_pi, f_unif_A) exactly")
    p_cert.add_argument("--out", default=None)

    p_scan = sub.add_parser("scan", help="scan an amplitude grid to CSV/JSON")
    p_scan.add_argument("--grid", default=None,
                        help="start:stop:step or comma list (default "
                             "0.5,1,1.5,2,3,4,5,6,7,8)")
    p_scan.add_argument("--eps", type=float, default=None)
    p_scan.add_argument("--max-k", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--columns", default=None,
                        help="comma list of columns for a gnuplot-ready "
                             "whitespace-separated extract")
    p_scan.add_argument("--out", default=None)

    p_bounds = sub.add_parser("bounds", help="support and TV bounds at one amplitude")
    p_bounds.add_argument("--amplitude", type=float, required=True)
    p_bounds.add_argument("--max-k", type=int, default=10,
                          help="closed-form bound reported for K = 1..max-k")
    p_bounds.add_argument("--out", default=None)

    p_probe = sub.add_parser("probe", help="three-part TV split at B = A - sqrt(A)")
    p_probe.add_argument("--amplitude", type=float, required=True)
    p_probe.add_argument("--eps", type=float, default=None)
    p_probe.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_probe.add_argument("--out", default=None)

    return parser


def _cmd_solve(args) -> int:
    report = solve_capacity(_amplitude(args.amplitude), _solve_config(args))
    payload = report.to_dict()
    if args.bits:
        payload["capacity_bits"] = payload["capacity_nats"] / math.log(2.0)
        payload["unit"] = "bits"
    else:
        payload["unit"] = "nats"
    _emit(_json_text(payload), args.out)
    if not report.converged:
        print(f"solve at A={args.amplitude} did not certify within max K",
              file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


def _load_input(path: str) -> DiscreteInput:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read input {path}: {exc}") from exc
    try:
        if "points" in payload:
            return DiscreteInput.from_dict(payload)
        if "input" in payload:
            return DiscreteInput.from_dict(payload["input"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid input file {path}: {exc}") from exc
    raise CliError(f"invalid input file {path}: no 'points' or 'input' field")


def _cmd_certify(args) -> int:
    report = certificate_report(_load_input(args.input), measure_tv=args.measure_tv)
    _emit(_json_text(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
    grid = parse_grid(args.grid) if args.grid is not None else list(DEFAULT_GRID)
    records = scan(grid, _solve_config(args))
    if args.columns is not None:
        names = [c.strip() for c in args.columns.split(",") if c.strip()]
        unknown = [n for n in names if n not in CSV_COLUMNS]
        if unknown:
            raise CliError(f"unknown columns {unknown}; valid: {','.join(CSV_COLUMNS)}")
        lines = ["# " + " ".join(names)]
        for rec in records:
            row = dict(zip(CSV_COLUMNS, rec.to_csv_row().split(",")))
            lines.append(" ".join(row[n] for n in names))
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        _emit(_json_text(records_to_json(records)), args.out)
    else:
        _emit(records_to_csv(records), args.out)
    bad = [r for r in records if not r.converged]
    if bad:
        print(f"{len(bad)} of {len(records)} amplitudes did not certify: "
              + ", ".join(str(r.A) for r in bad), file=sys.stderr)
        return EXIT_UNCONVERGED
    return EXIT_OK


def _cmd_bounds(args) -> int:
    A = _amplitude(args.amplitude)
    if args.max_k < 1:
        raise CliError("--max-k must be >= 1")
    payload = {
        "A": A,
        "dytso_lower_bound": dytso_lower_bound(A),
        "closed_form_bounds": [
            {"K": k,
             "bound": closed_form_bound(k, A),
             "log_bound": closed_form_bound_log(k, A)}
            for k in range(1, args.max_k + 1)
        ],
    }
    # JSON has no infinities: (pi*K/A)^2 beyond the float range cannot be written.
    if not all(math.isfinite(b["log_bound"]) for b in payload["closed_form_bounds"]):
        raise CliError(f"log_bound overflows at A={A}; the amplitude is too small")
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def _cmd_probe(args) -> int:
    if _amplitude(args.amplitude) < 4.0:
        raise CliError(f"probe requires --amplitude >= 4, got {args.amplitude}")
    report = solve_capacity(args.amplitude, _solve_config(args))
    left, middle, right = theorem2_probe(report.input)
    payload = {
        "A": args.amplitude,
        "B": args.amplitude - math.sqrt(args.amplitude),
        "left_tail": left,
        "bulk": middle,
        "right_tail": right,
        "total_tv": left + middle + right,
        "K": report.k,
        "converged": report.converged,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if report.converged else EXIT_UNCONVERGED


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
    "bounds": _cmd_bounds,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
