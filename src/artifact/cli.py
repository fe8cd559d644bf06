"""Command-line entry points.

Subcommands:

- gen-data:       draw a labelled barcode-pair dataset and save it as JSON.
- run:            run one experiment from a JSON config; write CSV (figures)
                  or a JSON report (oracle).
- summarize:      aggregate a results CSV into per-(model, n, M) accuracy.
- validate-pool:  rebuild the operator pool at a given register size (2 or
                  3) and run the dense invariance checks at that size.

Exit codes: 0 on success, 1 on a validation/configuration error, 2 on an
unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .config import (
    EXPERIMENTS,
    ConfigError,
    check_array_bytes,
    load_config,
    make_config,
)
from .dataset import generate_dataset, save_dataset
from .harness import (
    emit_csv,
    format_summary,
    read_csv,
    run_experiment,
    summarize,
)
from .oracle import run_oracle_check, validate_pool_report


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="artifact",
                     description="similarity-testing experiment workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate a labelled dataset")
    p_gen.add_argument("--n", type=int, required=True,
                       help="qubits per register (dimension N = 2**n)")
    p_gen.add_argument("--epsilon", type=float, default=None,
                       help="correlation strength (default: 1/(4 ln N))")
    p_gen.add_argument("--per-class", type=int, required=True,
                       help="pairs per class")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output JSON path")

    p_run = sub.add_parser("run", help="run an experiment")
    p_run.add_argument("--experiment", required=True,
                       choices=EXPERIMENTS)
    p_run.add_argument("--config", default=None,
                       help="JSON config (optional; defaults per experiment)")
    p_run.add_argument("--out", required=True,
                       help="output CSV (figures) or JSON (oracle)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed")

    p_sum = sub.add_parser("summarize", help="aggregate a results CSV")
    p_sum.add_argument("--in", dest="infile", required=True,
                       help="CSV produced by the run subcommand")

    p_val = sub.add_parser("validate-pool",
                           help="dense symmetry checks for the operator pool")
    p_val.add_argument("--n", type=int, required=True,
                       help="qubits per register (2 or 3)")
    return parser


def _check_out(path) -> None:
    """Fail before any work when --out cannot be written as a file."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out {path}: directory {out.parent} does not "
                          "exist")


def _cmd_gen_data(args) -> int:
    _check_out(args.out)
    if args.n < 2:
        raise ConfigError("--n must be >= 2")
    if args.per_class < 1:
        raise ConfigError("--per-class must be >= 1")
    check_array_bytes(args.n, "gen-data", 2 * args.per_class)
    ds = generate_dataset(args.n, args.epsilon, args.per_class, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples (n={ds.n}, "
          f"epsilon={ds.epsilon:.6g}) to {args.out}")
    return 0


def _cmd_run(args) -> int:
    _check_out(args.out)
    if args.config is not None:
        config = load_config(args.config)
        if config.experiment != args.experiment:
            raise ConfigError(
                f"config file is for {config.experiment!r} but --experiment "
                f"is {args.experiment!r}")
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
    else:
        config = make_config(args.experiment, master_seed=args.seed)

    if config.experiment == "oracle":
        report = run_oracle_check(config)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        status = "pass" if report["pass"] else "FAIL"
        print(f"oracle check: {status} (report written to {args.out})")
        return 0 if report["pass"] else 1
    records = run_experiment(config)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    print(format_summary(summarize(records)))
    return 0


def _cmd_summarize(args) -> int:
    records = read_csv(args.infile)
    if not records:
        raise ConfigError(f"no records in {args.infile}")
    print(format_summary(summarize(records)))
    return 0


def _cmd_validate_pool(args) -> int:
    if args.n < 2:
        raise ConfigError("--n must be >= 2")
    report = validate_pool_report(args.n)
    print(f"operator pool and dense checks at n={report['n']}:")
    for name in report["entries"]:
        print(f"  {name}")
    conditions = report["invariance_conditions"]
    for name, value in conditions.items():
        if name == "pass":
            continue
        print(f"  {name}: max residual {value:.3e}")
    print("pool validation:", "pass" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "validate-pool":
            return _cmd_validate_pool(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, FileNotFoundError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help and friends
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
