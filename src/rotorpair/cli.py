"""The `sim` command line: run, preset, sweep, plot.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PRESET_NAMES, parse_config, parse_sweep, preset
from .exceptions import InvalidConfigError, NumericalError, QueryError
from .output import plot_csv
from .sweep import run_sweep
# runner (numpy) is imported where used, so that `sim plot`, --help and
# config errors start without numpy

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Simulate a pair of dipole-coupled rigid rotors driven by laser pulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single JSON configuration")
    p_run.add_argument("--config", required=True, help="path to the JSON run configuration")
    p_run.add_argument("--out", default=None, help="output directory (overrides output.out_dir)")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named experiment preset")
    p_preset.add_argument("name", choices=PRESET_NAMES, help="preset name")
    p_preset.add_argument("--out", default=None, help="output root (default sim_out)")
    p_preset.set_defaults(func=_cmd_preset)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a JSON spec")
    p_sweep.add_argument("--spec", required=True, help="path to the JSON sweep specification")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="render CSV time series as SVG")
    p_plot.add_argument("--csv", required=True, nargs="+", help="one or more time-series CSV files")
    p_plot.add_argument("--out", required=True, help="directory for the SVG files")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def _cmd_run(args) -> int:
    from .runner import run_config
    result = run_config(parse_config(Path(args.config).read_bytes()), args.out)
    print(f"wrote {result.csv_path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    from .runner import run_config
    root = Path(args.out if args.out is not None else "sim_out")
    for label, cfg in preset(args.name):
        result = run_config(cfg, root / label)
        print(f"{label}: wrote {result.csv_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = parse_sweep(Path(args.spec).read_bytes())
    manifest_path, entries = run_sweep(spec)
    n_ok = sum(1 for e in entries if e["status"] == "ok")
    print(f"wrote {manifest_path} ({n_ok}/{len(entries)} points ok)")
    if n_ok == 0:
        print("every sweep point failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_plot(args) -> int:
    stems = [Path(csv_path).stem for csv_path in args.csv]  # plot_csv writes <out>/<stem>.svg
    if clashes := [csv_path for csv_path, stem in zip(args.csv, stems) if stems.count(stem) > 1]:
        raise InvalidConfigError(f"--csv {', '.join(clashes)}: their SVGs would overwrite each other in {args.out}")
    for csv_path in args.csv:
        print(f"wrote {plot_csv(csv_path, args.out)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidConfigError, QueryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:  # StepSizeError included
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
