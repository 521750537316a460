"""Command-line entry point.

Subcommands map onto pipeline modes:

    immimo train        --config x.cfg --out results/
    immimo eval-ber     --config x.cfg --out results/
    immimo bounds       --config x.cfg --out results/
    immimo latency      --config x.cfg --out results/
    immimo complexity   --config x.cfg --out results/
    immimo flops        --config x.cfg --out results/
    immimo program-sim  --config x.cfg --out results/

Common flags override config values: --seed, --preset, --out.
Exit codes: 0 success, 2 configuration error (a one-line message, never a
traceback), 3 numeric failure.
"""

import argparse
import sys

from . import analysis
from . import device as dev
from .baselines import RankDeficientChannel
from .config import ConfigError, load_config
from .harness import UnknownDetector, run_pipeline
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="immimo",
        description="crossbar-array MIMO detection simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "eval-ber", "bounds", "latency", "complexity",
                 "flops", "program-sim"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="flat key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--preset", default=None,
                         help="device preset override "
                              f"({', '.join(sorted(dev.DEVICE_PRESETS))})")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.preset is not None:
            overrides["device.preset"] = args.preset
        exp = load_config(args.config, overrides)
        exp.mode = args.command
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        outputs = run_pipeline(exp, args.out)
    except (ConfigError, UnknownDetector) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDiverged, analysis.BoundRegimeError, RankDeficientChannel,
            FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for path in outputs:
        print(path)
    return EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
