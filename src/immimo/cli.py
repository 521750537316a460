"""Command-line entry point.

Subcommands map onto pipeline modes:

    immimo train        --config x.cfg --out results/
    immimo eval-ber     --config x.cfg --out results/
    immimo bounds       --config x.cfg --out results/
    immimo latency      --config x.cfg --out results/
    immimo complexity   --config x.cfg --out results/
    immimo flops        --config x.cfg --out results/
    immimo program-sim  --config x.cfg --out results/

The subcommand is the run's `mode`: it is passed to the config parse as the
`mode` override, so it replaces any `mode` line of the file and every check
that depends on the mode runs there.  The other flags override config values
the same way (--seed, --preset) or name the output directory (--out).
Exit codes: 0 success, 2 user error (a one-line message, never a traceback;
a bad config or checkpoint, a file in the way of --out or a directory in
the way of an output file, an --out the system cannot make or write, such
as one with too long a name or without permission, or a `bounds` run with
the bound outside its phi > 1 regime), 3 numeric failure (training
divergence, a rank-deficient channel, floating-point error).
"""

import argparse
import sys

from . import device as dev
from .baselines import RankDeficientChannel
from .config import MODES, ConfigError, load_config
from .harness import run_pipeline
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="immimo",
        description="memristor-array MIMO detection simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
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
        overrides = {"mode": args.command}
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.preset is not None:
            overrides["device.preset"] = args.preset
        exp = load_config(args.config, overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        outputs = run_pipeline(exp, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: output directory {args.out!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDiverged, RankDeficientChannel, FloatingPointError,
            ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for path in outputs:
        print(path)
    return EXIT_OK


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
