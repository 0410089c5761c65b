"""Set-up probe, timed from process start to exit by the benchmark.

Usage: python3 perfbench/setup_probe.py [CONFIG RUN_SEED]

Imports lastlayer and, when a config is given, reads it with the CLI's own
config loader and prepares that run seed's data with the function that
``lastlayer compare`` calls (``experiment._materialize_data``: generate or
load, split, standardize).  Without arguments it only imports the package.
"""

import sys

import lastlayer  # noqa: F401  (the import is part of what is timed)


def main(argv) -> int:
    if argv:
        from argparse import Namespace

        from lastlayer import cli, experiment

        config, run_seed = argv
        cfg = cli._load_config(Namespace(config=config, seed=int(run_seed)))
        experiment._materialize_data(cfg, int(run_seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
