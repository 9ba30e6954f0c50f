#!/usr/bin/env python3
"""Reproduce the headline data files in one go.

Writes, for each geometry at full correlation (p = 1):

* the certified solution curve of the curvature equation
  (``curve_<geometry>.csv``, including the ratio-transform columns), and
* the endpoint/threshold report (``threshold_<geometry>.json``),

plus the single-step mean-square-separation verification table
(``msd.csv``).  Everything routes through the CLI so the emitted files
are exactly what the command-line tool produces.
"""

import argparse
import pathlib
import sys

from entwalk.cli import main as cli_main


def run(argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        sys.exit(f"command failed with exit {code}: {' '.join(argv)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quad-nodes", type=int, default=128)
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = ["--seed", str(args.seed)]
    curve = [*seed, "--p", "1.0", "--quad-nodes", str(args.quad_nodes)]

    run(["msd", "--samples", "1000000", *seed,
         "--out", str(out_dir / "msd.csv")])
    for geometry in ("spherical", "hyperbolic"):
        run(["curve", "--geometry", geometry, *curve,
             "--out", str(out_dir / f"curve_{geometry}.csv")])
        run(["threshold", "--geometry", geometry, *curve,
             "--out", str(out_dir / f"threshold_{geometry}.json")])
    print(f"wrote {out_dir}/msd.csv, curve_*.csv, threshold_*.json")


if __name__ == "__main__":
    main()
