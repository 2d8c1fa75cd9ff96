#!/usr/bin/env python3
"""Regenerate the three shipped sweep tables as CSV files.

fig2: Werner family, consonance (closed form + optimizer) vs discord,
      concurrence and EoF on a in [0, 1].
fig3: Werner family, the consonance-minus-concurrence gap on a dense grid.
fig4: qubit-qutrit family along gamma with the third weight held at 0.07.

The optimizer-backed columns use a fixed budget, fuller than the test
suite's (RESTARTS, MAX_EVALS, SEED, each recipe's default grid); the
committed results/*.csv were made with it.  Any other budget goes through
``consonance sweep --recipe R --points P --restarts N --max-evals M``.
The run took 12.7 min on a 2-core machine (one core busy with other
work): fig2 77 s, fig3 under 1 s, fig4 11.4 min.  Usage:

    python3 scripts/reproduce_figures.py [--out-dir DIR] [--recipes R ...]
"""

import argparse
import sys
import time
from pathlib import Path

from consonance.cli import RECIPES, run_sweep
from consonance.optimizer import OptimizerConfig, Preset

RESTARTS = 16
MAX_EVALS = 12000
SEED = 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("results"),
                    help="directory for the CSV files (default: results/)")
    ap.add_argument("--recipes", nargs="+", choices=sorted(RECIPES),
                    default=sorted(RECIPES))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    config = OptimizerConfig(preset=Preset(), restarts=RESTARTS, seed=SEED,
                             max_evals=MAX_EVALS)
    for name in args.recipes:
        t0 = time.perf_counter()
        text = run_sweep(RECIPES[name](), config, SEED)
        path = args.out_dir / f"{name}.csv"
        path.write_text(text)
        rows = sum(1 for line in text.splitlines() if not line.startswith("#")) - 1
        print(f"{path}  ({rows} rows, {time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
