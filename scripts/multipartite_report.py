#!/usr/bin/env python3
"""Evaluate the three-qubit GHZ and W states under both circuit presets.

For each (state, preset) pair the consonance search report is archived as
JSON, including the winning circuit so the value can be replayed.  The W
state admits no vanishing-local-coherence frame under single-party
rotations, so that report is expected to come back infeasible.  The
depth-3 non-global values are upper bounds on 0: that preset takes both
GHZ(3) and W(3) to |000>, where S = L = 0, so any larger value there
describes the search, not the state.

The budget is fixed (RESTARTS, MAX_EVALS, SEED); the committed
results/multipartite_report.json was made with it.  Usage:

    python3 scripts/multipartite_report.py [--out-dir DIR]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from consonance import states, unitary
from consonance.coherence import local_coherence, nonlocal_sum, profile
from consonance.optimizer import (OptimizerConfig, Preset, config_to_json,
                                  consonance, report_to_json)
from consonance.qstate import density_from_pure
from consonance.unitary import NONGLOBAL, apply

RESTARTS = 8
MAX_EVALS = 8000
SEED = 0


def ghz_witness_theta() -> np.ndarray:
    """Parameters of the identity / CNOT / Bell-unmapper circuit that sends
    the GHZ state to |000> inside the depth-3 non-global preset."""
    u_bell = np.column_stack([states.bell(k).amps
                              for k in ("phi+", "phi-", "psi+", "psi-")])
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1.0
    return np.concatenate([
        np.zeros(4),
        unitary.params_for_unitary(cnot).theta,
        unitary.params_for_unitary(u_bell.conj().T).theta,
    ])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    cases = {
        "ghz": density_from_pure(states.ghz(3)),
        "w": density_from_pure(states.w_state(3)),
    }
    presets = {
        "single_party": (Preset(), ()),
        "nonglobal_depth3": (Preset(kind=NONGLOBAL, depth=3),
                             (ghz_witness_theta(),)),
    }

    report_blobs = {}
    for state_name, rho in cases.items():
        p = profile(rho)
        print(f"{state_name}: s={p.s_value:.6f} l={p.l_value:.6f}")
        for preset_name, (preset, warm) in presets.items():
            warm_starts = warm if state_name == "ghz" else ()
            config = OptimizerConfig(preset=preset, restarts=RESTARTS,
                                     seed=SEED, max_evals=MAX_EVALS,
                                     warm_starts=warm_starts)
            report = consonance(rho, config)
            replayed = apply(report.circuit, rho)
            assert abs(report.value - nonlocal_sum(replayed)) < 1e-9
            key = f"{state_name}__{preset_name}"
            report_blobs[key] = {
                "state": state_name,
                "preset": preset_name,
                "config": config_to_json(config),
                "report": report_to_json(report),
                "replay_l": local_coherence(replayed),
            }
            print(f"  {preset_name:>17}: value={report.value:.6g} "
                  f"feasible={report.feasible} "
                  f"l_residual={report.l_residual:.3g}")

    path = args.out_dir / "multipartite_report.json"
    path.write_text(json.dumps(report_blobs, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
