"""Write the tf-mode flow energies fixture, tests/data/tf_flow_energies.json.

Until commit c76bd83, tf mode was solved by an imaginary-time flow, whose
end depended on its start. The fixture holds the energies that flow reached
on the default 128x256 grid, at a_bf = 0 and the 13 points of the
acceptance sweep, from three starts each: the upward sweep (warm, from
a_bf = 0 up), the downward sweep (warm, from the top down) and a cold solve
from the noninteracting profiles. Both sweeps are
pipeline.sweep_ground_states chains at the default solver seed.
tests/test_solver.py checks that the pointwise tf solve ends at or below
the lowest of the three at every point.

The flow is gone after c76bd83, so the script runs only on a checkout that
still has it, such as that commit's:

    mkdir ../flow && git archive c76bd83 | tar -x -C ../flow
    cp tests/make_tf_flow_energies.py ../flow/tests/
    cd ../flow && PYTHONPATH=src python tests/make_tf_flow_energies.py OUT.json

It takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import warnings

import numpy as np

from mixsep import solver
from mixsep.config import default_scenario
from mixsep.constants import A_BOHR
from mixsep.errors import ResolutionWarning
from mixsep.pipeline import sweep_ground_states
from mixsep.profiles import grid_for_scenario

FLOW_COMMIT = "c76bd83"
GRID = (128, 256)
# a_bf = 0 and the acceptance sweep's points (tests/test_acceptance.py), in a0
POINTS = [0.0] + sorted(set(np.geomspace(100.0, 2000.0, 12)) | {1480.0})


def main(out: str) -> None:
    if not hasattr(solver, "_CONSECUTIVE"):
        sys.exit(f"the tf-mode flow is gone from this checkout; run at {FLOW_COMMIT}")
    warnings.simplefilter("ignore", ResolutionWarning)
    sc = default_scenario()
    grid = grid_for_scenario(sc, *GRID)
    options = solver.SolverOptions(mode="tf")
    a_bf = np.array(POINTS) * A_BOHR
    up = [gs.energy for gs, _ in sweep_ground_states(sc, a_bf, grid, options)]
    down = [gs.energy for gs, _ in sweep_ground_states(sc, a_bf[::-1], grid, options)][::-1]
    cold = [solver.minimize(sc.with_a_bf(a), grid, options).energy for a in a_bf]
    record = {
        "commit": FLOW_COMMIT,
        "grid": list(GRID),
        "seed": options.seed,
        "points": [
            {"a_bf_a0": a, "upward_j": u, "downward_j": d, "cold_j": c}
            for a, u, d, c in zip(POINTS, up, down, cold)
        ],
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
