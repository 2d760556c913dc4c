"""Print one hash of the kernel's game tables over a fixed corpus, so two
versions of `rallystats.kernel` can be checked for the same bits.

The corpus is 24 tables: side-out games to 15, rally-point games to 21,
and side-out games to 9 with a three-point tie-break and to 5 with a
two-point one, each at five single points (p_a, p_b) = (.6, .5),
(.3, .7), (.05, .07), (1e-4, 1e-4) and (1, .5) and on a 99-point
no-server grid (p_a = p_b = .01, .02, ..., .99).  Each table contributes
the bytes of its five arrays (`alpha`, `beta`, `weight`, `shift_mean`,
`shift_var`) and of its shift laws at the exchange probability of each of
its points, every array preceded by its shape.  The hash is the sha256 of
all of them in that order.  It imports the package from the `src`
directory of the checkout it sits in:

    python tools/table_hash.py

It prints the number of tables and the hash.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rallystats import GameConfig, RallyProbs, ScoringSystem, kernel  # noqa: E402

CONFIGS = (
    GameConfig(n=15),
    GameConfig(n=21, system=ScoringSystem.RALLY_POINT),
    GameConfig(n=9, tiebreak=3),
    GameConfig(n=5, tiebreak=2),
)
POINTS = ((0.6, 0.5), (0.3, 0.7), (0.05, 0.07), (1e-4, 1e-4), (1.0, 0.5))
GRID = np.linspace(0.01, 0.99, 99)
FIELDS = ("alpha", "beta", "weight", "shift_mean", "shift_var")


def table_arrays():
    """Each table of the corpus in order, as the list of its arrays."""
    for config in CONFIGS:
        for p_a, p_b in (*POINTS, (GRID, GRID)):
            game = kernel.game(config, p_a, p_b)
            qs = [RallyProbs(a, b).q for a, b in zip(np.atleast_1d(p_a).tolist(), np.atleast_1d(p_b).tolist())]
            yield [getattr(game, name) for name in FIELDS] + [game.shift_laws(q) for q in qs]


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for arrays in table_arrays():
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            digest.update(repr(arr.shape).encode() + arr.tobytes())
        count += 1
    print(f"{count} tables sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
