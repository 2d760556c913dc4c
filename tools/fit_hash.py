"""Print one hash of the estimator's results over a fixed corpus of fits,
so two versions of `rallystats.estimate` can be checked for the same bits.

The corpus is 768 fits: games to n = 5, 9, 15 and 21 at (p_a, p_b) =
(.6, .5), (.3, .7) and (.8, .2), without a tie-break and with a
three-point one, 60 games each from seeds `SeedSpec(0)` .. `SeedSpec(7)`
(either player serving first with probability .5), each batch fitted in
both modes and both models.  The hash is the sha256 of the `repr` of
every `FitResult`, one per line in that order; a fit that raises stands
in as its error's type and message.  It imports the package from the
`src` directory of the checkout it sits in:

    python tools/fit_hash.py

It prints the number of fits and the hash.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rallystats import GameConfig, RallyProbs, SeedSpec, estimate, simulate  # noqa: E402

TARGETS = (5, 9, 15, 21)
PROBS = ((0.6, 0.5), (0.3, 0.7), (0.8, 0.2))
TIEBREAKS = (None, 3)
SEEDS = range(8)
GAMES = 60


def fit_lines():
    """The `repr` of each fit of the corpus, or its error's type and message."""
    for n, (p_a, p_b), tiebreak, seed in itertools.product(TARGETS, PROBS, TIEBREAKS, SEEDS):
        sample = simulate.sample_games(RallyProbs(p_a, p_b), GameConfig(n=n, s_a=0.5, tiebreak=tiebreak), GAMES, SeedSpec(seed))
        records = estimate.records_from_sample(sample)
        for mode, model in itertools.product(estimate.FitMode, estimate.FitModel):
            try:
                yield repr(estimate.fit(records, mode, model))
            except Exception as exc:  # the error stands in for the fit
                yield f"{type(exc).__name__}: {exc}"


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for line in fit_lines():
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{count} fits sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
