"""The game-level laws of rally-point scoring, under their usual names.

Every rally scores a point, so exchanges cannot occur and the rally count
of a game is a function of the final tally alone: D = alpha + beta.  Score
probabilities keep the interruption structure of the side-out analysis:
the r-sum with powers p_a^(alpha-r) p_b^(beta-r) (q_a q_b)^r, evaluated by
the shared kernel, which stays finite when p_a or p_b vanishes (the t_a =
q_a/p_a form does not).

The game-level laws are shared with side-out scoring and read the system
from the `GameConfig`; `score_distribution`, `game_win_prob` and
`aggregate_moments` are re-exported here under their usual names.
"""

from __future__ import annotations

# the shared game-level laws, under the names rally-point callers know
from .duration import aggregate_moments  # noqa: F401
from .sideout import game_win_prob, score_distribution  # noqa: F401
