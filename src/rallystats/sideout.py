"""Exact score probabilities: side-out tallies and the game-level laws of
both scoring systems.

A side-out game is described rally by rally through interruption counts r
and exchange counts j.  Summing the elementary event probabilities over r
and j gives closed forms for the probability of every final tally, from
which tie-break extensions follow.  `score_distribution`,
`game_win_probs`, `game_win_prob`, `tiebreak_score_prob` and
`match_win_prob` all read the game table of `kernel.game`, whose
components carry their probabilities for both first servers at once; a
score sums its components (an end of a tie-break's extension is reached by
either tying scorer).  The scoring system comes from the `GameConfig`, and
rally-point tallies differ only in how the polynomial is weighted (see
`rallypoint`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import ConfigError, GameConfig, Player, RallyProbs, ScoringSystem, TerminalScore, validate


def _tally_prob(system: ScoringSystem, alpha: int, beta: int, last: Player, server: Player, probs: RallyProbs) -> float:
    validate(probs)
    first, receiver = (alpha, beta) if server is Player.A else (beta, alpha)
    rows = kernel.tally(first, receiver, last is server)
    return float(kernel.evaluate_servers(system, rows, probs.p_a, probs.p_b).weight[0, int(server is Player.B), 0])


def score_prob(alpha: int, beta: int, last_scorer: Player, server: Player, probs: RallyProbs) -> float:
    """Exact probability that a game with the given first server passes
    through final tally (alpha, beta) with `last_scorer` scoring last."""
    return _tally_prob(ScoringSystem.SIDE_OUT, alpha, beta, last_scorer, server, probs)


@dataclass(frozen=True)
class ScoreDistribution:
    """Probabilities of every terminal score of a complete game.

    `server` is the first server, or None for an s_a-weighted mixture.
    """

    config: GameConfig
    server: Player | None
    entries: dict[TerminalScore, float]

    def win_prob(self, player: Player) -> float:
        return sum(p for score, p in self.entries.items() if score.winner is player)

    @property
    def total_mass(self) -> float:
        return sum(self.entries.values())


@functools.lru_cache(maxsize=32)
def _scores(alpha: tuple[int, ...], beta: tuple[int, ...]):
    """The terminal scores of game table components with (alpha, beta)
    points in first-server coordinates, in `score_distribution` order (by
    the winner's points, then A's wins before B's, then by the loser's
    points); the score of each component when A (row 0) and B (row 1)
    serve first; and which scores A wins."""
    ends = [list(zip(alpha, beta)), list(zip(beta, alpha))]
    scores = sorted(set(ends[0]), key=lambda s: (max(s), s[0] < s[1], min(s)))
    index = {s: i for i, s in enumerate(scores)}
    terminal = tuple(TerminalScore(a, b, Player.A if a > b else Player.B) for a, b in scores)
    return terminal, np.array([[index[s] for s in first] for first in ends]), np.array([a > b for a, b in scores])


def _table(probs: RallyProbs, config: GameConfig) -> tuple[tuple[TerminalScore, ...], np.ndarray, np.ndarray]:
    """The terminal scores of a game in `score_distribution` order, their
    probabilities when A (row 0) and B (row 1) serve first, and P[winner |
    first server] as wins[server, winner], from the game table
    (`kernel.game`): a score sums its components, two of them for an end of
    a tie-break's extension, reached by either tying scorer."""
    game = kernel.game(config, probs.p_a, probs.p_b)
    scores, index, won = _scores(tuple(game.alpha.tolist()), tuple(game.beta.tolist()))
    weight = np.array([np.bincount(index[i], game.weight[:, i, 0], len(scores)) for i in range(2)])
    return scores, weight, np.array([[row[won].sum(), row[~won].sum()] for row in weight])


def score_distribution(probs: RallyProbs, config: GameConfig, server: Player | None = None) -> ScoreDistribution:
    """Full distribution over the terminal scores of a game under
    `config.system`; `server=None` mixes A- and B-games with weights
    (s_a, s_b) from the config."""
    validate(probs, config)
    scores, weight, _ = _table(probs, config)
    s_a, s_b = (config.s_a, config.s_b) if server is None else (float(server is Player.A), float(server is Player.B))
    return ScoreDistribution(config, server, dict(zip(scores, (s_a * weight[0] + s_b * weight[1]).tolist())))


def tiebreak_score_prob(k: int, winner: Player, server: Player, probs: RallyProbs, config: GameConfig) -> float:
    """Probability of the extended score reached when the game, tied at
    n-1 all, is set to l further points and the winner finishes l to k.

    The extension stage is served first by whoever scored the tying point,
    which is what two-stage conditioning on the tie event encodes.
    """
    validate(probs, config)
    ell = config.tiebreak
    if ell is None:
        raise ConfigError("config has no tie-break extension")
    if not (0 <= k <= ell - 1):
        raise ConfigError(f"tie-break loser score k={k} outside 0..{ell - 1}")
    hi, lo = config.n + ell - 1, config.n + k - 1
    score = TerminalScore(hi, lo, winner) if winner is Player.A else TerminalScore(lo, hi, winner)
    return score_distribution(probs, config, server).entries[score]


def game_win_probs(server: Player, probs: RallyProbs, config: GameConfig) -> tuple[float, float]:
    """Probabilities that A and that B take a game under `config.system`
    whose first server is `server`."""
    validate(probs, config)
    return tuple(_table(probs, config)[2][int(server is Player.B)].tolist())


def game_win_prob(winner: Player, server: Player, probs: RallyProbs, config: GameConfig) -> float:
    """Probability that `winner` takes a game under `config.system` whose
    first server is `server`."""
    return game_win_probs(server, probs, config)[winner is Player.B]
