"""Exact score probabilities: side-out tallies and the game-level laws of
both scoring systems.

A side-out game is described rally by rally through interruption counts r
and exchange counts j.  Summing the elementary event probabilities over r
and j gives closed forms for the probability of every final tally, from
which tie-break extensions follow.  `score_distribution`,
`game_win_probs`, `game_win_prob`, `tiebreak_score_prob` and
`match_win_prob` all read one terminal-score table per game, taken from
the shared interruption polynomial for both first servers at once; the
scoring system comes from the `GameConfig`, and rally-point tallies differ
only in how the polynomial is weighted (see `rallypoint`).
"""

from __future__ import annotations

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


def _scores(top: int, losers: range) -> list[TerminalScore]:
    """`top` points against each loser score, won by A and then by B."""
    return [TerminalScore(top, k, Player.A) for k in losers] + [TerminalScore(k, top, Player.B) for k in losers]


def _table(probs: RallyProbs, config: GameConfig) -> tuple[list[TerminalScore], np.ndarray, np.ndarray]:
    """The terminal scores of a game in `score_distribution` order, their
    probabilities when A (row 0) and B (row 1) serve first, and P[winner |
    first server] as wins[server, winner], from one kernel evaluation per
    table for both first servers.  With a tie-break, play goes on from n-1
    all, and the extension is an l-point game first served by whoever tied:
    the tie probabilities by tying scorer weigh the table of that game."""
    n, ell = config.n, config.tiebreak

    def by_last_scorer(rows: kernel.Rows) -> np.ndarray:  # [first server, last scorer, k]
        weight = kernel.evaluate_servers(config.system, rows, probs.p_a, probs.p_b).weight[:, :, 0]
        # the first server scores last in the first half of the rows, the
        # receiver in the second
        halves = weight.T.reshape(2, 2, -1)
        return np.stack([halves[0], halves[1, ::-1]])

    regular = by_last_scorer(kernel.table(n))
    if ell is None:
        return _scores(n, range(n)), regular.reshape(2, -1), regular.sum(axis=2)
    regular = regular[:, :, : n - 1]  # n to n-1 is not an end: play goes on from n-1 all
    tie = by_last_scorer(kernel.tied(n - 1))[:, :, 0]  # [first server, tying scorer]
    ext = by_last_scorer(kernel.table(ell))  # [tying scorer, winner, k]
    extension = tie[:, 0, None, None] * ext[0] + tie[:, 1, None, None] * ext[1]
    wins = regular.sum(axis=2)
    for k in range(ell):  # P[winner] in regular play, then each extension score in turn
        wins = wins + extension[:, :, k]
    scores = _scores(n, range(n - 1)) + _scores(n + ell - 1, range(n - 1, n + ell - 1))
    return scores, np.concatenate([regular.reshape(2, -1), extension.reshape(2, -1)], axis=1), wins


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
