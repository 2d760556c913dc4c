"""Exact score probabilities: the game-level laws of both scoring systems.

A side-out game is described rally by rally through interruption counts r
and exchange counts j.  Summing the elementary event probabilities over r
and j gives closed forms for the probability of every final tally, from
which tie-break extensions follow.  `score_distribution`,
`game_win_probs`, `game_win_prob` and `match_win_prob` all read the game
table of `kernel.game`, whose components carry their probabilities for
both first servers at once; a score sums its components (an end of a
tie-break's extension is reached by either tying scorer), and a winner's
probability is the kernel's one sum of its components' weights
(`kernel.total` of `Game.event`).  The scoring system comes from the
`GameConfig`, and rally-point tallies differ only in how the polynomial
is weighted (see `rallypoint`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import GameConfig, Player, RallyProbs, TerminalScore, expect, validate


@dataclass(frozen=True)
class ScoreDistribution:
    """Probabilities of every terminal score of a complete game.

    `server` is the first server, or None for an s_a-weighted mixture.
    """

    config: GameConfig
    server: Player | None
    entries: dict[TerminalScore, float]

    def win_prob(self, player: Player) -> float:
        """The sum of the printed entries that `player` wins, in their
        order: not the kernel's one sum of the event (`game_win_probs`), so
        it may differ from it in the last bits."""
        expect(player, Player, "player")
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
    serve first."""
    ends = [list(zip(alpha, beta)), list(zip(beta, alpha))]
    scores = sorted(set(ends[0]), key=lambda s: (max(s), s[0] < s[1], min(s)))
    index = {s: i for i, s in enumerate(scores)}
    terminal = tuple(TerminalScore(a, b, Player.A if a > b else Player.B) for a, b in scores)
    return terminal, np.array([[index[s] for s in first] for first in ends])


def score_distribution(probs: RallyProbs, config: GameConfig, server: Player | None = None) -> ScoreDistribution:
    """Full distribution over the terminal scores of a game under
    `config.system`; `server=None` mixes A- and B-games with weights
    (s_a, s_b) from the config.  Each score sums its components of the game
    table (`kernel.game`), two of them for an end of a tie-break's
    extension, reached by either tying scorer."""
    validate(probs, config)
    s_a, s_b = kernel.servers(config, server)
    game = kernel.game(config, probs.p_a, probs.p_b)
    scores, index = _scores(tuple(game.alpha.tolist()), tuple(game.beta.tolist()))
    weight = [np.bincount(index[i], game.weight[:, i, 0], len(scores)) for i in range(2)]  # per first server
    return ScoreDistribution(config, server, dict(zip(scores, (s_a * weight[0] + s_b * weight[1]).tolist())))


def game_win_probs(server: Player | None, probs: RallyProbs, config: GameConfig) -> tuple[float, float]:
    """Probabilities that A and that B take a game under `config.system`
    whose first server is `server`; for None, A serves first with
    probability `config.s_a`, and the game table's components are weighed
    by it.  Each is the kernel's probability of the event
    (`kernel.total` of `Game.event`), the one every law given a winner
    divides by."""
    validate(probs, config)
    game, servers = kernel.game(config, probs.p_a, probs.p_b), kernel.servers(config, server)
    return tuple(float(kernel.total(game.event(servers, kernel.WON[w]))[0]) for w in Player)


def game_win_prob(winner: Player, server: Player | None, probs: RallyProbs, config: GameConfig) -> float:
    """Probability that `winner` takes a game under `config.system` whose
    first server is `server`; for None, the mixture of both first servers
    by `config.s_a`, as in `game_win_probs`."""
    return game_win_probs(server, probs, config)[expect(winner, Player, "winner") is Player.B]
