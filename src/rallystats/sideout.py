"""Exact score probabilities: side-out tallies and the game-level laws of
both scoring systems.

A side-out game is described rally by rally through interruption counts r
and exchange counts j.  Summing the elementary event probabilities over r
and j gives closed forms for the probability of every final tally, from
which tie-break extensions follow.  `score_distribution`,
`game_win_probs` and `game_win_prob` read the scoring system from the
`GameConfig`: both systems share the interruption polynomial
(`kernel.terminal_weights`), and rally-point tallies differ only in how it
is weighted (see `rallypoint`).

All quantities are stated for A-games (A serves first); B-game quantities
are obtained by swapping the player roles, which keeps a single code path
and makes the symmetry testable for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .core import (
    ConfigError,
    GameConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    TerminalScore,
    validate,
)


def _score_prob(alpha: int, beta: int, last_scorer: Player, server: Player, probs: RallyProbs) -> float:
    if server is not Player.A:
        # B-game: exchange the player roles (p_a <-> p_b, alpha <-> beta).
        alpha, beta, last_scorer, probs = beta, alpha, last_scorer.other, probs.swapped()
    rows = kernel.tally(alpha, beta, last_scorer is Player.A)
    return float(kernel.evaluate(ScoringSystem.SIDE_OUT, rows, probs.p_a, probs.p_b).weight[0, 0])


def score_prob(
    alpha: int,
    beta: int,
    last_scorer: Player,
    server: Player,
    probs: RallyProbs,
) -> float:
    """Exact probability that a game with the given first server passes
    through final tally (alpha, beta) with `last_scorer` scoring last."""
    validate(probs)
    return _score_prob(alpha, beta, last_scorer, server, probs)


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


def _tiebreak_score_prob(k: int, winner: Player, server: Player, probs: RallyProbs, config: GameConfig) -> float:
    ell = config.tiebreak
    if ell is None:
        raise ConfigError("config has no tie-break extension")
    if config.n < 2:
        raise ConfigError("tie-break requires n >= 2")
    if not (0 <= k <= ell - 1):
        raise ConfigError(f"tie-break loser score k={k} outside 0..{ell - 1}")
    n = config.n
    total = 0.0
    for tier in Player:
        # the extension is an ell-point game first served by whoever tied
        tie = _score_prob(n - 1, n - 1, tier, server, probs)
        a_wins, b_wins = kernel.terminal_weights(ScoringSystem.SIDE_OUT, probs, ell, tier)
        total += tie * (a_wins if winner is Player.A else b_wins)[k]
    return float(total)


def tiebreak_score_prob(
    k: int,
    winner: Player,
    server: Player,
    probs: RallyProbs,
    config: GameConfig,
) -> float:
    """Probability of the extended score reached when the game, tied at
    n-1 all, is set to l further points and the winner finishes l to k.

    The extension stage is served first by whoever scored the tying point,
    which is what two-stage conditioning on the tie event encodes.
    """
    validate(probs, config)
    return _tiebreak_score_prob(k, winner, server, probs, config)


def _single_server_distribution(probs: RallyProbs, config: GameConfig, server: Player) -> ScoreDistribution:
    n, ell = config.n, config.tiebreak
    a_wins, b_wins = kernel.terminal_weights(config.system, probs, n, server)
    # with a tie-break, play goes on from n-1 all instead of ending at n to n-1
    regular = n if ell is None else n - 1
    entries = {TerminalScore(n, k, Player.A): float(a_wins[k]) for k in range(regular)}
    entries.update({TerminalScore(k, n, Player.B): float(b_wins[k]) for k in range(regular)})
    for winner in Player:
        for k in range(ell or 0):
            hi, lo = n + ell - 1, n + k - 1
            score = TerminalScore(hi, lo, winner) if winner is Player.A else TerminalScore(lo, hi, winner)
            entries[score] = _tiebreak_score_prob(k, winner, server, probs, config)
    return ScoreDistribution(config, server, entries)


def score_distribution(
    probs: RallyProbs,
    config: GameConfig,
    server: Player | None = None,
) -> ScoreDistribution:
    """Full distribution over the terminal scores of a game under
    `config.system`; `server=None` mixes A- and B-games with weights
    (s_a, s_b) from the config."""
    validate(probs, config)
    if server is not None:
        return _single_server_distribution(probs, config, server)
    dist_a = _single_server_distribution(probs, config, Player.A)
    dist_b = _single_server_distribution(probs, config, Player.B)
    entries = {
        score: config.s_a * dist_a.entries[score] + config.s_b * dist_b.entries[score]
        for score in dist_a.entries
    }
    return ScoreDistribution(config, None, entries)


def game_win_probs(server: Player, probs: RallyProbs, config: GameConfig) -> tuple[float, float]:
    """Probabilities that A and that B take a game under `config.system`
    whose first server is `server`, from one kernel evaluation (or one
    score distribution with a tie-break)."""
    validate(probs, config)
    if config.tiebreak is not None:
        dist = _single_server_distribution(probs, config, server)
        return dist.win_prob(Player.A), dist.win_prob(Player.B)
    a_wins, b_wins = kernel.terminal_weights(config.system, probs, config.n, server)
    return float(a_wins.sum()), float(b_wins.sum())


def game_win_prob(winner: Player, server: Player, probs: RallyProbs, config: GameConfig) -> float:
    """Probability that `winner` takes a game under `config.system` whose
    first server is `server`."""
    return game_win_probs(server, probs, config)[winner is Player.B]

