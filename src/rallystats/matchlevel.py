"""Match-level composition: first player to win M games takes the match.

Games are independent given the sequence of first servers, which is driven
by a configurable rule.  One forward pass over (games won by A, games won
by B, next first server) carries, per state, the probability of reaching
it by total rallies so far: it convolves the law of each game's rallies
jointly with its winner (`duration.duration_pmfs_by_server_winner`) and
returns the finished mass per match winner.  The match duration law
merges the two winners; the match-winning probability runs the same pass
on one-point laws, the game-winning probabilities.

The winner-serves-next and alternating rules give identical match-winning
probabilities; this invariance is kept as a test property.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import sideout
from .core import ConfigError, GameConfig, Player, RallyProbs, validate
from .duration import DurationPMF, duration_pmfs_by_server_winner


class ServerRule(enum.Enum):
    WINNER_SERVES_NEXT = "winner-serves-next"
    ALTERNATE = "alternate"
    COIN_FLIP_EACH = "coin-flip-each"


@dataclass(frozen=True)
class MatchConfig:
    games_to_win: int
    server_rule: ServerRule = ServerRule.WINNER_SERVES_NEXT

    def __post_init__(self):
        if not isinstance(self.games_to_win, numbers.Integral):
            raise ConfigError(f"games_to_win={self.games_to_win!r} must be an integer")
        if self.games_to_win < 1:
            raise ConfigError(f"games_to_win={self.games_to_win} must be >= 1")
        if self.games_to_win > 20:
            raise ConfigError("games_to_win > 20 unsupported (state-space guard)")


def _next_servers(rule: ServerRule, server: Player | None, game_winner: Player | None, s_a: float):
    """(first server, probability > 0) pairs of the next game after one
    first served by `server` and won by `game_winner`, or of game one when
    `server` is None."""
    if server is None or rule is ServerRule.COIN_FLIP_EACH:
        return [(first, wt) for first, wt in ((Player.A, s_a), (Player.B, 1.0 - s_a)) if wt > 0.0]
    return [(game_winner if rule is ServerRule.WINNER_SERVES_NEXT else server.other, 1.0)]


def _merge(left: tuple[int, np.ndarray], right: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Sum of two (offset, masses) laws."""
    start = min(left[0], right[0])
    merged = np.zeros(max(left[0] + len(left[1]), right[0] + len(right[1])) - start)
    for offset, masses in (left, right):
        merged[offset - start : offset - start + len(masses)] += masses
    return start, merged


def _finished_matches(games: dict[tuple[Player, Player], DurationPMF], match_config: MatchConfig, s_a: float):
    """Forward pass over (games won by A, games won by B, next first
    server).  `games[(server, winner)]` is the law of a game's rallies
    jointly with its winner when `server` serves first (mass P[winner |
    server]; absent where that is zero).  Returns the mass of the finished
    matches by total rallies, {match winner: (offset, masses)}, and the sum
    of the games' truncation bounds weighted by the probability of
    reaching them."""
    m, rule = match_config.games_to_win, match_config.server_rule
    # state -> (offset, masses) holding P[state] * P[rallies so far]
    states = {(0, 0, first): (0, np.array([wt])) for first, wt in _next_servers(rule, None, None, s_a)}
    done: dict[Player, tuple[int, np.ndarray]] = {}
    bound = 0.0
    for total in range(2 * m - 1):
        for a, b, server in [k for k in states if k[0] + k[1] == total]:
            offset, masses = states.pop((a, b, server))
            for game_winner in Player:
                game = games.get((server, game_winner))
                if game is None:
                    continue
                bound += masses.sum() * game.truncation_bound
                law = (offset + game.offset, np.convolve(masses, game.masses))
                na, nb = a + (game_winner is Player.A), b + (game_winner is Player.B)
                if na == m or nb == m:
                    done[game_winner] = _merge(done[game_winner], law) if game_winner in done else law
                    continue
                for first, wt in _next_servers(rule, server, game_winner, s_a):
                    key, nxt = (na, nb, first), (law[0], law[1] * wt)
                    states[key] = _merge(states[key], nxt) if key in states else nxt
    return done, bound


def match_win_prob(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    winner: Player = Player.A,
) -> float:
    """Exact probability that `winner` takes the match; the first server
    of game one is A with probability s_a from the game config.  Runs the
    match pass on one-point game laws, so tie-break games are supported."""
    validate(probs, game_config)
    wins = sideout._table(probs, game_config)[2].ravel()  # [first server, game winner]
    events = [(server, game_winner) for server in Player for game_winner in Player]
    games = {event: DurationPMF(0, np.array([p]), 0.0) for event, p in zip(events, wins) if p > 0.0}
    done, _ = _finished_matches(games, match_config, game_config.s_a)
    return float(done[winner][1].sum()) if winner in done else 0.0


def match_duration_pmf(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    epsilon: float = 1e-12,
) -> DurationPMF:
    """PMF of the total rally count of a match, convolving the joint
    (rallies, winner) game laws along the match pass."""
    validate(probs, game_config)
    games = duration_pmfs_by_server_winner(probs, game_config, epsilon / (2 * match_config.games_to_win - 1))
    done, bound = _finished_matches(games, match_config, game_config.s_a)
    start, masses = functools.reduce(_merge, done.values())
    return DurationPMF(offset=start, masses=masses, truncation_bound=bound)
