"""Match-level composition: first player to win M games takes the match.

Games are independent given the sequence of first servers, which is driven
by a configurable rule.  Winning probabilities follow from a dynamic
program over (games won by A, games won by B, next first server); the
match duration distribution convolves per-game duration PMFs along the
same dynamic program.

The winner-serves-next and alternating rules give identical match-winning
probabilities; this invariance is kept as a test property.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from functools import lru_cache

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


def _game_win_probs(probs: RallyProbs, config: GameConfig) -> dict[Player, dict[Player, float]]:
    """win[server][winner] for a single game."""
    return {
        server: {winner: sideout.game_win_prob(winner, server, probs, config) for winner in Player}
        for server in Player
    }


def _next_servers(rule: ServerRule, server: Player | None, game_winner: Player | None, s_a: float):
    """(first server, probability > 0) pairs of the next game after one
    first served by `server` and won by `game_winner`, or of game one when
    `server` is None."""
    if server is None or rule is ServerRule.COIN_FLIP_EACH:
        return [(first, wt) for first, wt in ((Player.A, s_a), (Player.B, 1.0 - s_a)) if wt > 0.0]
    return [(game_winner if rule is ServerRule.WINNER_SERVES_NEXT else server.other, 1.0)]


def match_win_prob(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    winner: Player = Player.A,
) -> float:
    """Exact probability that `winner` takes the match; the first server
    of game one is A with probability s_a from the game config."""
    validate(probs, game_config)
    win = _game_win_probs(probs, game_config)
    m = match_config.games_to_win
    rule = match_config.server_rule
    s_a = game_config.s_a

    @lru_cache(maxsize=None)
    def prob_a(a: int, b: int, server: Player) -> float:
        if a == m:
            return 1.0
        if b == m:
            return 0.0

        def after(game_winner: Player) -> float:
            na = a + (game_winner is Player.A)
            nb = b + (game_winner is Player.B)
            return sum(wt * prob_a(na, nb, first) for first, wt in _next_servers(rule, server, game_winner, s_a))

        return win[server][Player.A] * after(Player.A) + win[server][Player.B] * after(Player.B)

    p_match_a = sum(wt * prob_a(0, 0, first) for first, wt in _next_servers(rule, None, None, s_a))
    return p_match_a if winner is Player.A else 1.0 - p_match_a


def match_duration_pmf(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    epsilon: float = 1e-12,
) -> DurationPMF:
    """PMF of the total rally count of a match, convolving per-game
    duration PMFs along the win/loss dynamic program."""
    validate(probs, game_config)
    m = match_config.games_to_win
    rule = match_config.server_rule
    s_a = game_config.s_a
    max_games = 2 * m - 1
    win = _game_win_probs(probs, game_config)
    # a game law conditions on its winner: request only those of positive probability
    events = [(server, winner) for server in Player for winner in Player if win[server][winner] > 0.0]
    gpmf = duration_pmfs_by_server_winner(probs, game_config, events, epsilon / max_games)

    # state -> (offset, masses) holding P[state] * P[rallies so far]
    states = {(0, 0, first): (0, np.array([wt])) for first, wt in _next_servers(rule, None, None, s_a)}
    done: dict[None, tuple[int, np.ndarray]] = {}  # the finished matches, under one key
    bound = 0.0

    def add(store, key, offset, masses):
        if key in store:
            off0, m0 = store[key]
            start = min(off0, offset)
            stop = max(off0 + len(m0), offset + len(masses))
            merged = np.zeros(stop - start)
            merged[off0 - start : off0 - start + len(m0)] += m0
            merged[offset - start : offset - start + len(masses)] += masses
            store[key] = (start, merged)
        else:
            store[key] = (offset, masses)

    for total in range(max_games):
        layer = [k for k in states if k[0] + k[1] == total]
        for key in layer:
            a, b, server = key
            offset, masses = states.pop(key)
            for game_winner in Player:
                wt = win[server][game_winner]
                if wt == 0.0:
                    continue
                g = gpmf[(server, game_winner)]
                bound += masses.sum() * wt * g.truncation_bound
                conv = np.convolve(masses, g.masses) * wt
                off = offset + g.offset
                na = a + (game_winner is Player.A)
                nb = b + (game_winner is Player.B)
                if na == m or nb == m:
                    add(done, None, off, conv)
                    continue
                for first, first_wt in _next_servers(rule, server, game_winner, s_a):
                    add(states, (na, nb, first), off, conv * first_wt)

    start, masses = done[None]
    return DurationPMF(offset=start, masses=masses, truncation_bound=bound)
