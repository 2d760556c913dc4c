"""Match-level composition: first player to win M games takes the match.

Games are independent given the sequence of first servers, which is driven
by a configurable rule.  One forward pass over (games won by A, games won
by B, next first server) carries, per state, the probability of reaching
it jointly with the points scored and the other rallies played so far, a
2-D array over (shift, points): it adds the law of each game before its
exchanges, jointly with its winner (`duration.pre_exchange_laws`), and
returns the finished mass per match winner.  The exchange counts of all
the games add up to one negative binomial of the match's points, so the
match duration law merges the two winners and applies that exchange law
once (`duration.exchange_mixture`, the one engine of every duration PMF:
a Horner pass over the points of geometric filters on the law's short
head, and the rest of the window in closed form, with the game laws'
bound: the mass times the tail of the exchange series of the largest
point total).  A step of the pass (`_play`) weighs copies of a state
shifted along its points by every column of the games' laws in one
matrix product, and adds each column's block as contiguous rows at its
shift.  The match-winning probability runs the same pass on 1 x 1 laws,
the game-winning probabilities.

The winner-serves-next and alternating rules give identical match-winning
probabilities; this invariance is kept as a test property.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import duration, sideout
from .core import ConfigError, GameConfig, Player, RallyProbs, validate
from .duration import DurationPMF


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


def _add(left: tuple[int, np.ndarray], right: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Sum of two (points offset, law[shift, points]) laws."""
    start = min(left[0], right[0])
    stop = max(left[0] + left[1].shape[1], right[0] + right[1].shape[1])
    out = np.zeros((max(left[1].shape[0], right[1].shape[0]), stop - start))
    for offset, law in (left, right):
        out[: law.shape[0], offset - start : offset - start + law.shape[1]] += law
    return start, out


def _play(state: np.ndarray, games: list[tuple[int, np.ndarray]]) -> list[np.ndarray]:
    """Laws of the shifts and points of `state` plus those of each game,
    all arrays from offset 0: out[S + delta + 2j, K + k] = sum state[S, K]
    law[k, j] for a game (delta, law[k, j]); the games' laws have one shape.

    The games share the state's copies shifted along the points by k, one
    per row k of their laws.  One matrix product over k weighs the copies
    by every column j of every game, and each (game, j) block is then added
    as contiguous rows at shift delta + 2j."""
    rows, span = games[0][1].shape
    shifts, points = state.shape
    width = points + rows - 1
    copies = np.zeros((rows, shifts, width))
    for k in range(rows):
        copies[k, :, k : k + points] = state
    weights = np.concatenate([law.T for _, law in games])  # [columns j of every game, k]
    blocks = iter((weights @ copies.reshape(rows, -1)).reshape(len(weights), shifts, width))
    out = []
    for delta, _ in games:
        summed = np.zeros((delta + 2 * (span - 1) + shifts, width))
        for j in range(span):
            summed[delta + 2 * j : delta + 2 * j + shifts] += next(blocks)
        out.append(summed)
    return out


def _finished_matches(
    games: dict[tuple[Player, Player], tuple[int, int, np.ndarray]], match_config: MatchConfig, s_a: float
):
    """Forward pass over (games won by A, games won by B, next first
    server).  `games[(server, winner)]` is the law of a game jointly with
    its winner when `server` serves first, as (points offset, delta,
    law[points, j]) of mass P[winner | server] over shifts delta + 2j;
    absent where that is zero.  Returns the law of the finished matches'
    summed shifts and points by match winner, {match winner: (points
    offset, law[shift, points])}."""
    m, rule = match_config.games_to_win, match_config.server_rule
    # state -> (offset, law) holding P[state] * P[shifts, points so far]
    states = {(0, 0, first): (0, np.array([[wt]])) for first, wt in _next_servers(rule, None, None, s_a)}
    done: dict[Player, tuple[int, np.ndarray]] = {}
    for total in range(2 * m - 1):
        for a, b, server in [k for k in states if k[0] + k[1] == total]:
            offset, law = states.pop((a, b, server))
            winners = [w for w in Player if (server, w) in games]
            sums = _play(law, [games[(server, w)][1:] for w in winners])
            for game_winner, summed_law in zip(winners, sums):
                summed = (offset + games[(server, game_winner)][0], summed_law)
                na, nb = a + (game_winner is Player.A), b + (game_winner is Player.B)
                if na == m or nb == m:
                    done[game_winner] = _add(done[game_winner], summed) if game_winner in done else summed
                    continue
                for first, wt in _next_servers(rule, server, game_winner, s_a):
                    key, nxt = (na, nb, first), (summed[0], summed[1] * wt)
                    states[key] = _add(states[key], nxt) if key in states else nxt
    return done


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
    games = {event: (0, 0, np.array([[p]])) for event, p in zip(events, wins) if p > 0.0}
    done = _finished_matches(games, match_config, game_config.s_a)
    return float(done[winner][1].sum()) if winner in done else 0.0


def match_duration_pmf(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    epsilon: float = 1e-12,
) -> DurationPMF:
    """PMF of the total rally count of a match.

    The match pass composes the games' laws before their exchanges
    (`duration.pre_exchange_laws`), over points scored and other rallies;
    the exchange counts of all the games add up to one NB(points, q), which
    `duration.exchange_mixture` applies once, with the one truncation bound
    of its longest exchange series."""
    validate(probs, game_config)
    done = _finished_matches(duration.pre_exchange_laws(probs, game_config), match_config, game_config.s_a)
    points, law = functools.reduce(_add, done.values())
    return duration.exchange_mixture(points, law.T, probs, game_config.system, epsilon)
