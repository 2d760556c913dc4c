"""Match-level composition: first player to win M games takes the match.

Games are independent given the sequence of first servers, which is driven
by a configurable rule.  One forward pass over (games won by A, games won
by B, next first server) carries, per state, the probability of reaching
it jointly with the points scored and the other rallies played so far, a
2-D array over (shift, points): it adds the law of each game before its
exchanges, jointly with its winner (`duration.pre_exchange_laws`, read
from the game table of `kernel.game`, tie-break games included), and
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
shift.  The match-winning probability runs the same pass on plain floats,
the game-winning probabilities, adding in the same order as the pass on
1 x 1 laws would.

The first server of each game after the first follows a `ServerRule`,
defined in `core` so that the command line can offer its choices without
loading this module; `matchlevel.ServerRule` is the same class.  The
winner-serves-next and alternating rules give identical match-winning
probabilities; this invariance is kept as a test property.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import duration, sideout
from .core import ConfigError, GameConfig, Player, RallyProbs, ServerRule, validate
from .duration import DurationPMF


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


@dataclass(frozen=True)
class _Law:
    """Joint law of a state's summed shifts and points, law[shift, points]
    from points `offset` on; it adds and scales as the plain probabilities
    of the match-winning pass do."""

    offset: int
    law: np.ndarray

    def __add__(self, other: "_Law") -> "_Law":
        start = min(self.offset, other.offset)
        stop = max(self.offset + self.law.shape[1], other.offset + other.law.shape[1])
        out = np.zeros((max(self.law.shape[0], other.law.shape[0]), stop - start))
        for part in (self, other):
            out[: part.law.shape[0], part.offset - start : part.offset - start + part.law.shape[1]] += part.law
        return _Law(start, out)

    def __mul__(self, weight: float) -> "_Law":
        return _Law(self.offset, self.law * weight)


_UNIT = _Law(0, np.ones((1, 1)))


def _game_player(games: dict[tuple[Player, Player], tuple[int, int, np.ndarray]]):
    """`play` of the match pass over `_Law` states.  `games[(server,
    winner)]` is the law of a game jointly with its winner when `server`
    serves first, as (points offset, delta, law[points, j]) of mass
    P[winner | server] over shifts delta + 2j; absent where that is
    zero."""

    def play(state: _Law, server: Player) -> list[tuple[Player, _Law]]:
        winners = [w for w in Player if (server, w) in games]
        sums = _play(state.law, [games[(server, w)][1:] for w in winners])
        return [(w, _Law(state.offset + games[(server, w)][0], law)) for w, law in zip(winners, sums)]

    return play


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


def _finished_matches(play, match_config: MatchConfig, s_a: float, unit):
    """Forward pass over (games won by A, games won by B, next first
    server).  A state carries the probability of reaching it, jointly with
    whatever `unit` (the certain state) records; `play(state, server)`
    lists (game winner, state times the game's law jointly with that
    winner) for each winner of positive probability when `server` serves
    first, and states reached more than once are added in the order they
    are reached.  Returns the finished state per match winner."""
    m, rule = match_config.games_to_win, match_config.server_rule
    states = {(0, 0, first): unit * wt for first, wt in _next_servers(rule, None, None, s_a)}
    done = {}
    for total in range(2 * m - 1):
        for a, b, server in [k for k in states if k[0] + k[1] == total]:
            for game_winner, summed in play(states.pop((a, b, server)), server):
                na, nb = a + (game_winner is Player.A), b + (game_winner is Player.B)
                if na == m or nb == m:
                    done[game_winner] = done[game_winner] + summed if game_winner in done else summed
                    continue
                for first, wt in _next_servers(rule, server, game_winner, s_a):
                    key, nxt = (na, nb, first), summed * wt
                    states[key] = states[key] + nxt if key in states else nxt
    return done


def match_win_prob(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    winner: Player = Player.A,
) -> float:
    """Exact probability that `winner` takes the match; the first server
    of game one is A with probability s_a from the game config.  Runs the
    match pass on floats, the game-winning probabilities."""
    validate(probs, game_config)
    wins = sideout._table(probs, game_config)[2].tolist()  # [first server][game winner]

    def play(reach: float, server: Player) -> list[tuple[Player, float]]:
        return [(w, reach * p) for w, p in zip(Player, wins[server is Player.B]) if p > 0.0]

    return _finished_matches(play, match_config, game_config.s_a, 1.0).get(winner, 0.0)


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
    done = _finished_matches(
        _game_player(duration.pre_exchange_laws(probs, game_config)), match_config, game_config.s_a, _UNIT
    )
    total = functools.reduce(operator.add, done.values())
    return duration.exchange_mixture(total.offset, total.law.T, probs, game_config.system, epsilon)
