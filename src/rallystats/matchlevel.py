"""Match-level composition: first player to win M games takes the match.

Games are independent given the sequence of first servers, which is driven
by a configurable rule.  One forward pass over (games won by A, games won
by B, next first server) carries, per state, the probability of reaching
it jointly with the points scored and the other rallies played so far: a
plain array over (shift, points past n per game played), of one shape for
every state at one score.  It adds the law of each game before its
exchanges jointly with its winner, law[k, s] over n + k points and the
shift s (`duration.pre_exchange_laws`, read from the game table of
`kernel.game`, tie-break games included), and returns the (games played,
state) of each match winner's finished matches.  The exchange counts of
all the games add up to one negative binomial of the match's points, so
the match duration law places each g-game match (g - m) n points past the
shortest, merges the two winners and applies that exchange law once
(`duration.exchange_mixture`, the one engine of every duration PMF: a
Horner pass over the points of geometric filters on the law's short head,
and the rest of the window in closed form, with the game laws' bound: the
mass times the tail of the exchange series of the largest point total).
A step of the pass (`_play`) weighs copies of a state shifted along its
points by every column of the games' laws that holds mass in one matrix
product, and adds each column's block as contiguous rows at its shift s.
The match-winning probability runs the same pass on plain floats, the
game-winning probabilities (`sideout._win_probs`, the running sums of the
game table's events that `duration.aggregate_moments` forms too), adding
in the same order as the pass on 1 x 1 laws would.  The rally count of
a block of independent matches (`block_duration_pmf`) is the match law
convolved with itself, one match at a time.

The first server of each game after the first follows a `ServerRule`,
defined in `core` so that the command line can offer its choices without
loading this module; `matchlevel.ServerRule` is the same class.  The
winner-serves-next and alternating rules give identical match-winning
probabilities; this invariance is kept as a test property.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import duration, kernel, sideout
from .core import ConfigError, GameConfig, Player, RallyProbs, ServerRule, expect, expect_count, validate
from .duration import DurationPMF


@dataclass(frozen=True)
class MatchConfig:
    games_to_win: int
    server_rule: ServerRule = ServerRule.WINNER_SERVES_NEXT

    def __post_init__(self):
        expect_count(self.games_to_win, "games_to_win", 1)
        expect(self.server_rule, ServerRule, "server_rule", ConfigError)
        if self.games_to_win > 20:
            raise ConfigError("games_to_win > 20 unsupported (state-space guard)")


def _next_servers(rule: ServerRule, server: Player | None, game_winner: Player | None, s_a: float):
    """(first server, probability > 0) pairs of the next game after one
    first served by `server` and won by `game_winner`, or of game one when
    `server` is None."""
    if server is None or rule is ServerRule.COIN_FLIP_EACH:
        return [(first, wt) for first, wt in ((Player.A, s_a), (Player.B, 1.0 - s_a)) if wt > 0.0]
    return [(game_winner if rule is ServerRule.WINNER_SERVES_NEXT else server.other, 1.0)]


def _play(state: np.ndarray, laws: list[np.ndarray]) -> list[np.ndarray]:
    """Laws of the shifts and points of `state` plus those of each game,
    all arrays from offset 0: out[S + s, K + k] = sum state[S, K] law[k, s]
    for a game's law[k, s]; the games' laws have one shape, and so do the
    outputs.

    The games share the state's copies shifted along the points by k, one
    per row k of their laws.  One matrix product over k weighs the copies
    by every column s of every game that holds mass, and each (game, s)
    block is then added as contiguous rows at shift s."""
    rows, span = laws[0].shape
    shifts, points = state.shape
    width = points + rows - 1
    copies = np.zeros((rows, shifts, width))
    for k in range(rows):
        copies[k, :, k : k + points] = state
    columns = [np.flatnonzero(law.any(axis=0)).tolist() for law in laws]
    weights = np.concatenate([law[:, s].T for law, s in zip(laws, columns)])  # [mass columns of every game, k]
    blocks = iter((weights @ copies.reshape(rows, -1)).reshape(len(weights), shifts, width))
    out = []
    for mass in columns:
        summed = np.zeros((shifts + span - 1, width))
        for s in mass:
            summed[s : s + shifts] += next(blocks)
        out.append(summed)
    return out


def _finished_matches(play, match_config: MatchConfig, s_a: float, unit):
    """Forward pass over (games won by A, games won by B, next first
    server).  A state carries the probability of reaching it, jointly with
    whatever `unit` (the certain state) records; `play(state, server)`
    lists (game winner, state times the game's law jointly with that
    winner) for each winner of positive probability when `server` serves
    first, and states reached more than once are added in the order they
    are reached.  Returns, per match winner, the (games played, state) of
    its finished matches in the order they finish."""
    m, rule = expect(match_config, MatchConfig, "match_config").games_to_win, match_config.server_rule
    states = {(0, 0, first): unit * wt for first, wt in _next_servers(rule, None, None, s_a)}
    done = {}
    for total in range(2 * m - 1):
        for a, b, server in [k for k in states if k[0] + k[1] == total]:
            for game_winner, summed in play(states.pop((a, b, server)), server):
                na, nb = a + (game_winner is Player.A), b + (game_winner is Player.B)
                if na == m or nb == m:
                    done.setdefault(game_winner, []).append((total + 1, summed))
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
    game = kernel.game(game_config, probs.p_a, probs.p_b)
    wins = [sideout._win_probs(game, kernel.servers(game_config, s)) for s in Player]  # [first server][game winner]

    def play(reach: float, server: Player) -> list[tuple[Player, float]]:
        return [(w, reach * p) for w, p in zip(Player, wins[server is Player.B]) if p > 0.0]

    finished = _finished_matches(play, match_config, game_config.s_a, 1.0).get(expect(winner, Player, "winner"), [])
    return sum((reach for _, reach in finished), 0.0)


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
    laws = duration.pre_exchange_laws(probs, game_config)

    def play(state: np.ndarray, server: Player) -> list[tuple[Player, np.ndarray]]:
        winners = [w for w in Player if (server, w) in laws]
        return list(zip(winners, _play(state, [laws[(server, w)] for w in winners])))

    done = _finished_matches(play, match_config, game_config.s_a, np.ones((1, 1)))
    # a g-game match starts (g - m) n points past the shortest match
    m, n = match_config.games_to_win, game_config.n
    pairs = [pair for finished in done.values() for pair in finished]
    shape = max(law.shape[0] for _, law in pairs), max((g - m) * n + law.shape[1] for g, law in pairs)
    total = np.zeros(shape)
    for finished in done.values():
        placed = np.zeros(shape)
        for g, law in finished:
            placed[: law.shape[0], (g - m) * n : (g - m) * n + law.shape[1]] += law
        total += placed
    return duration.exchange_mixture(m * n, total.T, probs, game_config.system, epsilon)


def block_duration_pmf(
    probs: RallyProbs,
    game_config: GameConfig,
    match_config: MatchConfig,
    matches: int,
    epsilon: float = 1e-12,
) -> DurationPMF:
    """PMF of the total rally count of a block of `matches` independent
    matches: the law of one match (`match_duration_pmf` at epsilon /
    matches) convolved with itself matches - 1 times, from matches times
    its offset, with matches times its truncation bound.  Raises
    ConfigError for a `matches` that is not a positive integer."""
    expect_count(matches, "matches", 1)
    epsilon = expect(epsilon, numbers.Real, "epsilon") / matches
    single = match_duration_pmf(probs, game_config, match_config, epsilon)
    masses = single.masses
    for _ in range(matches - 1):
        masses = np.convolve(masses, single.masses)
    return DurationPMF(matches * single.offset, masses, matches * single.truncation_bound)
