"""Exact score probabilities and durations under rally-point scoring.

Every rally scores a point, so exchanges cannot occur and the rally count
of a game is a function of the final tally alone: D = alpha + beta.  Score
probabilities keep the interruption structure of the side-out analysis:
the r-sum with powers p_a^(alpha-r) p_b^(beta-r) (q_a q_b)^r, evaluated by
the shared kernel (`kernel.evaluate`), which stays finite when p_a or p_b
vanishes (the t_a = q_a/p_a form does not).
"""

from __future__ import annotations

import numpy as np

from . import kernel
from .core import (
    ConditioningError,
    ConfigError,
    GameConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    TerminalScore,
    binom,
    validate,
)
from .duration import (
    _TINY,
    DurationAggregates,
    DurationPMF,
    _aggregate,
    _mix_pmfs,
)
from .sideout import ScoreDistribution


def _require_rallypoint(config: GameConfig) -> None:
    if config.system is not ScoringSystem.RALLY_POINT:
        raise ConfigError("this operation is for rally-point scoring; see sideout module")


def score_prob_r(alpha: int, beta: int, last_scorer: Player, r: int, probs: RallyProbs) -> float:
    """Probability, in an A-game, of final tally (alpha, beta) with
    `last_scorer` taking the last point through exactly r A-interruptions.
    Zero outside the feasible r range."""
    validate(probs)
    rows = kernel.tally(alpha, beta, last_scorer is Player.A)
    # the kernel indexes by the power of q = q_a q_b the interruptions carry
    d = int(last_scorer is Player.B)
    c = kernel.coefficient(rows, r - d)
    if c == 0.0:
        return 0.0
    j = r - d
    return c * probs.p_a ** (alpha - j) * probs.p_b ** (beta - d - j) * probs.q_a**d * probs.q**j


def score_prob(alpha: int, beta: int, last_scorer: Player, server: Player, probs: RallyProbs) -> float:
    """Exact rally-point probability of a final tally with the given last
    scorer and first server."""
    validate(probs)
    if server is not Player.A:
        alpha, beta, last_scorer, probs = beta, alpha, last_scorer.other, probs.swapped()
    rows = kernel.tally(alpha, beta, last_scorer is Player.A)
    return float(kernel.evaluate(ScoringSystem.RALLY_POINT, rows, probs.p_a, probs.p_b).weight[0, 0])


def no_server_score_prob(alpha: int, beta: int, last_scorer: Player, p: float) -> float:
    """Negative-binomial closed form in the no-server model p_a = 1 - p_b:
    binom(alpha+beta-1, beta) p^alpha (1-p)^beta when A scores last, and
    binom(alpha+beta-1, alpha) p^alpha (1-p)^beta when B does."""
    if last_scorer is Player.A:
        return binom(alpha + beta - 1, beta) * p**alpha * (1.0 - p) ** beta
    return binom(alpha + beta - 1, alpha) * p**alpha * (1.0 - p) ** beta


def score_distribution(
    probs: RallyProbs, config: GameConfig, server: Player | None = None
) -> ScoreDistribution:
    """Distribution over the 2n terminal scores; `server=None` mixes the
    first server with weights (s_a, s_b)."""
    validate(probs, config)
    _require_rallypoint(config)
    n = config.n

    def single(sv: Player) -> dict[TerminalScore, float]:
        a_win, b_win = kernel.terminal_weights(ScoringSystem.RALLY_POINT, probs, n, sv)
        out = {TerminalScore(n, k, Player.A): float(a_win[k]) for k in range(n)}
        out.update({TerminalScore(k, n, Player.B): float(b_win[k]) for k in range(n)})
        return out

    if server is not None:
        return ScoreDistribution(config, server, single(server))
    ea, eb = single(Player.A), single(Player.B)
    entries = {sc: config.s_a * ea[sc] + config.s_b * eb[sc] for sc in ea}
    return ScoreDistribution(config, None, entries)


def game_win_prob(winner: Player, server: Player, probs: RallyProbs, config: GameConfig) -> float:
    """Probability that `winner` takes a rally-point game with the given
    first server."""
    validate(probs, config)
    _require_rallypoint(config)
    a_win, b_win = kernel.terminal_weights(ScoringSystem.RALLY_POINT, probs, config.n, server)
    return float((a_win if winner is Player.A else b_win).sum())


def aggregate_moments(probs: RallyProbs, config: GameConfig) -> DurationAggregates:
    """Moments of D per (server, winner), per server, per winner and
    overall.  Given the score, D is deterministic (alpha + beta), so all
    randomness comes from the score distribution."""
    validate(probs, config)
    _require_rallypoint(config)
    return _aggregate(ScoringSystem.RALLY_POINT, probs, config)


def _winner_pmf(probs: RallyProbs, config: GameConfig, winner: Player, server: Player) -> tuple[float, DurationPMF]:
    n = config.n
    a_win, b_win = kernel.terminal_weights(ScoringSystem.RALLY_POINT, probs, n, server)
    w = a_win if winner is Player.A else b_win
    total = float(w.sum())
    masses = np.array(w, dtype=float)
    return total, DurationPMF(offset=n, masses=masses, truncation_bound=0.0)


def duration_pmf_winner(
    probs: RallyProbs,
    config: GameConfig,
    winner: Player,
    server: Player | None = None,
) -> DurationPMF:
    """Pushforward of the score distribution under alpha + beta,
    conditional on the winner.  Exact: truncation bound is zero."""
    validate(probs, config)
    _require_rallypoint(config)
    if server is not None:
        total, pmf = _winner_pmf(probs, config, winner, server)
        if total <= _TINY:
            raise ConditioningError(f"P[{winner} wins] underflowed")
        return DurationPMF(pmf.offset, pmf.masses / total, 0.0)
    s = {Player.A: config.s_a, Player.B: config.s_b}
    parts = []
    for sv in Player:
        if s[sv] == 0.0:
            continue
        total, pmf = _winner_pmf(probs, config, winner, sv)
        if s[sv] * total > 0.0:
            parts.append((s[sv] * total, DurationPMF(pmf.offset, pmf.masses / total, 0.0)))
    grand = sum(wt for wt, _ in parts)
    if grand <= _TINY:
        raise ConditioningError(f"P[{winner} wins] underflowed")
    return _mix_pmfs([(wt / grand, p) for wt, p in parts])


def duration_pmf_unconditional(
    probs: RallyProbs,
    config: GameConfig,
    server: Player | None = None,
) -> DurationPMF:
    """PMF of D over all scores and winners (exact, zero truncation)."""
    validate(probs, config)
    _require_rallypoint(config)
    n = config.n
    servers = {server: 1.0} if server is not None else {Player.A: config.s_a, Player.B: config.s_b}
    masses = np.zeros(n)
    for sv, s_wt in servers.items():
        if s_wt == 0.0:
            continue
        a_win, b_win = kernel.terminal_weights(ScoringSystem.RALLY_POINT, probs, n, sv)
        masses += s_wt * (a_win + b_win)
    return DurationPMF(offset=n, masses=masses, truncation_bound=0.0)
