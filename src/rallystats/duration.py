"""Distribution of the rally count D of a game under either scoring system.

Under side-out scoring, conditional on a final tally and the first server,
D decomposes into the points scored, the serve transitions of the
interruptions, and the exchanges.  The exchange count is
negative-binomial, the interruption count R has a finite combinatorial
weight law, and both enter D through twice their value.  This gives
closed-form conditional moments (depending on the rally probabilities only
through the exchange probability q) and an exact PMF as the convolution of
the two laws, with a certified truncation bound for the infinite exchange
series.  Under rally-point scoring every rally scores, so D = alpha + beta
given the tally.

The law of D given a tally depends on q alone, so it is the same for both
first servers.  Every game-level law reads the game table of `kernel.game`:
its terminal components, each with a weight per first server, the points
M and the law of the shift s, the rallies that are neither points nor
exchanges.  Given (M, s), D = M + s + 2L with L ~ NB(M, q), so the mean
of D is M + s + 2Mq/(1-q) and its variance 4Mq/(1-q)^2.  The law given
any event (first server, game winner), either of which may be mixed out,
or given an end score, is then a mixture over the components.  The
moments of every event come from one such mixture, for one point
(`aggregate_moments`) or a grid of points, with the same bits at a point
either way.  The aggregate moments and the PMFs read the system and the
tie-break from the `GameConfig`.  An event of probability zero has no
conditional law: the aggregates leave it out, and the laws that
normalize, `duration_pmf_winner` and the law given a score, raise
`ConditioningError`.

Every PMF comes from one engine.  `pre_exchange_laws` gives a game's law
before its exchanges, over (points, shift), jointly with the winner; a
game PMF mixes the laws of its events on one such array (a score PMF is a
one-row law, a match PMF the sum the match pass composes), and
`exchange_mixture` applies the exchange law once: a Horner pass over the
points of geometric filters, each a scan in scaled coordinates, over the
short head of the window that holds the law, and past it a closed form
of the head's last value after each pass, two matrix products.  Its
window and truncation bound come from the exchange series of the largest
point total, cut in closed form.  A tie-break game needs no other path:
the exchange counts of the tie stage and of the extension add up to one
negative binomial of the game's points.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import (
    ConditioningError,
    ConfigError,
    DomainError,
    GameConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    validate,
)

_TINY = 1e-300  # below this a conditioning event counts as underflowed
_MAX_TERMS = 10_000_000  # an exchange series this long counts as not converging


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class DurationPMF:
    """Dense PMF of a rally count, starting at `offset`.

    masses[i] is the probability of duration offset + i; structurally
    impossible durations (wrong parity) carry an exact 0.  The probability
    mass discarded when truncating an infinite series is bounded above by
    `truncation_bound`.
    """

    offset: int
    masses: np.ndarray
    truncation_bound: float

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative masses: cdf[i] is the probability of at most offset + i."""
        return np.cumsum(self.masses)

    def support(self) -> np.ndarray:
        return self.offset + np.nonzero(self.masses > 0.0)[0]

    def prob(self, d: int) -> float:
        i = d - self.offset
        if i < 0 or i >= len(self.masses):
            return 0.0
        return float(self.masses[i])

    def moments(self) -> Moments:
        total = self.total_mass
        if total <= _TINY:
            raise ConditioningError("PMF carries no mass")
        d = self.offset + np.arange(len(self.masses))
        mean = float(np.dot(d, self.masses)) / total
        # deviations about the mean: E[D^2] - E[D]^2 cancels when the
        # variance is far below the squared mean
        return Moments(mean, float(np.dot((d - mean) ** 2, self.masses)) / total)

    @property
    def mean(self) -> float:
        return self.moments().mean

    @property
    def variance(self) -> float:
        return self.moments().variance


class QuantileMode(enum.Enum):
    STANDARD = "standard"
    INTERPOLATED = "interpolated"


@dataclass(frozen=True)
class InterruptionWeights:
    """Law of the interruption count R given a tally and last scorer:
    weights[i] is the probability of rs[i] interruptions."""

    rs: np.ndarray
    weights: np.ndarray

    def mean(self) -> float:
        return float(np.dot(self.rs, self.weights))

    def variance(self) -> float:
        return float(np.dot((self.rs - self.mean()) ** 2, self.weights))


def interruption_weights(alpha: int, beta: int, last_scorer: Player, q: float) -> InterruptionWeights:
    """Normalized weights of the interruption count for an A-game tally.

    The minimal power of q is factored out before normalizing, so the
    weights are also defined at q = 0, where they become the q -> 0 limit
    (all mass on the fewest feasible interruptions).
    """
    if not (0.0 <= q < 1.0):
        raise DomainError(f"q={q} outside [0, 1)")
    rows = kernel.tally(alpha, beta, last_scorer is Player.A)
    # r = j + 1 when the receiver scores last, j the power of q
    rs = np.arange(int(rows.j0[0]), int(rows.top[0]) + 1) + int(last_scorer is Player.B)
    return InterruptionWeights(rs, kernel.interruption_law(rows, q)[0])


def mgf_conditional(alpha: int, beta: int, last_scorer: Player, q: float, one_minus_q: float, t: float) -> float:
    """Moment generating function of D given the tally, the last scorer
    and first server A, evaluated at t.  Finite only while q*e^(2t) < 1.
    1 - q is given apart from q since it cancels as q -> 1 (p_a + q_a p_b
    from the rally probabilities), and 1 - q e^(2t) is formed from it as
    (1 - q) - q (e^(2t) - 1)."""
    if not (0.0 <= q < 1.0):
        raise DomainError(f"q={q} outside [0, 1)")
    room = one_minus_q - q * math.expm1(2.0 * t)
    if room <= 0.0:
        raise DomainError(f"MGF diverges: q*e^(2t) = {q * math.exp(2.0 * t)} >= 1")
    w = interruption_weights(alpha, beta, last_scorer, q)
    delta = 1 if last_scorer is Player.B else 0
    base = (one_minus_q * math.exp(t) / room) ** (alpha + beta)
    return base * float(np.dot(w.weights, np.exp(t * (2.0 * w.rs - delta))))


def _given_shift(points, shift_mean, shift_var, q, one_minus_q):
    """Exact mean and variance of D given `points` scored and the mean and
    variance of the shift s, elementwise over arrays: given (M, s), D = M +
    s + 2L with L ~ NB(M, q), so E[D] = M (1+q)/(1-q) + s and Var[D] =
    4 M q/(1-q)^2.  1 - q is given apart from q since it cancels as q -> 1."""
    return points * (1.0 + q) / one_minus_q + shift_mean, 4.0 * points * q / one_minus_q**2 + shift_var


def _conditional_moments(alpha: int, beta: int, last_scorer: Player, q: float) -> Moments:
    """Exact conditional mean and variance of D for an A-game tally: the
    shift is 2R - delta, R the interruption count (see `_given_shift`)."""
    w = interruption_weights(alpha, beta, last_scorer, q)
    delta = int(last_scorer is Player.B)
    return Moments(*_given_shift(alpha + beta, 2.0 * w.mean() - delta, 4.0 * w.variance(), q, 1.0 - q))


def expected_duration_conditional(alpha: int, beta: int, last_scorer: Player, q: float) -> float:
    """Exact conditional expectation of D (see `_conditional_moments`)."""
    return _conditional_moments(alpha, beta, last_scorer, q).mean


def variance_duration_conditional(alpha: int, beta: int, last_scorer: Player, q: float) -> float:
    """Exact conditional variance of D (see `_conditional_moments`)."""
    return _conditional_moments(alpha, beta, last_scorer, q).variance


def _exact_q(probs: RallyProbs):
    """log q and 1 - q of the exchange probability q = q_a q_b, in extended
    precision (where the platform has it), so that each rounds the exact
    value; 1 - q is p_a + q_a p_b, which does not cancel as q -> 1."""
    p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
    return np.log1p(-p_a) + np.log1p(-p_b), p_a + (1.0 - p_a) * p_b


def _exchange_tail(m0: int, probs: RallyProbs):
    """The bound of the stop rule of the exchange series L ~ NB(m0, q),
    f(l) = C(m0-1+l, l) q^l (1-q)^m0, for m0 > 0 points at q > 0: the
    mode, the last s a series may reach, the exact 1 - q rounded, and
    log_tail(s, log_c), the log of f(s+1)/(1 - r(s)) with r(s) =
    q(m0+s)/(s+1) from log_c = log C(m0+s, s+1), plus its rounding error
    (inf where r(s) >= 1).  It is a sum of logs (of
    `kernel.log_exchange_binom`, and of `_exact_q`), so (1-q)^m0 may
    underflow."""
    q = probs.q
    log_q, keep = _exact_q(probs)
    log_q, log_keep, keep = float(log_q), float(np.log(keep)), float(keep)
    mode = int((m0 - 1) * q / keep)
    if mode >= _MAX_TERMS:
        raise DomainError("exchange series failed to converge")
    ulp = np.finfo(float).eps

    def log_tail(s, log_c: float) -> float:
        # m0 ulps of log C, two of each part and of the condition of `room`
        room = (s + 1) * keep - (m0 - 1) * q  # (s + 1)(1 - r(s))
        if room <= 0.0:
            return math.inf
        parts = (log_c, m0 * log_keep, (s + 1) * log_q, -math.log(room / (s + 1)))
        cond = ((s + 1) * keep + (m0 - 1) * q) / room
        return sum(parts) + ulp * (m0 * log_c + 2.0 * sum(map(abs, parts)) + 2.0 * cond + 4.0)

    return mode, mode + _MAX_TERMS, keep, log_tail


def _exchange_cut(m0: int, probs: RallyProbs, epsilon: float) -> tuple[int, float]:
    """Length of the exchange series L ~ NB(m0, q) and a bound on what it
    leaves out: it stops at the first s from the mode where r(s) < 1 and
    f(s+1)/(1 - r(s)) <= epsilon (`_exchange_tail`).  Past the mode r
    falls, so that tail bounds P[L > s] and falls with s: Newton steps
    with lgamma guess s, and a bracket grown from it and bisected finds
    it.  NB(m0) sums to 1, so a tail bounds a probability."""
    q = probs.q
    if q == 0.0 or m0 == 0:
        return 1, 0.0
    mode, limit, keep, log_tail = _exchange_tail(m0, probs)

    tails: dict[int, float] = {}

    def tail(s: int) -> float:
        if s not in tails:
            tails[s] = math.exp(log_tail(s, float(kernel.log_exchange_binom(m0, [s + 1])[0, -1]))) if s >= mode else math.inf
        return tails[s]

    x = mode + math.sqrt(m0 * q) / keep
    for _ in range(64):
        value = log_tail(x, math.lgamma(m0 + x + 1) - math.lgamma(x + 2) - math.lgamma(m0))
        room = (x + 1) * keep - (m0 - 1) * q
        if not room > 0.0:
            break
        # the slope of log f, log r(x + 1/2), and of -log(1 - r), which
        # dominates near the mode, where large epsilons stop
        slope = math.log(q * (m0 + x + 0.5) / (x + 1.5)) - keep / room + 1.0 / (x + 1)
        step = (value - math.log(epsilon)) / -slope
        if not abs(step) >= 0.25:
            break
        x = min(max(x + step, mode), limit)
    # the first stop lies in (lo, hi]: grow that bracket, then bisect it
    lo, hi, step = math.ceil(x) - 1, math.ceil(x), 1
    while tail(hi) > epsilon:
        if hi == limit:
            raise DomainError("exchange series failed to converge")
        lo, hi, step = hi, min(hi + step, limit), 2 * step
    while tail(lo) <= epsilon:
        lo, hi, step = max(lo - step, mode - 1), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail(mid) <= epsilon else (mid, hi)
    return hi + 1, tail(hi)


def duration_pmf_conditional(
    alpha: int,
    beta: int,
    last_scorer: Player,
    probs: RallyProbs,
    epsilon: float = 1e-12,
    server: Player = Player.A,
) -> DurationPMF:
    """Exact PMF of D given the tally, the last scorer and the first
    server, as the convolution of the interruption and exchange laws: the
    one-row law of alpha + beta points and delta + 2j other rallies through
    `exchange_mixture`.

    Mass sits only on alpha+beta+2j when the first server scores last and
    on alpha+beta+2j+1 otherwise (the server-effect parity).
    """
    validate(probs)
    if server is not Player.A:
        alpha, beta, last_scorer = beta, alpha, last_scorer.other
    law = kernel.shift_laws(ScoringSystem.SIDE_OUT, kernel.tally(alpha, beta, last_scorer is Player.A), probs.q)
    return exchange_mixture(alpha + beta, law, probs, ScoringSystem.SIDE_OUT, epsilon)


def _mix(c: np.ndarray, mean: np.ndarray, var: np.ndarray):
    """Total weight, mean and variance of the mixture of the components'
    laws (axis 0) with weights c; NaN moments where the total is at most
    1e-300, an event that counts as vanished.  The variance sums each
    component's variance and squared deviation from the mixture mean, so it
    does not cancel when far below the squared mean.  Each sum over the
    components is a running sum, in one order whatever the number of points
    (NumPy sums a lone point's rows pairwise), so a point gets the same bits
    alone as in a grid."""
    total = np.add.accumulate(c)[-1]
    kept = np.where(total > _TINY, total, np.nan)
    m = np.add.accumulate(c * mean)[-1] / kept
    return total, m, np.add.accumulate(c * (var + (mean - m) ** 2))[-1] / kept


def _servers(config: GameConfig, server: Player | None) -> tuple[float, float]:
    """Weights of the two first servers: `server`, or (s_a, s_b) for None."""
    return (config.s_a, config.s_b) if server is None else (float(server is Player.A), float(server is Player.B))


def _moments(config: GameConfig, game: kernel.Game, p_a, p_b):
    """Mean and variance of D given each component of the game table, each
    (components, points), with the exact 1 - q = p_a + q_a p_b; rally-point
    games have no exchanges."""
    q, one_minus_q = 0.0, 1.0
    if config.system is ScoringSystem.SIDE_OUT:
        q_a = 1.0 - np.asarray(p_a)
        q, one_minus_q = q_a * (1.0 - np.asarray(p_b)), p_a + q_a * p_b
    return _given_shift((game.alpha + game.beta)[:, None], game.shift_mean, game.shift_var, q, one_minus_q)


# which ends a winner takes, from A's and B's points: at an end they differ
_WON = {Player.A: np.greater, Player.B: np.less, None: np.not_equal}


def _in_event(game: kernel.Game, servers, keep) -> np.ndarray:
    """Weight of each component of the game table in an event, (components,
    points): `servers` weighs the two first servers, (1, 0), (0, 1) or
    (s_a, s_b), and keep(A's points, B's points) says which components
    count.  Its sum over the components is the probability of the event."""
    return sum(wt * np.where(keep(*game.scores(i))[:, None], game.weight[:, i], 0.0) for i, wt in enumerate(servers))


_EVENTS = tuple(itertools.product((*Player, None), repeat=2))


def _event_moments(config: GameConfig, p_a, p_b, events=_EVENTS):
    """Probability, mean and variance of D of each of the `events` (first
    server, winner) of a game, either of which None mixes out (the first
    server with weights (s_a, s_b)), at each point of the arrays (p_a,
    p_b): {event: (probability, mean, variance)}, each of shape (points,).
    Each event mixes the components of the game table, adding them in one
    order whatever the number of points, so a point gets the same bits
    alone as in a grid.  An event of probability at most 1e-300 counts as
    vanished: its moments are NaN."""
    game = kernel.game(config, p_a, p_b)
    mean, var = _moments(config, game, p_a, p_b)
    return {(s, w): _mix(_in_event(game, _servers(config, s), _WON[w]), mean, var) for s, w in events}


@dataclass(frozen=True)
class DurationAggregates:
    """Moments of D aggregated over scores, winners and servers.

    Keys of `by_server_winner` are (first server, game winner); `by_winner`
    mixes the first server out with the posterior server weights given the
    winner, and `overall` is unconditional on everything.  An event of
    probability zero (or below 1e-300) has no moments and no entry in
    `by_server_winner` or `by_winner`; `win_probs` lists every (first
    server, winner) pair.
    """

    by_server_winner: dict[tuple[Player, Player], Moments]
    by_server: dict[Player, Moments]
    by_winner: dict[Player, Moments]
    overall: Moments
    win_probs: dict[tuple[Player, Player], float]


def aggregate_moments(probs: RallyProbs, config: GameConfig) -> DurationAggregates:
    """Expectation and variance of D under `config.system` for every
    conditioning level: per (server, winner), per server, per winner, and
    overall.  These are the `_event_moments` of the one point."""
    validate(probs, config)
    events = _event_moments(config, probs.p_a, probs.p_b)
    moments = {e: Moments(float(m[0]), float(v[0])) for e, (_, m, v) in events.items() if not np.isnan(m[0])}
    return DurationAggregates(
        by_server_winner={(s, w): moments[(s, w)] for s in Player for w in Player if (s, w) in moments},
        by_server={s: moments.get((s, None)) for s in Player},
        by_winner={w: moments[(None, w)] for w in Player if (None, w) in moments},
        overall=moments.get((None, None)),
        win_probs={(s, w): float(events[(s, w)][0][0]) for s in Player for w in Player},
    )


def _event_law(probs: RallyProbs, config: GameConfig, server: Player | None, winner: Player | None) -> np.ndarray:
    """A game's law before its exchanges jointly with the event (first
    server, winner), as law[points - n, shift] with shift = delta + 2j: the
    `pre_exchange_laws` of the event's (first server, winner) pairs, a
    server of None mixing both with weights (s_a, s_b) and a winner of
    None both winners.  Its sum is the probability of the event."""
    weights = dict(zip(Player, _servers(config, server)))
    laws = pre_exchange_laws(probs, config)
    rows, span = next(iter(laws.values()))[2].shape
    law = np.zeros((rows, 2 * rows))  # j <= k
    for (first, won), (_, delta, sub) in laws.items():
        if winner in (None, won):
            law[:, delta : delta + 2 * span : 2] += weights[first] * sub
    return law


def duration_pmf_winner(
    probs: RallyProbs,
    config: GameConfig,
    winner: Player,
    epsilon: float = 1e-12,
    server: Player | None = None,
) -> DurationPMF:
    """PMF of D under `config.system` conditional on the game winner;
    `server=None` mixes the first server out with the posterior weights
    given that winner.  Rally-point PMFs are exact (the truncation bound is
    zero)."""
    law = _event_law(probs, config, server, winner)
    total = float(law.sum())
    if total <= _TINY:
        raise ConditioningError(f"P[{winner} wins] underflowed")
    return exchange_mixture(config.n, law / total, probs, config.system, epsilon)


def duration_pmf_unconditional(
    probs: RallyProbs,
    config: GameConfig,
    epsilon: float = 1e-12,
    server: Player | None = None,
) -> DurationPMF:
    """PMF of D under `config.system` mixed over all terminal scores and
    winners; `server=None` additionally mixes the first server with weights
    (s_a, s_b)."""
    return exchange_mixture(config.n, _event_law(probs, config, server, None), probs, config.system, epsilon)


def pre_exchange_laws(
    probs: RallyProbs, config: GameConfig
) -> dict[tuple[Player, Player], tuple[int, int, np.ndarray]]:
    """A game's law before its exchanges, jointly with the winner, for each
    (first server, winner) of positive probability: {event: (n, delta,
    law)} with law[k, j] the probability, given the first server, that the
    winner takes the game with n + k points scored and delta + 2j other
    rallies: delta = [the receiver wins] is fixed by the event, tie-breaks
    included, j is the interruption pair shift, and j <= k.  The laws of
    all events have one shape.

    The rallies of the game are then n + k + delta + 2j + 2L with L ~
    NB(n + k, q), and the exchange counts of independent games add:
    `exchange_mixture` applies them once to any sum of such laws.  A
    rally-point law has delta = 0, the one column j = 0 and no exchanges."""
    validate(probs, config)
    game = kernel.game(config, probs.p_a, probs.p_b)
    shifts, k = game.shift_laws(probs.q), game.alpha + game.beta - config.n
    span = (shifts.shape[1] + 1) // 2
    laws = {}
    for (i, server), winner in itertools.product(enumerate(Player), Player):
        c = np.where(_WON[winner](*game.scores(i)), game.weight[:, i, 0], 0.0)
        if c.any():
            delta = int(winner is not server and config.system is ScoringSystem.SIDE_OUT)
            part = c[:, None] * shifts[:, delta::2]
            # components of one points total add up in their row k
            cells = k[:, None] * span + np.arange(part.shape[1])
            law = np.bincount(cells.ravel(), part.ravel(), (int(k.max()) + 1) * span).reshape(-1, span)
            laws[(server, winner)] = (config.n, delta, law)
    return laws


def _score_law(probs: RallyProbs, config: GameConfig, server: Player, score) -> tuple[kernel.Game, np.ndarray]:
    """The game table and the weight of each component in the law given
    that a game first served by `server` ends at `score` (A's points, B's
    points), summing to 1: one component, or two for an end of a
    tie-break's extension, reached by either tying scorer."""
    validate(probs, config)
    game = kernel.game(config, probs.p_a, probs.p_b)
    if tuple(score) not in zip(game.alpha.tolist(), game.beta.tolist()):
        raise ConfigError(f"score {score[0]},{score[1]} is not an end score of a game to {config.n}")
    c = _in_event(game, _servers(config, server), lambda a, b: (a == score[0]) & (b == score[1]))[:, 0]
    if c.sum() <= _TINY:
        raise ConditioningError(f"P[score {score[0]},{score[1]}] underflowed")
    return game, c / c.sum()


def _score_moments(probs: RallyProbs, config: GameConfig, server: Player, score) -> Moments:
    """Mean and variance of D given an end score (see `_score_law`)."""
    game, c = _score_law(probs, config, server, score)
    _, mean, var = _mix(c[:, None], *_moments(config, game, probs.p_a, probs.p_b))
    return Moments(float(mean[0]), float(var[0]))


def _score_pmf(probs: RallyProbs, config: GameConfig, server: Player, score, epsilon: float) -> DurationPMF:
    """PMF of D given an end score (see `_score_law`): the mixed shift law
    of its points through `exchange_mixture`."""
    game, c = _score_law(probs, config, server, score)
    law = (c[:, None] * game.shift_laws(probs.q))[c > 0.0].sum(axis=0)
    return exchange_mixture(sum(score), law[None], probs, config.system, epsilon)


def exchange_mixture(
    points: int, law: np.ndarray, probs: RallyProbs, system: ScoringSystem, epsilon: float = 1e-12
) -> DurationPMF:
    """Law of D = M + s + 2L from a law before exchanges: law[M - points, s]
    weighs M points scored and s other rallies, and L ~ NB(M, q) given M.

    NB(M, q) is M geometric exchange counts, so the law is a Horner pass
    over M of the filter y[d] = q y[d-2] + (1-q) x[d]: from the largest M
    down, filter what has been gathered and add the rallies of the next M.
    Every entry of the law lies in a short head of the window (points + r
    rallies, r = M - points + s <= 43 for a game to 15), past which a pass
    adds nothing, only filters.  So the passes run over the head alone, as
    a scaled scan along each parity class (`_GeometricFilter`), and the
    rest of the window is the closed form of the head's last value after
    each pass (`_GeometricFilter.tail`).  The window ends where the
    component with the most rallies before exchanges still keeps the length
    of the series for the largest M cut by `_exchange_cut`; every component
    keeps at least that many exchange counts, and NB(M) lies below NB(M')
    for M <= M', so the mass times that series' tail bounds what the window
    leaves out.  Rally-point laws, and side-out laws at q = 0, have no
    exchanges: D = M + s exactly."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon}")
    k, s = np.nonzero(law > 0.0)
    if not k.size:
        raise ConditioningError("law carries no mass")
    top, exchanges = points + int(k.max()), system is ScoringSystem.SIDE_OUT and probs.q > 0.0
    length, tail = _exchange_cut(top, probs, epsilon) if exchanges else (1, 0.0)
    r = k + s  # rallies points + r before exchanges, of which the window holds r >= lo
    lo, last = int(r.min()), int(r.max())
    bins = last - lo + 2 * (length - 1) + 1
    if not exchanges:
        return DurationPMF(points + lo, np.bincount(r - lo, law[k, s], bins), 0.0)
    law = law[: top - points + 1, : int(s.max()) + 1]
    head = last // 2 + 1  # t = r // 2 of both parity classes up to the law's last r
    filt = _GeometricFilter(probs, (len(law) + law.shape[1]) // 2, head - 1, top)
    lifted, width = filt.place(law), law.shape[1]
    for m in range(top, 0, -1):
        if m >= points:
            filt.flat[m - points : m - points + width] += lifted[m - points]
        filt()
    # the window is t < head + length - 1, in columns of c t past the head
    c = filt.columns(length - 1)
    blocks = -(-(length - 1) // c)
    out = np.empty(2 * (head + blocks * c))
    out[: 2 * head] = filt.unscale()[: 2 * head]
    filt.tail(out[2 * head :].reshape(blocks, 2 * c))
    return DurationPMF(points + lo, out[lo : lo + bins], float(law.sum()) * tail)


class _GeometricFilter:
    """y[t] = q y[t-1] + (1-q) x[t] along both parity classes of the
    rallies, with the exact 1 - q = p_a + q_a p_b, as a scan of an
    accumulator it holds, and the closed form of what its passes carry past
    the accumulator.

    Layout: acc[b, i, e] holds t = bG + i of parity class e, so that `flat`
    is in rally order r = 2t + e.  Scale: a value at t is kept times q^-i,
    a factor below e^350 over a block of G.  In these coordinates the
    filter is (1-q) times a prefix sum within each block, and each block
    gets the carry K = q y[t0 - 1] / (1 - q) of the block before it, which
    is q^G times that block's last value.  A pass leaves out the factor
    1 - q: after e passes values are kept times (1-q)^-e, and `unscale`, or
    the pass that takes the power to e^(700 - 350), multiplies it back in.
    Each of its `passes` passes keeps the value at t = `last` for `tail`."""

    _RANGE = 350.0
    _HEADROOM = 700.0  # e^700 is below the largest double, e^-700 above the least normal one

    def __init__(self, probs: RallyProbs, length: int, last: int, passes: int):
        log_q, keep = _exact_q(probs)  # keep = 1 - q
        self.reach = max(1, int(self._RANGE / -float(log_q)))  # t over which q^-t stays below e^350
        g = min(length, self.reach)  # t of a scale block
        self.acc = np.zeros((-(-length // g), g, 2))
        self.flat = self.acc.reshape(-1)
        self.down = np.exp(np.arange(g) * log_q).astype(float)  # q^i
        self.hop = float(np.exp(g * log_q))  # q^G
        self.log_q, self.keep = float(log_q), float(keep)
        log_keep = np.log(keep)
        self.span = max(1, int(min((self._HEADROOM - self._RANGE) / max(-float(log_keep), 1e-300), _MAX_TERMS)))
        self.power = np.exp(np.arange(min(passes, self.span) + 1) * log_keep).astype(float)  # (1-q)^e
        self.unfolded = 0  # passes since the last fold: values are kept times (1-q)^-unfolded
        self.last, self.last_down = self.acc.reshape(-1, 2)[last], self.down[last % g]
        self.kept, self.count = np.empty((passes, 2)), 0

    def place(self, law: np.ndarray) -> np.ndarray:
        """law[k, s] scaled to its place r = k + s and by (1-q)^-e for row k,
        added after the passes of the rows above it, e of them since the
        last fold."""
        i = np.add.outer(np.arange(len(law)), np.arange(law.shape[1])) // 2 % len(self.down)
        return law / (self.power[np.arange(len(law))[::-1] % self.span, None] * self.down[i])

    def __call__(self) -> None:
        """Filter the accumulator in place."""
        acc = self.acc
        np.add.accumulate(acc, axis=1, out=acc)
        for b in range(1, len(acc)):
            acc[b] += self.hop * acc[b - 1, -1]
        self.unfolded += 1
        if self.unfolded == self.span:
            acc *= self.power[self.span]
            self.unfolded = 0
        self.kept[self.count] = self.last
        self.count += 1

    def unscale(self) -> np.ndarray:
        """The accumulator's values in rally order."""
        self.acc *= (self.down * self.power[self.unfolded])[:, None]
        return self.flat

    def columns(self, length: int) -> int:
        """The t per column of `tail` over `length` t: about twice the square
        root, so that the factors of the columns and of the rows cost about
        the same, or all of a tail of up to 64 t, whose cost is in the count
        of array operations rather than their size; at most a scale block."""
        return max(1, min(length, self.reach, max(2 * math.isqrt(length), 64)))

    def tail(self, out: np.ndarray) -> None:
        """The values the passes leave past t = `last`, in rally order.

        After the pass that leaves r passes to go, the value at `last` is
        s[r] (per parity class); past it the input of every pass is zero,
        so tau >= 1 past `last` the passes leave R[tau] = sum_r s[r] q^tau
        (1-q)^r C(tau+r-1, r): the value carried on by q^tau, then r passes
        each of which convolves with (1-q) q^u.  With tau = 1 + bc + i
        (column b, row i < c) and C(tau+r-1, r) = sum_j C(bc+j-1, j)
        C(i+r-j, r-j), R = (P Hankel(s)) Q with P[b, j] = q^(bc) (1-q)^j
        C(bc+j-1, j) and Q[u, i] = q^(1+i) (1-q)^u C(i+u, u): negative-
        binomial terms in [0, 1] built by their term ratios from log q,
        summed from log1p, and the exact 1 - q, so that every sum is of
        nonnegative terms.  Row b of P Hankel(s) is the s of t = `last` +
        bc, so the columns run in scale blocks, each from the s the one
        before it leaves, and q^(bc) stays above e^-350.  `out` is
        (columns, 2c) with out[b, 2i + e] = R[1 + bc + i] of class e, which
        the product writes through a block-diagonal Q."""
        top, (blocks, c) = len(self.kept), (len(out), out.shape[1] // 2)
        if not blocks:
            return
        s = np.zeros((2 * top - 1, 2))
        hankel = np.ndarray((top, 2 * top), float, s, 0, (s.strides[0], s.itemsize))  # [j, 2u + e] = s[j + u, e]
        # the value after pass n of top was kept times (1-q)^-(n % span)
        s[top - 1 :: -1] = self.kept * (self.last_down * self.power[np.arange(1, top + 1) % self.span])[:, None]
        j, bc = np.arange(1.0, top), np.arange(0.0, (min(blocks, max(1, self.reach // c)) + 1) * c, c)
        ratio = self.keep / j
        pm = np.empty((len(bc), top))
        pm[:, 0] = np.exp(bc * self.log_q)
        pm[:, 1:] = np.add.outer(bc, j - 1.0) * ratio
        np.multiply.accumulate(pm, axis=1, out=pm)
        qm = np.zeros((top, 2, c, 2))
        row = qm[:, 0, :, 0]
        row[0] = np.exp(np.arange(1.0, c + 1) * self.log_q)
        row[1:] = np.add.outer(j, np.arange(c)) * ratio[:, None]
        np.multiply.accumulate(row, out=row)
        qm[:, 1, :, 1] = row
        per = len(bc) - 1  # columns of a scale block
        for b in range(0, blocks, per):
            n = min(per, blocks - b)
            cols = pm[: n + 1] @ hankel
            np.matmul(cols[:n], qm.reshape(2 * top, 2 * c), out=out[b : b + n])
            s[:top] = cols[n].reshape(top, 2)


def quantile(pmf: DurationPMF, level: float, mode: QuantileMode = QuantileMode.STANDARD) -> float:
    """Quantile of a duration PMF.

    STANDARD returns the smallest support point whose CDF reaches `level`:
    the first bin whose CDF reaches it, which always carries mass.
    INTERPOLATED inverts the piecewise-linear curve through the support
    points anchored at mid-jump CDF values (cumulative mass below a point
    plus half its own mass), clamped at the extremes; between two
    consecutive same-parity support points d and d+2 this interpolates
    linearly across the window, avoiding the empty parity class in
    between.  Both read the PMF's one cached CDF.
    """
    if not (0.0 < level < 1.0):
        raise DomainError(f"quantile level {level} outside (0, 1)")
    cdf = pmf.cdf
    if not len(cdf) or cdf[-1] <= 0.0:
        raise ConditioningError("PMF carries no mass")
    if level > cdf[-1]:
        raise DomainError(
            f"level {level} unreachable: computed mass {cdf[-1]:.17g} "
            f"(truncation bound {pmf.truncation_bound:.3g})"
        )
    if mode is QuantileMode.STANDARD:
        return float(pmf.offset + np.searchsorted(cdf, level))
    idx = np.flatnonzero(pmf.masses > 0.0)
    support, w = pmf.offset + idx, pmf.masses[idx]
    mid = cdf[idx] - 0.5 * w
    if level <= mid[0]:
        return float(support[0])
    if level >= mid[-1]:
        return float(support[-1])
    i = int(np.searchsorted(mid, level)) - 1
    frac = (level - mid[i]) / (mid[i + 1] - mid[i])
    return float(support[i] + frac * (support[i + 1] - support[i]))
