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
first servers.  The law given any event (first server, game winner),
either of which may be mixed out, is then a mixture of the per-tally laws
with the weights `event_weights` takes from one kernel evaluation of the
tallies' probabilities for both first servers.  The aggregate moments and
the PMFs read the system from the `GameConfig`.  An event of probability
zero has no conditional law: the aggregates leave it out, and only
`duration_pmf_winner`, which normalizes, raises `ConditioningError`.  The
PMFs build one exchange series per point total alpha + beta, shared by all
tallies and servers; `duration_pmfs_by_server_winner` gives the laws
jointly with the winner that the match pass composes.

Tie-break-extended games are out of scope here; compose tie probabilities
from `sideout` at a higher level if needed.
"""

from __future__ import annotations

import enum
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
    """Law of the interruption count R given a tally and last scorer.

    `pair_shift[i]` is the number of extra rally *pairs* contributed by
    rs[i] interruptions (r pairs when the first server scores last, r - 1
    when the receiver side does, the final transition being single).
    """

    rs: np.ndarray
    weights: np.ndarray
    pair_shift: np.ndarray

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
    # j is the power of q (pair shift); r = j + 1 when the receiver scores last
    shift = np.arange(int(rows.j0[0]), int(rows.top[0]) + 1)
    return InterruptionWeights(shift + int(last_scorer is Player.B), kernel.interruption_law(rows, q)[0], shift)


def mgf_conditional(alpha: int, beta: int, last_scorer: Player, q: float, t: float) -> float:
    """Moment generating function of D given the tally, the last scorer
    and first server A, evaluated at t.  Finite only while q*e^(2t) < 1.
    """
    if not (0.0 <= q < 1.0):
        raise DomainError(f"q={q} outside [0, 1)")
    qe = q * math.exp(2.0 * t)
    if qe >= 1.0:
        raise DomainError(f"MGF diverges: q*e^(2t) = {qe} >= 1")
    w = interruption_weights(alpha, beta, last_scorer, q)
    delta = 1 if last_scorer is Player.B else 0
    base = ((1.0 - q) * math.exp(t) / (1.0 - qe)) ** (alpha + beta)
    return base * float(np.dot(w.weights, np.exp(t * (2.0 * w.rs - delta))))


def _side_out_moments(points, receiver_last, q, one_minus_q, r_mean, r_var):
    """Exact conditional mean and variance of D given a side-out tally with
    `points` = alpha + beta, from the mean and variance of its interruption
    count R, elementwise over arrays; 1 - q is given apart from q since it
    cancels as q -> 1.  The mean is the shutout value points (1+q)/(1-q)
    plus twice the mean interruption count (minus one when the receiver
    side scores last); the variance is 4 points q/(1-q)^2 plus four times
    the interruption-count variance."""
    mean = points * (1.0 + q) / one_minus_q - receiver_last + 2.0 * r_mean
    return mean, 4.0 * points * q / one_minus_q**2 + 4.0 * r_var


def _conditional_moments(alpha: int, beta: int, last_scorer: Player, q: float, one_minus_q: float) -> Moments:
    """Exact conditional mean and variance of D for an A-game tally (see
    `_side_out_moments`)."""
    w = interruption_weights(alpha, beta, last_scorer, q)
    receiver_last = int(last_scorer is Player.B)
    return Moments(*_side_out_moments(alpha + beta, receiver_last, q, one_minus_q, w.mean(), w.variance()))


def expected_duration_conditional(alpha: int, beta: int, last_scorer: Player, q: float) -> float:
    """Exact conditional expectation of D (see `_conditional_moments`)."""
    return _conditional_moments(alpha, beta, last_scorer, q, 1.0 - q).mean


def variance_duration_conditional(alpha: int, beta: int, last_scorer: Player, q: float) -> float:
    """Exact conditional variance of D (see `_conditional_moments`)."""
    return _conditional_moments(alpha, beta, last_scorer, q, 1.0 - q).variance


def _exchange_pmf(m0: int, probs: RallyProbs, epsilon: float) -> tuple[np.ndarray, float]:
    """Negative-binomial law of the exchange count for m0 scored points,
    P[J = l] = binom(m0+l-1, l) q^l (1-q)^m0, and a bound on what it leaves out.

    The terms are running products of the ratios q(m0+l)/(l+1) in the
    rounded q, in chunks of the mean plus twelve standard deviations (which
    reach 1e-12 from m0 = 15 on).  The exact q enters through the base
    (1-q)^m0, with 1 - q = p_a + q_a p_b, and a factor exp(l (log q - log
    q_rounded)), both formed in extended precision.  The series stops at the
    first index past the peak where the geometric tail bound drops below
    epsilon times the accumulated mass; that bound uses the current term
    ratio, which decreases towards q, so it is certified.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be > 0")
    q = probs.q
    if q == 0.0:
        return np.array([1.0]), 0.0
    p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
    one_minus_q = p_a + (1.0 - p_a) * p_b
    base = float(one_minus_q**m0)
    if base <= 0.0:
        raise DomainError(f"q={q} too close to 1: exchange series underflows for {m0} points")
    drift = float(np.log1p(-p_a) + np.log1p(-p_b) - np.log(np.longdouble(q)))
    mean = m0 * q / float(one_minus_q)
    size = min(int(mean + 12.0 * math.sqrt(mean / float(one_minus_q))) + 64, 1 << 20)
    pieces, term, cum = [], base, 0.0
    for start in range(0, 10_000_000, size):
        l = np.arange(start, start + size, dtype=float)
        ratio = q * (m0 + l) / (l + 1.0)
        nxt = term * np.cumprod(ratio) * np.exp((l + 1.0 - start) * drift)
        terms = np.concatenate(([term], nxt[:-1]))
        total = cum + np.cumsum(terms)
        with np.errstate(divide="ignore"):
            tail = nxt / (1.0 - ratio)
        stop = np.flatnonzero((ratio < 1.0) & (tail <= epsilon * total))
        if stop.size:
            pieces.append(terms[: stop[0] + 1])
            return np.concatenate(pieces), float(tail[stop[0]])
        pieces.append(terms)
        term, cum = nxt[-1], total[-1]
    raise DomainError("exchange series failed to converge")


def _mixture_pmfs(
    system: ScoringSystem, rows: kernel.Rows, probs: RallyProbs, coef: np.ndarray, epsilon: float
) -> list[DurationPMF]:
    """Laws of D mixed over the tallies of `rows` (first-server
    coordinates), row r weighing coef[i, r] in mixture i.

    Given a side-out tally, D = alpha + beta + delta + 2(j + l), with delta
    = [receiver scores last], j the interruption pair shift and l the
    exchange count.  A row is one (m0 = alpha + beta, delta) group: its
    weighted interruption law is convolved once with the one series of its
    m0 and written at stride 2.  A rally-point tally is the point mass at
    alpha + beta: series [1.0], one interruption weight at shift 0."""
    m0 = rows.alpha + rows.beta
    if system is ScoringSystem.SIDE_OUT:
        law = kernel.interruption_law(rows, probs.q)
        delta, lo, hi = (~rows.server_last).astype(int), rows.j0, rows.top
        used = (coef > 0.0).any(axis=0)
        series = {m: _exchange_pmf(m, probs, epsilon) for m in set(m0[used].tolist())}
    else:
        law = np.ones((len(m0), 1))
        delta = lo = hi = np.zeros_like(m0)
        series = dict.fromkeys(m0.tolist(), (np.array([1.0]), 0.0))
    pmfs = []
    for c in coef:
        rs = np.flatnonzero(c > 0.0)
        start = int((m0 + delta)[rs].min())
        stop = max(int(m0[r] + delta[r] + 2 * (hi[r] + len(series[m0[r]][0])) - 1) for r in rs)
        masses = np.zeros(stop - start)
        for r in rs:
            pairs = np.convolve(c[r] * law[r, : hi[r] - lo[r] + 1], series[m0[r]][0])
            i = m0[r] + delta[r] + 2 * lo[r] - start
            masses[i : i + 2 * len(pairs) - 1 : 2] += pairs
        pmfs.append(DurationPMF(start, masses, float(sum(c[r] * series[m0[r]][1] for r in rs))))
    return pmfs


def duration_pmf_conditional(
    alpha: int,
    beta: int,
    last_scorer: Player,
    probs: RallyProbs,
    epsilon: float = 1e-12,
    server: Player = Player.A,
) -> DurationPMF:
    """Exact PMF of D given the tally, the last scorer and the first
    server, as the convolution of the interruption and exchange laws.

    Mass sits only on alpha+beta+2j when the first server scores last and
    on alpha+beta+2j+1 otherwise (the server-effect parity).
    """
    validate(probs)
    if server is not Player.A:
        alpha, beta, last_scorer = beta, alpha, last_scorer.other
    rows = kernel.tally(alpha, beta, last_scorer is Player.A)
    return _mixture_pmfs(ScoringSystem.SIDE_OUT, rows, probs, np.ones((1, 1)), epsilon)[0]


def _require_no_tiebreak(config: GameConfig) -> None:
    if config.tiebreak is not None:
        raise ConfigError("durations of tie-break-extended games are not supported")


def event_weights(weight: np.ndarray, servers, winner: Player | None = None) -> np.ndarray:
    """Unnormalized weight of each terminal tally of a game to n in the
    event (first server, winner).

    weight[i, r] is the probability of row r of `kernel.table(n)` when A
    (i = 0) or B (i = 1) serves first, optionally with a trailing axis of
    parameter points.  `servers` weighs the two first servers: (1, 0),
    (0, 1) or (s_a, s_b).  `winner` None keeps both winners.  The law of D
    given a tally depends on q alone, the same for both first servers, so
    the law of D given any event is the mixture of the rows' laws with
    these weights, and their sum is the probability of the event."""
    servers = np.reshape(servers, (2,) + (1,) * (weight.ndim - 1))
    if winner is not None:
        won = kernel.scored_last(weight.shape[1] // 2)[:, int(winner is Player.B)]
        weight = np.where(won.reshape(won.shape + (1,) * (weight.ndim - 2)), weight, 0.0)
    return (servers * weight).sum(axis=0)


def _row_moments(system: ScoringSystem, rows: kernel.Rows, r_mean, r_var, p_a, p_b):
    """Conditional mean and variance of D of every tally of `rows`, from
    the mean and variance of its interruption count (shape (rows, points))
    at the points of the arrays (p_a, p_b)."""
    d = (rows.alpha + rows.beta)[:, None].astype(float)
    if system is ScoringSystem.RALLY_POINT:
        return np.broadcast_to(d, r_mean.shape), np.zeros_like(r_mean)
    q_a = 1.0 - np.asarray(p_a)
    q = q_a * (1.0 - np.asarray(p_b))
    one_minus_q = p_a + q_a * p_b  # does not cancel as q -> 1
    receiver_last = (~rows.server_last)[:, None]
    return _side_out_moments(d, receiver_last, q, one_minus_q, r_mean, r_var)


def _mix(c: np.ndarray, mean: np.ndarray, var: np.ndarray):
    """Total weight, mean and variance of the mixture of the rows' laws
    (axis 0) with weights c; NaN moments where c carries no weight.  The
    variance sums each row's variance and squared deviation from the
    mixture mean, so it does not cancel when far below the squared mean."""
    total = c.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        m = (c * mean).sum(axis=0) / total
        v = (c * (var + (mean - m) ** 2)).sum(axis=0) / total
    return total, m, v


def _servers(config: GameConfig, server: Player | None) -> tuple[float, float]:
    """Weights of the two first servers: `server`, or (s_a, s_b) for None."""
    if server is None:
        return config.s_a, config.s_b
    return (1.0, 0.0) if server is Player.A else (0.0, 1.0)


def _game_rows(probs: RallyProbs, config: GameConfig):
    """The table of a game to n, weight[i, r] of its rows when A (i = 0)
    or B (i = 1) serves first, and the rows' duration moments, from one
    kernel evaluation.  The law of D given a tally depends on q alone, so
    the A-first evaluation gives the moments."""
    validate(probs, config)
    _require_no_tiebreak(config)
    rows = kernel.table(config.n)
    ev = kernel.evaluate_servers(config.system, rows, probs.p_a, probs.p_b)
    mean, var = _row_moments(config.system, rows, ev.r_mean[:, 0], ev.r_var[:, 0], probs.p_a, probs.p_b)
    return rows, ev.weight[:, :, 0].T, mean[:, 0], var[:, 0]


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
    overall."""
    _, weight, mean, var = _game_rows(probs, config)

    def mixture(server, winner) -> tuple[float, Moments | None]:
        total, m, v = _mix(event_weights(weight, _servers(config, server), winner), mean, var)
        return float(total), (Moments(float(m), float(v)) if total > _TINY else None)

    events = {(s, w): mixture(s, w) for s in Player for w in Player}
    by_server_winner = {event: m for event, (_, m) in events.items() if m is not None}
    by_winner = {w: m for w in Player if (m := mixture(None, w)[1]) is not None}
    by_server = {s: mixture(s, None)[1] for s in Player}
    win_probs = {event: total for event, (total, _) in events.items()}
    return DurationAggregates(by_server_winner, by_server, by_winner, mixture(None, None)[1], win_probs)


def _joint_pmfs(
    probs: RallyProbs, config: GameConfig, epsilon: float, events: list[tuple[Player | None, Player | None]]
) -> dict[tuple[Player | None, Player | None], tuple[DurationPMF, float]]:
    """Law of D jointly with each (first server, winner) of `events` that
    has positive probability, from one pass over the terminal tallies:
    {event: (law, probability of the event)}, the law's mass being that
    probability.  A server of None mixes both with weights (s_a, s_b), a
    winner of None both winners."""
    rows, weight, _, _ = _game_rows(probs, config)
    coef = {event: event_weights(weight, _servers(config, event[0]), event[1]) for event in events}
    coef = {event: c for event, c in coef.items() if c.sum() > 0.0}
    if not coef:
        return {}
    pmfs = _mixture_pmfs(config.system, rows, probs, np.array(list(coef.values())), epsilon)
    return {event: (pmf, float(c.sum())) for (event, c), pmf in zip(coef.items(), pmfs)}


def duration_pmf_winner(
    probs: RallyProbs,
    config: GameConfig,
    winner: Player,
    epsilon: float = 1e-12,
    server: Player | None = None,
) -> DurationPMF:
    """PMF of D under `config.system` conditional on the game winner;
    `server=None` mixes the first server out with the posterior weights
    given that winner.  Rally-point PMFs are exact (`epsilon` is unused and
    the truncation bound is zero)."""
    joint, total = _joint_pmfs(probs, config, epsilon, [(server, winner)]).get((server, winner), (None, 0.0))
    if total <= _TINY:
        raise ConditioningError(f"P[{winner} wins] underflowed")
    return DurationPMF(joint.offset, joint.masses / total, joint.truncation_bound / total)


def duration_pmfs_by_server_winner(
    probs: RallyProbs, config: GameConfig, epsilon: float = 1e-12
) -> dict[tuple[Player, Player], DurationPMF]:
    """Law of D jointly with the winner for each first server, sharing
    exchange series: {(first server, winner): law of mass P[winner |
    server]} over the pairs of positive probability."""
    events = [(server, winner) for server in Player for winner in Player]
    return {event: joint for event, (joint, _) in _joint_pmfs(probs, config, epsilon, events).items()}


def duration_pmf_unconditional(
    probs: RallyProbs,
    config: GameConfig,
    epsilon: float = 1e-12,
    server: Player | None = None,
) -> DurationPMF:
    """PMF of D under `config.system` mixed over all terminal scores and
    winners; `server=None` additionally mixes the first server with weights
    (s_a, s_b)."""
    return _joint_pmfs(probs, config, epsilon, [(server, None)])[(server, None)][0]


def quantile(pmf: DurationPMF, level: float, mode: QuantileMode = QuantileMode.STANDARD) -> float:
    """Quantile of a duration PMF.

    STANDARD returns the smallest support point whose CDF reaches `level`.
    INTERPOLATED inverts the piecewise-linear curve through the support
    points anchored at mid-jump CDF values (cumulative mass below a point
    plus half its own mass), clamped at the extremes; between two
    consecutive same-parity support points d and d+2 this interpolates
    linearly across the window, avoiding the empty parity class in
    between.
    """
    if not (0.0 < level < 1.0):
        raise DomainError(f"quantile level {level} outside (0, 1)")
    idx = np.nonzero(pmf.masses > 0.0)[0]
    if len(idx) == 0:
        raise ConditioningError("PMF carries no mass")
    support = pmf.offset + idx
    w = pmf.masses[idx]
    cdf = np.cumsum(w)
    if level > cdf[-1]:
        raise DomainError(
            f"level {level} unreachable: computed mass {cdf[-1]:.17g} "
            f"(truncation bound {pmf.truncation_bound:.3g})"
        )
    if mode is QuantileMode.STANDARD:
        return float(support[np.searchsorted(cdf, level)])
    mid = cdf - 0.5 * w
    if level <= mid[0]:
        return float(support[0])
    if level >= mid[-1]:
        return float(support[-1])
    i = int(np.searchsorted(mid, level)) - 1
    frac = (level - mid[i]) / (mid[i + 1] - mid[i])
    return float(support[i] + frac * (support[i + 1] - support[i]))
