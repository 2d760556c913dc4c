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

Every law of a game reads the game table of `kernel.game`: its terminal
components, each with a weight per first server, the points M and the law
of the shift s, the rallies that are neither points nor exchanges.  Given
(M, s), D = M + s + 2L with L ~ NB(M, q), so the mean of D is M + s +
2Mq/(1-q) and its variance 4Mq/(1-q)^2.  The law given any event (first
server, game winner), either of which may be mixed out, or given an end
score (`score_moments`, `score_pmf`), is then a mixture over the
components, weighted as `kernel.Game.event` selects them.  The moments of
every event come from one such mixture, for one point
(`aggregate_moments`) or a grid of points (`grid_moments`), with the same
bits at a point either way.  Every law reads the system, the tie-break
and the first server from the `GameConfig`, and mixes the first server
with (s_a, s_b), so s_a = 1 or 0 states it.  Given an end score and a stated first server,
the law depends on the rally probabilities through q alone.  An event of
probability zero has no conditional law: the aggregates leave it out, and
the laws that normalize, `duration_pmf_winner` and the laws given a
score, raise `ConditioningError`.  The probability of an event, and so
what every law given it divides by, is the kernel's one sum of the
event's component weights (`kernel.total`): P[winner] has the bits of
`sideout.game_win_probs` in the moments and the PMFs alike.  The moment
generating function given an end score (`score_mgf`) reads the same
mixture of shift laws as `score_pmf`.

Every PMF comes from one engine.  A game's law before its exchanges
jointly with an event, law[k, s] over n + k points scored and the shift
s on the shift axis of the game table, is one `np.bincount` of the
event's component weights (`_pre_exchange`): `pre_exchange_laws` gives
it for each (first server, winner), and a game PMF for its winner with
the first server weighed by (s_a, s_b) (a score PMF is a one-row law, a
match PMF the sum the match pass composes), and
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
import numbers
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
    TerminalScore,
    expect,
    validate,
)

_TINY = 1e-300  # below this a conditioning event counts as underflowed
_MAX_TERMS = 10_000_000  # an exchange series this long counts as not converging
_CHUNK = 1 << 13  # bins per CDF checkpoint of a DurationPMF
_CUMSUM_BLOCK = 1 << 16  # bins accumulated at once when the checkpoints are built


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def _running_sum(masses: np.ndarray, carry: float, buf: np.ndarray | None = None) -> np.ndarray:
    """carry + masses[0], carry + masses[0] + masses[1], ..., each sum
    rounded in turn as np.cumsum rounds them: the running sum goes on from
    `carry` with the bits it has over the whole array.  Formed in `buf`
    (at least one longer than `masses`) when given."""
    out = np.empty(len(masses) + 1) if buf is None else buf[: len(masses) + 1]
    out[0], out[1:] = carry, masses
    return np.add.accumulate(out, out=out)[1:]


@dataclass(frozen=True)
class DurationPMF:
    """Dense PMF of a rally count, starting at `offset`.

    masses[i] is the probability of duration offset + i; structurally
    impossible durations (wrong parity) carry an exact 0.  The probability
    mass discarded when truncating an infinite series is bounded above by
    `truncation_bound`.  Quantiles read the CDF through checkpoints, one
    per chunk of 2^13 bins (`chunk_cdf`), so they keep O(bins / 2^13)
    values rather than a PMF-sized CDF.  An offset that is not an integer
    >= 0, masses that are not a 1-d float array and a bound that is not a
    finite real >= 0 raise DomainError; the masses are not scanned.
    """

    offset: int
    masses: np.ndarray
    truncation_bound: float

    def __post_init__(self):
        if expect(self.offset, numbers.Integral, "offset") < 0:
            raise DomainError(f"offset={self.offset} must be >= 0")
        masses = self.masses
        if not (isinstance(masses, np.ndarray) and masses.ndim == 1 and masses.dtype.kind == "f"):
            raise DomainError(f"masses must be a 1-d array of floats, got {type(masses).__name__} {np.shape(masses)}")
        if not 0.0 <= expect(self.truncation_bound, numbers.Real, "truncation_bound") < math.inf:
            raise DomainError(f"truncation_bound={self.truncation_bound} must be finite and >= 0")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @functools.cached_property
    def checkpoints(self) -> np.ndarray:
        """The CDF at the last bin of each chunk of `_CHUNK` bins (the last
        chunk may be shorter), with the bits of np.cumsum(masses): the
        masses are accumulated in blocks of whole chunks, each onto the
        running sum the block before it leaves."""
        chunk, ends, carry = _CHUNK, [np.zeros(0)], 0.0
        block = chunk * max(1, _CUMSUM_BLOCK // chunk)
        # one buffer for all blocks: a fresh one would fault in its pages
        # each time, which costs as much as the sums
        buf = np.empty(min(block, len(self.masses)) + 1)
        for lo in range(0, len(self.masses), block):
            cdf = _running_sum(self.masses[lo : lo + block], carry, buf)
            ends.append(cdf[chunk - 1 :: chunk].copy())
            carry = cdf[-1]
        if len(self.masses) % chunk:
            ends.append(np.array([carry]))
        return np.concatenate(ends)

    def chunk_cdf(self, b: int) -> np.ndarray:
        """The CDF over chunk b, bit for bit np.cumsum(masses) there: the
        chunk's masses accumulated onto the checkpoint before it.  A b that
        is not the index of a chunk raises DomainError."""
        if not 0 <= expect(b, numbers.Integral, "b") < -(-len(self.masses) // _CHUNK):
            raise DomainError(f"b={b} is not a chunk of {len(self.masses)} bins")
        return _running_sum(self.masses[b * _CHUNK : (b + 1) * _CHUNK], self.checkpoints[b - 1] if b else 0.0)

    def support(self) -> np.ndarray:
        out = np.flatnonzero(self.masses)
        out += self.offset
        return out

    def prob(self, d: int) -> float:
        """P[D = d], 0 outside the bins; DomainError for a d that is not an
        integer."""
        i = expect(d, numbers.Integral, "d") - self.offset
        if i < 0 or i >= len(self.masses):
            return 0.0
        return float(self.masses[i])

    def moments(self) -> Moments:
        total = self.total_mass
        if not math.isfinite(total):
            raise DomainError(f"PMF mass {total} is not finite")
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


def _exact_q(probs: RallyProbs):
    """log q and 1 - q (`kernel.one_minus_q`) of the exchange probability
    q = q_a q_b, in extended precision (where the platform has it), so
    that each rounds the exact value."""
    p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
    return np.log1p(-p_a) + np.log1p(-p_b), kernel.one_minus_q(p_a, p_b)


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


def _reals(values, ndim: int, name: str) -> np.ndarray:
    """`values` as an `ndim`-d array of floats; DomainError for any other
    shape, or for values that are not reals."""
    out = np.asarray(values)
    if out.ndim != ndim or out.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a {ndim}-d array of reals, not {out.dtype} of shape {out.shape}")
    return out.astype(float, copy=False)


def _mix(c: np.ndarray, mean: np.ndarray, var: np.ndarray):
    """Total weight, mean and variance of the mixture of the components'
    laws (axis 0) with weights c; NaN moments where the total is at most
    1e-300, an event that counts as vanished.  The variance sums each
    component's variance and squared deviation from the mixture mean, so it
    does not cancel when far below the squared mean.  Each sum over the
    components is the kernel's sum of an event's weights (`kernel.total`),
    so the total is the event's probability, and a point gets the same
    bits alone as in a grid."""
    total = kernel.total(c)
    kept = np.where(total > _TINY, total, np.nan)
    m = kernel.total(c * mean) / kept
    return total, m, kernel.total(c * (var + (mean - m) ** 2)) / kept


def _moments(config: GameConfig, game: kernel.Game, p_a, p_b):
    """Mean and variance of D given each component of the game table, each
    (components, points): given M points and the shift s, D = M + s + 2L
    with L ~ NB(M, q), so E[D] = M (1+q)/(1-q) + E[s] and Var[D] = 4 M
    q/(1-q)^2 + Var[s], with the exact 1 - q (`kernel.one_minus_q`);
    rally-point games have no exchanges."""
    q, keep = 0.0, 1.0
    if config.system is ScoringSystem.SIDE_OUT:
        q, keep = (1.0 - np.asarray(p_a)) * (1.0 - np.asarray(p_b)), kernel.one_minus_q(p_a, p_b)
    points = (game.alpha + game.beta)[:, None]
    return points * (1.0 + q) / keep + game.shift_mean, 4.0 * points * q / keep**2 + game.shift_var


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
    return {(s, w): _mix(game.event(kernel.servers(config, s), kernel.WON[w]), mean, var) for s, w in events}


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


def grid_moments(config: GameConfig, p_a, p_b) -> dict[Player | None, tuple[tuple[float, ...], ...]]:
    """Probability, mean and standard deviation of D given the winner at
    each point of the grid (p_a, p_b), 1-d and of one length, the first
    server A with probability `config.s_a`: {winner: (probabilities,
    means, sds)} for A, B and None (either), each a tuple of Python floats
    with one entry per point.  A point gets the bits `aggregate_moments`
    gives it alone.  Raises DomainError for a probability outside [0, 1]
    or a point with q = 1 (`kernel.game` checks both), and
    ConditioningError where the event of a winner has vanished
    (probability at most 1e-300)."""
    p_a, p_b = _reals(p_a, 1, "p_a"), _reals(p_b, 1, "p_b")
    if p_a.shape != p_b.shape:
        raise DomainError("p_a and p_b must be 1-d grids of one length")
    events = _event_moments(config, p_a, p_b, [(None, w) for w in (*Player, None)])
    if any(np.isnan(moments).any() for _, *moments in events.values()):
        raise ConditioningError("conditioning event has vanished")
    return {
        w: (tuple(prob.tolist()), tuple(m.tolist()), tuple(np.sqrt(v).tolist())) for (_, w), (prob, m, v) in events.items()
    }


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


def _pre_exchange(config: GameConfig, game: kernel.Game, q: float):
    """The map from the weight c of each component of the game table in an
    event (`kernel.Game.event`) to the game's law before its exchanges
    jointly with the event, law[k, s] over n + k points scored and the
    shift s, from the components' shift laws at q (`kernel.Game.shift_laws`,
    evaluated once): components of one points total add up in their row
    k, in the table's order.  Every event's law has one shape, and its sum
    is the probability of the event."""
    shifts = game.shift_laws(q)
    k, width = game.alpha + game.beta - config.n, shifts.shape[1]
    cells, size = (k[:, None] * width + np.arange(width)).ravel(), (int(k.max()) + 1) * width
    return lambda c: np.bincount(cells, (c[:, None] * shifts).ravel(), size).reshape(-1, width)


def _event_pmf(probs: RallyProbs, config: GameConfig, winner: Player | None, epsilon: float) -> DurationPMF:
    """PMF of D jointly with the game's winner, the first server weighed by
    (s_a, s_b) from the config, through `exchange_mixture`: for a winner
    given that winner, its law before exchanges (`_pre_exchange`) divided
    by the probability of the event (`kernel.total`, the bits of
    `sideout.game_win_probs`), and for None the law of every game."""
    validate(probs, config)  # before the config's n is read
    game = kernel.game(config, probs.p_a, probs.p_b)
    c = game.event(kernel.servers(config), kernel.WON[winner])[:, 0]
    total = 1.0 if winner is None else float(kernel.total(c))
    if total <= _TINY:
        raise ConditioningError(f"P[{winner} wins] underflowed")
    return exchange_mixture(config.n, _pre_exchange(config, game, probs.q)(c) / total, probs, config.system, epsilon)


def duration_pmf_winner(probs: RallyProbs, config: GameConfig, winner: Player, epsilon: float = 1e-12) -> DurationPMF:
    """PMF of D under `config.system` conditional on the game winner, the
    first server A with probability `config.s_a`, mixed out with the
    posterior weights given that winner; the probability of the winner it
    divides by is the one `sideout.game_win_probs` gives.  Rally-point
    PMFs are exact (the truncation bound is zero)."""
    return _event_pmf(probs, config, expect(winner, Player, "winner"), epsilon)


def duration_pmf_unconditional(probs: RallyProbs, config: GameConfig, epsilon: float = 1e-12) -> DurationPMF:
    """PMF of D under `config.system` mixed over all terminal scores and
    winners, the first server A with probability `config.s_a`."""
    return _event_pmf(probs, config, None, epsilon)


def pre_exchange_laws(probs: RallyProbs, config: GameConfig) -> dict[tuple[Player, Player], np.ndarray]:
    """A game's law before its exchanges, jointly with the winner, for each
    (first server, winner) of positive probability: {event: law} with
    law[k, s] the probability, given the first server, that the winner
    takes the game with n + k points scored and s other rallies, on the
    shift axis of the game table (`kernel.Game.shift_laws`, evaluated
    once by `_pre_exchange`).  The laws of all events have one shape.

    The rallies of the game are then n + k + s + 2L with L ~ NB(n + k, q),
    and the exchange counts of independent games add: `exchange_mixture`
    applies them once to any sum of such laws.  A rally-point law has the
    one column s = 0 and no exchanges."""
    validate(probs, config)
    game = kernel.game(config, probs.p_a, probs.p_b)
    law, laws = _pre_exchange(config, game, probs.q), {}
    for server, winner in itertools.product(Player, Player):
        c = game.event(kernel.servers(config, server), kernel.WON[winner])[:, 0]
        if c.any():
            laws[(server, winner)] = law(c)
    return laws


def _score_law(probs: RallyProbs, config: GameConfig, score) -> tuple[kernel.Game, np.ndarray, int]:
    """The game table, the weight of each component in the law given that
    a game ends at `score`, the first server weighed by (s_a, s_b), summing
    to 1 (one component, or two for an end of a tie-break's extension,
    reached by either tying scorer) divided by the probability of the
    score (`kernel.total`), and the points of that score."""
    validate(probs, config)
    if isinstance(score, TerminalScore):
        alpha, beta = score.alpha, score.beta
        # the last scorer of an end score is the one with more points
        end = (alpha > beta) == (score.last_scorer is Player.A)
    else:
        try:
            alpha, beta = score
        except (TypeError, ValueError):
            raise DomainError(f"score={score!r} must be a pair of integers") from None
        if not (isinstance(alpha, numbers.Integral) and isinstance(beta, numbers.Integral)):
            raise DomainError(f"non-integer score ({alpha!r}, {beta!r})")
        end = True
    game = kernel.game(config, probs.p_a, probs.p_b)
    if not end or (alpha, beta) not in zip(game.alpha.tolist(), game.beta.tolist()):
        raise ConfigError(f"score {alpha},{beta} is not an end score of a game to {config.n}")
    c = game.event(kernel.servers(config), lambda a, b: (a == alpha) & (b == beta))[:, 0]
    total = kernel.total(c)
    if total <= _TINY:
        raise ConditioningError(f"P[score {alpha},{beta}] underflowed")
    return game, c / total, alpha + beta


def score_moments(probs: RallyProbs, config: GameConfig, score) -> Moments:
    """Mean and variance of D under `config.system` given that the game
    ends at `score`, the first server A with probability `config.s_a` (see
    `_score_law`).  `score` is a pair (A's points, B's points) or a
    `TerminalScore`, the key type of `sideout.score_distribution(...).entries`.
    Raises DomainError for a score that is not a pair of integers,
    ConfigError for one that is not an end of the game and
    ConditioningError for one of probability zero."""
    game, c, _ = _score_law(probs, config, score)
    _, mean, var = _mix(c[:, None], *_moments(config, game, probs.p_a, probs.p_b))
    return Moments(float(mean[0]), float(var[0]))


def score_pmf(probs: RallyProbs, config: GameConfig, score, epsilon: float = 1e-12) -> DurationPMF:
    """PMF of D under `config.system` given that the game ends at `score`,
    as `score_moments` conditions it: the mixed shift law of its points
    through `exchange_mixture`, the exchange series cut where its tail
    bound falls to `epsilon`."""
    game, c, points = _score_law(probs, config, score)
    law = (c[:, None] * game.shift_laws(probs.q))[c > 0.0].sum(axis=0)
    return exchange_mixture(points, law[None], probs, config.system, epsilon)


def score_mgf(probs: RallyProbs, config: GameConfig, score, t: float) -> float:
    """Moment generating function E[e^(tD)] of D under `config.system`
    given that the game ends at `score`, as `score_moments` conditions it,
    at a finite t: the points M with their NB(M, q) exchanges, and the
    mixed shift law of the score (`kernel.Game.shift_laws`).  Under
    side-out scoring it is finite only while q e^(2t) < 1; the exact 1 - q
    (`kernel.one_minus_q`) gives 1 - q e^(2t) as (1 - q) - q (e^(2t) - 1).  Under rally-point scoring q = 0 and D = M.
    Raises DomainError for a t that is not a finite real, where the MGF
    diverges, and where it overflows a double; a score is refused as
    `score_moments` refuses it."""
    if not math.isfinite(expect(t, numbers.Real, "t")):
        raise DomainError(f"t={t} is not finite")
    game, c, points = _score_law(probs, config, score)
    law = (c[:, None] * game.shift_laws(probs.q))[c > 0.0].sum(axis=0)
    s = np.flatnonzero(law)  # e^(ts) may overflow where the law has no mass
    q, keep = (probs.q, kernel.one_minus_q(probs.p_a, probs.p_b)) if config.system is ScoringSystem.SIDE_OUT else (0.0, 1.0)
    # a t in the domain may still overflow: e^(2t), the power or the product
    try:
        room = keep - q * math.expm1(2.0 * t)
        if room <= 0.0:
            raise DomainError(f"MGF diverges: q*e^(2t) = {q * math.exp(2.0 * t)} >= 1")
        value = (keep * math.exp(t) / room) ** points * float(np.dot(law[s], np.exp(t * s)))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"the MGF at t={t} overflows a double")
    return value


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
    exchanges: D = M + s exactly.  A `points` below 1 raises DomainError:
    a law of no points would skip every pass, and its mass with them."""
    if not (isinstance(epsilon, numbers.Real) and math.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon!r}")
    if expect(points, numbers.Integral, "points") < 1:
        raise DomainError(f"points={points} must be >= 1")
    expect(probs, RallyProbs, "probs")
    expect(system, ScoringSystem, "system")
    law = _reals(law, 2, "law")
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
    rallies, with the exact 1 - q (`kernel.one_minus_q`), as a scan of an
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


def _support_before(pmf: DurationPMF, x: int) -> int | None:
    """The last bin before bin x that carries mass, or None: searched a
    chunk at a time back from x."""
    while x > 0:
        lo = max(0, x - _CHUNK)
        hit = np.flatnonzero(pmf.masses[lo:x] > 0.0)
        if hit.size:
            return lo + int(hit[-1])
        x = lo
    return None


def quantile(pmf: DurationPMF, level: float, mode: QuantileMode = QuantileMode.STANDARD) -> float:
    """Quantile of a duration PMF.

    STANDARD returns the smallest support point whose CDF reaches `level`:
    the first bin whose CDF reaches it, which always carries mass.
    INTERPOLATED inverts the piecewise-linear curve through the support
    points anchored at mid-jump CDF values (cumulative mass below a point
    plus half its own mass), clamped at the extremes; between two
    consecutive same-parity support points d and d+2 this interpolates
    linearly across the window, avoiding the empty parity class in
    between.  Both search the PMF's cached CDF checkpoints, one per chunk
    of 2^13 bins, and accumulate only the chunk where the CDF reaches the
    level (and the next, should no mid-jump value in it reach the level)
    with the bits of np.cumsum(masses) (`DurationPMF.chunk_cdf`): they
    return what a search of the whole CDF returns, in O(bins / 2^13)
    memory and no PMF-sized temporary.
    """
    if not (0.0 < expect(level, numbers.Real, "level") < 1.0):
        raise DomainError(f"quantile level {level} outside (0, 1)")
    marks = expect(pmf, DurationPMF, "pmf").checkpoints
    if len(marks) and not math.isfinite(marks[-1]):
        raise DomainError(f"PMF mass {marks[-1]} is not finite")
    if not len(marks) or marks[-1] <= 0.0:
        raise ConditioningError("PMF carries no mass")
    if level > marks[-1]:
        raise DomainError(
            f"level {level} unreachable: computed mass {marks[-1]:.17g} "
            f"(truncation bound {pmf.truncation_bound:.3g})"
        )
    # the chunk of the first bin whose CDF reaches the level: every bin
    # before it has its CDF, and so its mid-jump value, below the level
    first = int(np.searchsorted(marks, level))
    cdf = pmf.chunk_cdf(first)
    if expect(mode, QuantileMode, "mode") is QuantileMode.STANDARD:
        return float(pmf.offset + first * _CHUNK + np.searchsorted(cdf, level))
    last = _support_before(pmf, len(pmf.masses))
    # the first support bin x whose mid-jump value reaches the level
    for b in range(first, len(marks)):
        cdf = cdf if b == first else pmf.chunk_cdf(b)
        idx = np.flatnonzero(pmf.masses[b * _CHUNK : (b + 1) * _CHUNK] > 0.0)
        mid = cdf[idx] - 0.5 * pmf.masses[b * _CHUNK + idx]
        k = int(np.searchsorted(mid, level))
        if k < len(mid):
            x, mid_x = b * _CHUNK + int(idx[k]), mid[k]
            break
    else:
        return float(pmf.offset + last)
    prev = _support_before(pmf, x)
    if prev is None:
        return float(pmf.offset + x)
    if level >= marks[-1] - 0.5 * pmf.masses[last]:
        return float(pmf.offset + last)
    # no mass lies between prev and x, so prev's CDF is the one at x - 1
    cdf_prev = cdf[x - 1 - b * _CHUNK] if x > b * _CHUNK else marks[b - 1]
    mid_prev = cdf_prev - 0.5 * pmf.masses[prev]
    frac = (level - mid_prev) / (mid_x - mid_prev)
    return float(pmf.offset + prev + frac * (x - prev))
