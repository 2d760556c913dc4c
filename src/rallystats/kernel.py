"""The interruption polynomial shared by both scoring systems.

Every score probability of a game sums over the number of interruptions
(serve transitions in which the server's side scores nothing).  For a
tally (alpha, beta) of the first server and the receiver, write j for the
power of the exchange probability q a path carries: j = r when the first
server scores last, j = r - 1 when the receiver does.  The coefficients
are

    C(alpha, j) * C(beta - 1, j - 1),  j = min(beta, 1) .. min(alpha, beta)
    C(alpha, j) * C(beta - 1, j),      j = 0 .. min(alpha, beta - 1)

for the two last scorers (with C(-1, -1) = 1 for the shutout).  This module
is the only place they are built.  A set of tallies becomes a `Rows` table
of log-coefficients indexed from the smallest feasible j, cached per
target score (`table`, `tied`); `tallies` builds one for any tallies
its caller has checked.  Tallies are in first-server coordinates: in
`table(n)` the first server wins in rows 0..n-1 and the receiver in rows
n..2n-1.  This module is
also the only reader of that layout: `game(config, p_a, p_b)` turns the
tables of a `GameConfig` into its game table (`Game`), the terminal
components every game-level law reads, each table weighed by one kernel
evaluation against arrays of rally probabilities for either scoring
system, at both first servers at once.  With a tie-break l a component
is a regular end or the pair of a tie at n-1 all and an end of the l-point
extension, first served by whoever tied.  `Game.event` is the one
selector of the components of an event of a game: the first servers
weighed as `servers` gives them, and the components kept by a predicate
on the points, such as a winner's (`WON`) or an end score's, and `total`
the one sum of its weights that is the event's probability.

The laws of one matchup read one game table: `game` keeps the tables of
the last 16 single points in an LRU cache keyed by (system, n,
tie-break, p_a, p_b), so configs that differ only in s_a share an entry.
A cached table's arrays are read-only, and its shift laws are built
afresh on each call of `Game.shift_laws` (at n = 1000 a table's laws are
2000 x 2000 doubles), never kept.  A grid of points (arrays of p_a, p_b)
is evaluated afresh and never enters the cache.  `functools.lru_cache` is
thread-safe, and what it holds is never written, so the package stays
safe for concurrent callers.

A tally's probability is a prefactor times an interruption polynomial.
Under side-out scoring the prefactor is x^alpha y^beta q_a^[receiver
last] q^j0 with x = p_a/(1-q), y = p_b/(1-q), and the polynomial is
P(q) = sum_s c_s q^s over the coefficients of q^(j0 + s); under
rally-point scoring the polynomial is in (u, v) = (p_a p_b, q)/(p_a p_b +
q).  The polynomial, and with it the law of the interruption count given
the tally, depends on the players only through products of the two
sides, so it is the same for both first servers to the last bit: the
game table's evaluation forms it once for both, `Game.shift_laws` gives
the law of the shift (the rallies that are neither points nor exchanges)
given each component from its normalized terms, and
`interruption_polynomial` gives it alone as a function of q, with the
mean and variance of its power.  Every law of `duration`, the moment
generating function given an end score included, reads the game table;
the score-only likelihood of `estimate` needs only the polynomial, which
it evaluates per tally at its start grid and keeps (see `estimate`), and
at one q per Newton point.  One evaluator (`_polynomial`) forms the
polynomial for all of them: the game tables of both systems, tie-break
parts included, their shift laws, and `interruption_polynomial` at a
grid of q or at one q.  A grid carries its points on an axis after the
terms and is evaluated in blocks; one q is a point without that axis and
without blocks, its logarithm taken outside any floating-point error
state, so a Newton point costs little more than its arithmetic.  A row
whose every term vanishes (no reachable tally has one) is guarded by
floors, not branches: log v and each row's largest log-term are kept
above -1e300, and the sum that divides the moments above 1, which no row
with mass is below.

Evaluation is in scaled form: every term is a logarithm, each row is
shifted by its largest term before exponentiating, and the shift is added
back in the log domain.  Coefficients of size C(1000, 500)^2 and
probabilities of size 1e-400 stay finite, which the direct product of
binomials and powers does not.  Each row's terms are added in one fixed
order, so a point gets the same bits whatever other points are evaluated
with it.  Only `math` and NumPy are used.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .core import DomainError, GameConfig, Player, ScoringSystem, expect

# Elements of one (rows x terms x probabilities) block of evaluation; keeps
# the temporaries of a large table or grid to a few megabytes.
_BLOCK = 1 << 16
# The evaluator's floor for log v and for a row's largest log-term: below
# the log of any positive q, and below the largest log-term of any row with
# mass (at least -(top - j0) log 2)
_FLOOR = -1e300


@dataclass(frozen=True)
class Rows:
    """Log-coefficients of a set of tallies, in first-server coordinates.

    Row i is the tally (alpha[i], beta[i]) with the first server scoring
    last when server_last[i]; logc[i, s] is the log-coefficient of
    q^(j0[i] + s) for s = 0 .. top[i] - j0[i], and -inf beyond.
    """

    alpha: np.ndarray
    beta: np.ndarray
    server_last: np.ndarray
    j0: np.ndarray
    top: np.ndarray
    logc: np.ndarray


@functools.lru_cache(maxsize=8)
def _log_binom(m: int) -> np.ndarray:
    """log C(a, b) for 0 <= b <= a <= m, -inf elsewhere: the logarithm of
    each exact integer of Pascal's triangle, so every entry is accurate to
    an ulp whatever the size of the coefficient."""
    out = np.full((m + 1, m + 1), -np.inf)
    row = [1]
    for a in range(m + 1):
        out[a, : a + 1] = [math.log(c) for c in row]
        row = [1, *(x + y for x, y in zip(row, row[1:])), 1]
    out.setflags(write=False)
    return out


def tallies(items: list[tuple[int, int, bool]]) -> Rows:
    """A table of any reachable tallies (alpha, beta, server_last) of the
    first server and the receiver, in the given order.  They are not
    checked here: a game's tables are reachable by construction, and a
    record's tally has been checked before it comes here, its score by
    `estimate.RecordBatch` as `TerminalScore` checks it and its last scorer's
    lead by the likelihood."""
    alpha, beta, server_last = (np.array(col) for col in zip(*items))
    server_last = server_last.astype(bool)
    lb = _log_binom(int(max(alpha.max(), beta.max(), 1)))
    j0 = np.where(server_last, np.minimum(beta, 1), 0)
    top = np.where(server_last, np.minimum(alpha, beta), np.minimum(alpha, beta - 1))
    j = j0[:, None] + np.arange(int((top - j0).max()) + 1)
    # second binomial: C(beta-1, j-1) when the server scores last, else C(beta-1, j)
    k = j - server_last[:, None]
    m = lb.shape[0] - 1
    logc = np.where(
        j <= top[:, None],
        lb[alpha[:, None], np.minimum(j, m)] + lb[np.maximum(beta - 1, 0)[:, None], np.clip(k, 0, m)],
        -np.inf,
    )
    logc[server_last & (beta == 0), 0] = 0.0  # C(alpha, 0) * C(-1, -1) = 1
    rows = Rows(alpha, beta, server_last, j0, top, logc)
    for arr in (alpha, beta, server_last, j0, top, logc):
        arr.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=32)
def table(n: int) -> Rows:
    """The 2n terminal tallies of a game to n: rows k = 0..n-1 are (n, k)
    won by the first server, rows n + k are (k, n) won by the receiver."""
    return tallies([(n, k, True) for k in range(n)] + [(k, n, False) for k in range(n)])


@functools.lru_cache(maxsize=32)
def tied(m: int) -> Rows:
    """The two ways to reach m all: row 0 tied by a point of the first
    server, row 1 by a point of the receiver."""
    return tallies([(m, m, True), (m, m, False)])


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x).astype(float)


def _log_q(q):
    """log q of one exchange probability, rounded from q's precision to a
    float, for the evaluator: at q = 0 its floor."""
    return np.float64(np.log(q)) if q > 0.0 else _FLOOR


def _xlog(e: np.ndarray, log_z: np.ndarray) -> np.ndarray:
    """e * log z with 0 * log 0 = 0, since z^0 = 1 even at z = 0."""
    return np.multiply(e, log_z, out=np.zeros(np.broadcast(e, log_z).shape), where=e != 0)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of an (m, w, P) or (m, w) array over axis 1, term by term in the
    order s = 0, 1, 2, ... whatever P.  NumPy adds term by term along any
    axis but the fast one, which it sums pairwise; with at most one point
    axis 1 is the fast axis, so it is summed there as a running sum, which
    is sequential by definition.  A point thus gets the same bits alone as
    among others, and a grid keeps NumPy's faster sum."""
    if x.ndim == 2 or x.shape[2] == 1:
        return np.add.accumulate(x, axis=1)[:, -1]
    return x.sum(axis=1)


def _polynomial(rows: Rows, log_v, log_u: np.ndarray | None = None):
    """The interruption polynomial sum_s c_s u^(top - j0 - s) v^s of each
    row, the kernel's one evaluator: at each point of the arrays log v and
    log u (no u under side-out), or at the one point of a scalar log v (at
    least `_FLOOR`), whose results then have no point axis.  Returns the
    log of each row's largest term (m, P), the terms divided by it (m, w,
    P), each in [0, 1], their sum and the mean and variance of s under
    them (m, P).  The sum is the part of a tally's probability that is the
    same for both first servers.  A row whose every term vanishes has a
    sum and moments of 0."""
    s, log_t = np.arange(rows.logc.shape[1]), rows.logc
    if isinstance(log_v, np.ndarray):  # the points, on an axis after the terms
        # a term of v = 0 is -inf or below the floor, 0 once scaled either
        # way, and the floor keeps 0 log 0 = 0 at s = 0
        s, log_t, log_v = s[:, None], log_t[:, :, None], np.maximum(log_v, _FLOOR)
    log_t = log_t + s * log_v
    if log_u is not None:
        # padding (s past the row's top) is -inf already; clamp its exponent
        log_t = log_t + _xlog(np.maximum(np.subtract.outer(rows.top - rows.j0, s), 0), log_u)
    # a row whose every term is -inf takes the floor as its shift, so its
    # scaled terms are 0 (and not NaN)
    shift = log_t.max(axis=1, initial=_FLOOR)
    terms = np.exp(log_t - shift[:, None])
    total = _row_sum(terms)
    # a row's largest scaled term is 1, so a row with mass sums to at least
    # 1, and norm = 1 leaves the moments of a row without mass at 0
    norm = np.maximum(total, 1.0)
    s_mean = _row_sum(s * terms) / norm
    return shift, terms, total, s_mean, _row_sum((s - s_mean[:, None]) ** 2 * terms) / norm


def _symmetric_bases(system: ScoringSystem, p_a: np.ndarray, p_b: np.ndarray):
    """log v and log u of the polynomial (None for u under side-out): v = q
    under side-out; v = q / h and u = p_a p_b / h with h = p_a p_b + q under
    rally-point.  Both are symmetric in the players to the last bit, since
    each is formed from products of the two sides."""
    q = (1.0 - p_a) * (1.0 - p_b)
    if system is ScoringSystem.SIDE_OUT:
        return _log(q), None
    # u, v in [0, 1] keep every logarithm finite or -inf, also where p_a or
    # p_b vanishes
    h = p_a * p_b + q
    with np.errstate(invalid="ignore", divide="ignore"):
        log_u = np.where(h > 0.0, _log(p_a * p_b / h), 0.0)
        log_v = np.where(h > 0.0, _log(q / h), 0.0)
    return log_v, log_u


def one_minus_q(p_a, p_b):
    """1 - q for the exchange probability q = (1 - p_a)(1 - p_b), as p_a +
    (1 - p_a) p_b in the dtype of p_a and p_b: it does not cancel as q -> 1.
    Every `1 - q` of the package is this one expression."""
    return p_a + (1.0 - p_a) * p_b


def _log_prefactor(system: ScoringSystem, rows: Rows, p_a: np.ndarray, p_b: np.ndarray, log_v: np.ndarray):
    """The log of the factor of each tally's probability outside the
    polynomial, for the first server with rally-winning probability p_a."""
    q_a = 1.0 - p_a
    receiver_last = (~rows.server_last).astype(int)[:, None]
    j0 = rows.j0[:, None]
    if system is ScoringSystem.SIDE_OUT:
        # x^alpha y^beta q_a^[receiver last] q^j, with x = p_a/(1-q), y = p_b/(1-q)
        keep = one_minus_q(p_a, p_b)
        return (
            _xlog(rows.alpha[:, None], _log(p_a / keep))
            + _xlog(rows.beta[:, None], _log(p_b / keep))
            + _xlog(receiver_last, _log(q_a))
            + _xlog(j0, log_v)
        )
    # p_a^(alpha - j) p_b^(beta - d - j) q_a^d q^j with d = [receiver last]
    # = p_a^(alpha - top) p_b^(beta - d - top) q_a^d h^top u^(top - j) v^j
    top = rows.top[:, None]
    h = p_a * p_b + q_a * (1.0 - p_b)
    return (
        _xlog(rows.alpha[:, None] - top, _log(p_a))
        + _xlog(rows.beta[:, None] - receiver_last - top, _log(p_b))
        + _xlog(receiver_last, _log(q_a))
        + _xlog(top, _log(h))
        + _xlog(j0, log_v)
    )


def _blocked(rows: Rows, points: int, shapes, block) -> list[np.ndarray]:
    """Run block(rows, points slice) over blocks of at most about _BLOCK
    (rows x terms x points) elements and assemble its arrays, each of shape
    (rows, *shape, points) for its entry of `shapes`."""
    m, w = rows.logc.shape
    row_step = max(1, _BLOCK // w)
    p_step = max(1, _BLOCK // (w * min(m, row_step)))
    if m <= row_step and 0 < points <= p_step:
        return list(block(rows, slice(None)))
    out = [np.empty((m, *shape, points)) for shape in shapes]
    for r in range(0, m, row_step):
        sub = Rows(*(getattr(rows, f.name)[r : r + row_step] for f in fields(rows)))
        for c in range(0, points, p_step):
            for dst, src in zip(out, block(sub, slice(c, c + p_step))):
                dst[r : r + row_step, ..., c : c + p_step] = src
    return out


@dataclass(frozen=True)
class Game:
    """The game table: every terminal component of a game, in first-server
    coordinates, at each of P parameter points.

    A component is a row of `table(n)` or, with a tie-break l, one of the
    rows below n-1 points of the loser, and the pairs of a tie at n-1 all
    (a row of `tied(n-1)`) and an end of the extension, a game to l first
    served by whoever tied (a row of `table(l)`).  Component c ends with
    alpha[c] points of the first server and beta[c] of the receiver, the
    winner holding more, and has probability weight[c, i, point] when A
    (i = 0) or B (i = 1) serves first.  Given it, the rallies that
    are neither points nor exchanges, the shift s = delta + 2j (delta =
    [the receiver scores last], j the interruption pair count), have mean
    shift_mean[c, point] and variance shift_var[c, point], the same for
    both first servers; `shift_laws(q)` builds their law at exchange
    probability q, law[c, s].  For a pair the weights multiply, the points
    add, the shift moments add and the shift laws convolve.  Under
    rally-point scoring every rally scores, so the shift is 0."""

    alpha: np.ndarray
    beta: np.ndarray
    weight: np.ndarray
    shift_mean: np.ndarray
    shift_var: np.ndarray
    shift_laws: Callable[[float], np.ndarray]

    def event(self, servers, keep) -> np.ndarray:
        """Weight of each component in an event, (components, points):
        `servers` weighs the two first servers, (1, 0), (0, 1) or (s_a, s_b)
        (see `servers`), and keep(A's points, B's points) says which
        components count.  A first server of weight 0 adds nothing and is
        skipped."""
        ends = ((self.alpha, self.beta), (self.beta, self.alpha))  # A's and B's points when A, B serves first
        return sum(wt * np.where(keep(*ends[i])[:, None], self.weight[:, i], 0.0) for i, wt in enumerate(servers) if wt)


def total(weights: np.ndarray) -> np.ndarray:
    """The probability of an event from the weights of its components on
    axis 0 (`Game.event`): their running sum (`np.add.accumulate`), added
    in one order whatever the number of points, so a point gets the same
    bits alone as in a grid.  Every probability of an event that the
    package forms or divides by is this sum."""
    return np.add.accumulate(weights)[-1]


# which components a winner takes, from A's and B's points: at an end they differ
WON = {Player.A: np.greater, Player.B: np.less, None: np.not_equal}


def servers(config: GameConfig, server: Player | None = None) -> tuple[float, float]:
    """Weights of the two first servers: (1, 0) or (0, 1) for `server`, or
    (s_a, s_b) from the config for None."""
    if server is None:
        return expect(config, GameConfig, "config").s_a, config.s_b
    return float(expect(server, Player, "server") is Player.A), float(server is Player.B)


def _ends(system: ScoringSystem, rows: Rows, p_a, p_b) -> Game:
    """A table's rows as components at each point of the arrays (p_a, p_b),
    from one kernel evaluation: the probability of every tally in games
    first served by A and by B, (rows, 2 first servers, points), formed as
    a logarithm that stays finite where it underflows.  The polynomial, and
    with it the law of the interruption count R given each tally, is
    symmetric in the players, so it is evaluated once: the moments of the
    shift have shape (rows, points) and hold for both first servers.  The
    law of R comes from the polynomial's terms alone, so it stays defined
    where a factor common to all terms (and with it the tally's
    probability) vanishes; where every term vanishes its moments read 0.
    Each point's results are the same to the last bit whatever other
    points are evaluated with it."""
    # The bases are formed in extended precision (where the platform has
    # it), so each logarithm is the rounded logarithm of the exact base; a
    # base rounded to double, such as 1 - p, errs by half an ulp per power.
    p_a, p_b = np.broadcast_arrays(np.atleast_1d(np.asarray(p_a, np.longdouble)), np.asarray(p_b, np.longdouble))

    def block(sub: Rows, sl: slice):
        x, y = p_a[sl], p_b[sl]
        log_v, log_u = _symmetric_bases(system, x, y)
        shift, _, total, s_mean, s_var = _polynomial(sub, log_v, log_u)
        log_total, firsts = _log(total), ((x, y), (y, x))
        log_weight = np.stack([_log_prefactor(system, sub, a, b, log_v) + shift + log_total for a, b in firsts], axis=1)
        return log_weight, sub.j0[:, None] + (~sub.server_last)[:, None] + s_mean, s_var

    log_weight, r_mean, r_var = _blocked(rows, p_a.size, [(2,), (), ()], block)
    mean = var = np.zeros_like(r_var)
    if system is ScoringSystem.SIDE_OUT:
        # s = 2R - delta from the interruption count R = j + delta
        mean, var = 2.0 * r_mean - (~rows.server_last)[:, None], 4.0 * r_var

    def row_laws(q: float) -> np.ndarray:
        # the normalized terms of each row's polynomial at q, placed at their
        # shifts; the tally's probability factors out of them, so the law is
        # defined at q = 0 too, all its mass on the fewest interruptions
        if system is ScoringSystem.RALLY_POINT:
            return np.ones((len(rows.alpha), 1))
        terms, delta = _polynomial(rows, _log_q(q))[1], ~rows.server_last
        law = terms / terms.sum(axis=1, keepdims=True)
        s = delta[:, None] + 2 * (rows.j0[:, None] + np.arange(law.shape[1]))
        out = np.zeros((len(law), int(s.max()) + 1))
        out[np.arange(len(law))[:, None], s] = law  # zero past a row's top
        return out[:, : int((delta + 2 * rows.top).max()) + 1]

    return Game(rows.alpha, rows.beta, np.exp(log_weight), mean, var, row_laws)


def game(config: GameConfig, p_a, p_b) -> Game:
    """The game table of `config` at each point of the arrays (p_a, p_b),
    from one kernel evaluation per table: `table(n)`, and with a tie-break
    l also `tied(n-1)` and `table(l)`.  The table of a single point comes
    from a bounded cache (`_point_game`), read-only; a grid is evaluated
    afresh.  A p_a or p_b that is not a real, or a 1-d array of reals, in
    [0, 1] (NaN included), arrays of two lengths and a point with q = 1
    raise DomainError before any evaluation, so none enters the cache; a
    pair of floats is checked by comparisons alone."""
    expect(config, GameConfig, "config")
    floats = isinstance(p_a, float) and isinstance(p_b, float)  # np.float64 included
    if not (floats and 0.0 <= p_a <= 1.0 and 0.0 <= p_b <= 1.0 and (1.0 - p_a) * (1.0 - p_b) < 1.0):
        _check_points(p_a, p_b)
    if floats or (np.ndim(p_a) == 0 and np.ndim(p_b) == 0):
        return _point_game(config.system, config.n, config.tiebreak, float(p_a), float(p_b))
    return _game(config.system, config.n, config.tiebreak, p_a, p_b)


def _check_points(p_a, p_b) -> None:
    """Raise DomainError unless p_a and p_b are reals or 1-d arrays of
    reals (of one length if both are arrays) in [0, 1], with q < 1 at
    every point."""
    arrays = []
    for name, p in (("p_a", p_a), ("p_b", p_b)):
        arr = np.asarray(p)
        if arr.ndim > 1 or arr.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be a real or a 1-d array of reals, got {p!r}")
        if not ((0.0 <= arr) & (arr <= 1.0)).all():
            grid = "a probability of the grid lies outside [0, 1]"
            raise DomainError(grid if arr.ndim else f"{name}={p!r} outside [0, 1]")
        arrays.append(arr)
    if arrays[0].ndim == arrays[1].ndim == 1 and arrays[0].shape != arrays[1].shape:
        raise DomainError("p_a and p_b must be reals or 1-d arrays of one length")
    if ((1.0 - arrays[0]) * (1.0 - arrays[1]) >= 1.0).any():
        raise DomainError("q=1, game never terminates (p_a=0 and p_b=0)")


@functools.lru_cache(maxsize=16)
def _point_game(system: ScoringSystem, n: int, ell: int | None, p_a: float, p_b: float) -> Game:
    """The game table of one point, its arrays read-only; its shift laws
    are built on each call of `shift_laws`, never kept."""
    out = _game(system, n, ell, p_a, p_b)
    for arr in (out.alpha, out.beta, out.weight, out.shift_mean, out.shift_var):
        arr.setflags(write=False)
    return out


def _game(system: ScoringSystem, n: int, ell: int | None, p_a, p_b) -> Game:
    ends = _ends(system, table(n), p_a, p_b)
    if ell is None:
        return ends
    tie, ext = _ends(system, tied(n - 1), p_a, p_b), _ends(system, table(ell), p_a, p_b)
    # n to n-1 is not an end: play goes on from n-1 all.  Pair (t, e) is tie
    # row t and extension row e, first served by whoever tied: by the game's
    # receiver when t = 1, whose coordinates are then swapped
    keep = np.flatnonzero(np.minimum(ends.alpha, ends.beta) < n - 1)
    t, e = np.divmod(np.arange(2 * len(ext.alpha)), len(ext.alpha))
    swap = t == 1
    pairs = [
        n - 1 + np.where(swap, ext.beta[e], ext.alpha[e]),
        n - 1 + np.where(swap, ext.alpha[e], ext.beta[e]),
        tie.weight[t] * np.where(swap[:, None, None], ext.weight[e][:, ::-1], ext.weight[e]),
        tie.shift_mean[t] + ext.shift_mean[e],
        tie.shift_var[t] + ext.shift_var[e],
    ]

    def component_laws(q: float) -> np.ndarray:
        lt, le, lr = tie.shift_laws(q), ext.shift_laws(q), ends.shift_laws(q)[keep]
        laws = np.array([np.convolve(lt[i], le[j]) for i, j in zip(t, e)])
        return np.concatenate([np.pad(lr, ((0, 0), (0, laws.shape[1] - lr.shape[1]))), laws])

    regular = [ends.alpha, ends.beta, ends.weight, ends.shift_mean, ends.shift_var]
    return Game(*(np.concatenate([x[keep], y]) for x, y in zip(regular, pairs)), component_laws)


def interruption_polynomial(rows: Rows, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The side-out interruption polynomial P(q) = sum_s c_s q^s of every row
    (c_s the coefficient of q^(j0 + s)) at each exchange probability of the
    array q, best given in extended precision: log P(q), and the mean and
    variance of s under the terms, each of shape (rows, points).  A tally's
    log-probability is log P(q) plus alpha log(p_a/(1-q)) + beta
    log(p_b/(1-q)) + [receiver last] log q_a + j0 log q, with p_a the first
    server's: apart from this closed form it depends on (p_a, p_b) through
    q = q_a q_b alone.

    A float q (or a 0-d array or integer) gives arrays of shape (rows,)
    with a grid's bits, from the same evaluator without a point axis or
    blocks (see the module notes); a float is checked by one comparison.
    A `rows` that is not a `Rows`, or a q that is not a real, or an array
    of reals, in [0, 1] (NaN included) raises DomainError."""
    expect(rows, Rows, "rows")
    if not isinstance(q, (float, np.floating)):
        q = np.asarray(q)
        if q.dtype.kind not in "fiu" or not ((0.0 <= q) & (q <= 1.0)).all():
            raise DomainError(f"q must be a real or an array of reals in [0, 1], got {q!r}")
        q = q[()]  # a scalar from a 0-d array
    elif not 0.0 <= q <= 1.0:  # one comparison, also false at NaN
        raise DomainError(f"q={q!r} outside [0, 1]")

    def evaluate(sub: Rows, log_v):
        shift, _, total, s_mean, s_var = _polynomial(sub, log_v)
        return shift + np.log(total), s_mean, s_var

    if not isinstance(q, np.ndarray):
        return evaluate(rows, _log_q(q))
    return tuple(_blocked(rows, q.size, [(), (), ()], lambda sub, sl: evaluate(sub, _log(q[sl]))))


def log_exchange_binom(points: int, l) -> np.ndarray:
    """log C(t - 1 + l, l) for each entry of the array l and every points
    total t = 1 .. points, in column t - 1 (shape (entries, points)): the
    number of ways to place l exchanges among t scored points, the
    negative-binomial coefficient.  Column t - 1 is the running sum of
    log1p(l/i) over i < t, so the last column is the total `points` and
    a column has the same bits however many columns are formed.  It stays
    accurate to a few ulps for any l (a difference of lgamma values loses
    ulps of lgamma(l), 5e-10 relative at l = 1e5): each term errs by at
    most two ulps and the sum of the t - 1 positive terms by at most t - 2
    more.  A `points` that is not a positive integer, or an l that is not a
    1-d array of finite reals >= 0, raises DomainError."""
    if expect(points, numbers.Integral, "points") < 1:
        raise DomainError(f"points={points} must be >= 1")
    l = np.asarray(l)
    if l.ndim != 1 or l.dtype.kind not in "iuf" or not ((0 <= l) & (l < np.inf)).all():
        raise DomainError(f"l must be a 1-d array of finite reals >= 0, got {l!r}")
    l = l.astype(float, copy=False)
    terms = np.zeros((l.size, points))
    np.log1p(l[:, None] / np.arange(1, points), out=terms[:, 1:])
    return np.add.accumulate(terms, axis=1)

