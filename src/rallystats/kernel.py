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
target score; `evaluate_servers` weighs the table against arrays of rally
probabilities for either scoring system, at both first servers at once.
Tallies are in first-server coordinates: in `table(n)` the first server
wins in rows 0..n-1 and the receiver in rows n..2n-1.  This module is
also the only reader of that layout: `game(config, p_a, p_b)` turns the
tables of a `GameConfig` into its game table (`Game`), the terminal
components every game-level law reads.  With a tie-break l a component
is a regular end or the pair of a tie at n-1 all and an end of the l-point
extension, first served by whoever tied.

A tally's probability is a prefactor times an interruption polynomial.
Under side-out scoring the prefactor is x^alpha y^beta q_a^[receiver
last] q^j0 with x = p_a/(1-q), y = p_b/(1-q), and the polynomial is
P(q) = sum_s c_s q^s over the coefficients of q^(j0 + s); under
rally-point scoring the polynomial is in (u, v) = (p_a p_b, q)/(p_a p_b +
q).  The polynomial, and with it the law of the interruption count given
the tally, depends on the players only through products of the two
sides, so it is the same for both first servers to the last bit:
`evaluate_servers` evaluates it once for both, and
`interruption_polynomial` gives it alone as a function of q, which is
all the score-only likelihood of `estimate` needs from the kernel (one
call gives the start grid of a 200-game batch to 15 in about 1.7 ms,
against 6.3-6.9 ms through `evaluate_servers` on whole tables; `estimate`
keeps the rows, so a batch of tallies seen before takes 0.09 ms).

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, DomainError, GameConfig, ScoringSystem

# Elements of one (rows x terms x probabilities) block of evaluation; keeps
# the temporaries of a large table or grid to a few megabytes.
_BLOCK = 1 << 16


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


@dataclass(frozen=True)
class Evaluation:
    """Per row and per parameter point: the log-probability of the tally,
    finite where it underflows, with a first-server axis after the rows,
    and the mean and variance of R given it, the same for both first
    servers."""

    log_weight: np.ndarray
    r_mean: np.ndarray
    r_var: np.ndarray

    @property
    def weight(self) -> np.ndarray:
        return np.exp(self.log_weight)


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


def _build(tallies: list[tuple[int, int, bool]]) -> Rows:
    alpha, beta, server_last = (np.array(col) for col in zip(*tallies))
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
    return _build([(n, k, True) for k in range(n)] + [(k, n, False) for k in range(n)])


@functools.lru_cache(maxsize=32)
def tied(m: int) -> Rows:
    """The two ways to reach m all: row 0 tied by a point of the first
    server, row 1 by a point of the receiver."""
    return _build([(m, m, True), (m, m, False)])


def tallies(items: list[tuple[int, int, bool]]) -> Rows:
    """A table of any reachable tallies (alpha, beta, server_last) of the
    first server and the receiver, in the given order."""
    for alpha, beta, server_last in items:
        if alpha < 0 or beta < 0:
            raise DomainError(f"negative score ({alpha}, {beta})")
        if server_last and alpha < 1:
            raise ConfigError("last scorer A requires alpha >= 1")
        if not server_last and beta < 1:
            raise ConfigError("last scorer B requires beta >= 1")
    return _build(items)


@functools.lru_cache(maxsize=4096)
def tally(alpha: int, beta: int, server_last: bool) -> Rows:
    """A one-row table for any reachable tally of the first server and the
    receiver."""
    return tallies([(alpha, beta, server_last)])


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x).astype(float)


def _xlog(e: np.ndarray, log_z: np.ndarray) -> np.ndarray:
    """e * log z with 0 * log 0 = 0, since z^0 = 1 even at z = 0."""
    return np.multiply(e, log_z, out=np.zeros(np.broadcast(e, log_z).shape), where=e != 0)


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of an (m, w, P) array over axis 1, term by term in the order s = 0,
    1, 2, ... whatever P.  NumPy adds term by term along any axis but the
    fast one, which it sums pairwise; with one point axis 1 is the fast
    axis, so it is summed there as a running sum, which is sequential by
    definition.  A point thus gets the same bits alone as among others."""
    if x.shape[2] == 1:
        return np.add.accumulate(x, axis=1)[:, -1]
    return x.sum(axis=1)


def _scaled_terms(rows: Rows, log_v: np.ndarray, log_u: np.ndarray | None):
    """Terms c_s u^(top - j0 - s) v^s of each row at each parameter point,
    divided by the row's largest term: returns (log of that term (m, P),
    scaled terms (m, w, P)), every scaled term in [0, 1]."""
    s = np.arange(rows.logc.shape[1])[None, :, None]
    log_t = rows.logc[:, :, None] + _xlog(s, log_v[None, None, :])
    if log_u is not None:
        # padding (s past the row's top) is -inf already; clamp its exponent
        e_u = np.maximum((rows.top - rows.j0)[:, None, None] - s, 0)
        log_t = log_t + _xlog(e_u, log_u[None, None, :])
    shift = log_t.max(axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return shift, np.exp(log_t - shift[:, None, :])


def _polynomial(rows: Rows, log_v: np.ndarray, log_u: np.ndarray | None):
    """The interruption polynomial sum_s c_s u^(top - j0 - s) v^s of each
    row at each point: (log of its largest term, its sum over that term,
    and the mean and variance of s under its terms), each (m, P): the part
    of a tally's probability that is the same for both first servers."""
    shift, terms = _scaled_terms(rows, log_v, log_u)
    total = _row_sum(terms)
    s = np.arange(terms.shape[1])[None, :, None]
    with np.errstate(invalid="ignore"):
        s_mean = np.where(total > 0.0, _row_sum(s * terms) / total, 0.0)
        s_var = np.where(total > 0.0, _row_sum((s - s_mean[:, None, :]) ** 2 * terms) / total, 0.0)
    return shift, total, s_mean, s_var


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


def _log_prefactor(system: ScoringSystem, rows: Rows, p_a: np.ndarray, p_b: np.ndarray, log_v: np.ndarray):
    """The log of the factor of each tally's probability outside the
    polynomial, for the first server with rally-winning probability p_a."""
    q_a = 1.0 - p_a
    receiver_last = (~rows.server_last).astype(int)[:, None]
    j0 = rows.j0[:, None]
    if system is ScoringSystem.SIDE_OUT:
        # x^alpha y^beta q_a^[receiver last] q^j, with x = p_a/(1-q), y = p_b/(1-q);
        # 1 - q = p_a + q_a p_b does not cancel as q -> 1
        one_minus_q = p_a + q_a * p_b
        return (
            _xlog(rows.alpha[:, None], _log(p_a / one_minus_q))
            + _xlog(rows.beta[:, None], _log(p_b / one_minus_q))
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


def _slice_rows(rows: Rows, sl: slice) -> Rows:
    return Rows(*(getattr(rows, f)[sl] for f in ("alpha", "beta", "server_last", "j0", "top", "logc")))


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
        sub = _slice_rows(rows, slice(r, r + row_step))
        for c in range(0, points, p_step):
            for dst, src in zip(out, block(sub, slice(c, c + p_step))):
                dst[r : r + row_step, ..., c : c + p_step] = src
    return out


def evaluate_servers(system: ScoringSystem, rows: Rows, p_a, p_b) -> Evaluation:
    """Log-probability of every tally of `rows` in games first served by A
    and by B, at each point of the arrays (p_a, p_b) of the rally-winning
    probabilities of A and B, under the given scoring system: shape (rows,
    2 first servers, points).  The polynomial, and with it the law of the
    interruption count R given each tally, is symmetric in the players, so
    it is evaluated once: the mean and variance of R have shape (rows,
    points) and hold for both first servers.  The law of R comes from the
    polynomial's terms alone, so it stays defined where a factor common to
    all terms (and with it the tally's probability) vanishes; where every
    term vanishes its moments read 0.  Each point's results are the same
    to the last bit whatever other points are evaluated with it."""
    # The bases are formed in extended precision (where the platform has
    # it), so each logarithm is the rounded logarithm of the exact base; a
    # base rounded to double, such as 1 - p, errs by half an ulp per power.
    p_a, p_b = np.broadcast_arrays(np.atleast_1d(np.asarray(p_a, dtype=float)), np.asarray(p_b, dtype=float))
    p_a, p_b = p_a.astype(np.longdouble), p_b.astype(np.longdouble)

    def block(sub: Rows, sl: slice):
        x, y = p_a[sl], p_b[sl]
        log_v, log_u = _symmetric_bases(system, x, y)
        shift, total, s_mean, s_var = _polynomial(sub, log_v, log_u)
        with np.errstate(divide="ignore"):
            log_total = np.log(total)
        firsts = ((x, y), (y, x))
        log_weight = np.stack([_log_prefactor(system, sub, a, b, log_v) + shift + log_total for a, b in firsts], axis=1)
        return log_weight, sub.j0[:, None] + (~sub.server_last)[:, None] + s_mean, s_var

    return Evaluation(*_blocked(rows, p_a.size, [(2,), (), ()], block))


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

    def scores(self, server: int) -> tuple[np.ndarray, np.ndarray]:
        """A's and B's points at each component when A (0) or B (1) serves first."""
        return (self.alpha, self.beta) if server == 0 else (self.beta, self.alpha)


def shift_laws(system: ScoringSystem, rows: Rows, q: float) -> np.ndarray:
    """law[row, s] of the shift s = delta + 2j given each tally of `rows` at
    exchange probability q: 0 under rally-point scoring."""
    if system is ScoringSystem.RALLY_POINT:
        return np.ones((len(rows.alpha), 1))
    law, delta = interruption_law(rows, q), ~rows.server_last
    s = delta[:, None] + 2 * (rows.j0[:, None] + np.arange(law.shape[1]))
    out = np.zeros((len(law), int(s.max()) + 1))
    out[np.arange(len(law))[:, None], s] = law  # zero past a row's top
    return out[:, : int((delta + 2 * rows.top).max()) + 1]


def _ends(system: ScoringSystem, rows: Rows, p_a, p_b) -> Game:
    """A table's rows as components, from one kernel evaluation."""
    ev = evaluate_servers(system, rows, p_a, p_b)
    mean = var = np.zeros_like(ev.r_var)
    if system is ScoringSystem.SIDE_OUT:
        # s = 2R - delta from the interruption count R = j + delta
        mean, var = 2.0 * ev.r_mean - (~rows.server_last)[:, None], 4.0 * ev.r_var
    return Game(rows.alpha, rows.beta, ev.weight, mean, var, lambda q: shift_laws(system, rows, q))


def game(config: GameConfig, p_a, p_b) -> Game:
    """The game table of `config` at each point of the arrays (p_a, p_b),
    from one kernel evaluation per table: `table(n)`, and with a tie-break
    l also `tied(n-1)` and `table(l)`."""
    n, ell, system = config.n, config.tiebreak, config.system
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

    def shift_laws(q: float) -> np.ndarray:
        lt, le, lr = tie.shift_laws(q), ext.shift_laws(q), ends.shift_laws(q)[keep]
        laws = np.array([np.convolve(lt[i], le[j]) for i, j in zip(t, e)])
        return np.concatenate([np.pad(lr, ((0, 0), (0, laws.shape[1] - lr.shape[1]))), laws])

    regular = [ends.alpha, ends.beta, ends.weight, ends.shift_mean, ends.shift_var]
    return Game(*(np.concatenate([x[keep], y]) for x, y in zip(regular, pairs)), shift_laws)


def interruption_polynomial(rows: Rows, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The side-out interruption polynomial P(q) = sum_s c_s q^s of every row
    (c_s the coefficient of q^(j0 + s)) at each exchange probability of the
    array q, best given in extended precision: log P(q), and the mean and
    variance of s under the terms, each of shape (rows, points).  A tally's
    log-probability is log P(q) plus alpha log(p_a/(1-q)) + beta
    log(p_b/(1-q)) + [receiver last] log q_a + j0 log q, with p_a the first
    server's: apart from this closed form it depends on (p_a, p_b) through
    q = q_a q_b alone."""
    q = np.atleast_1d(np.asarray(q))

    def block(sub: Rows, sl: slice):
        shift, total, s_mean, s_var = _polynomial(sub, _log(q[sl]), None)
        return shift + np.log(total), s_mean, s_var

    return tuple(_blocked(rows, q.size, [(), (), ()], block))


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
    more."""
    l = np.asarray(l, dtype=float)
    terms = np.zeros((l.size, points))
    np.log1p(l[:, None] / np.arange(1, points), out=terms[:, 1:])
    return np.add.accumulate(terms, axis=1)


def interruption_law(rows: Rows, q: float) -> np.ndarray:
    """Normalized weights of j = j0 .. top of every row at exchange
    probability q, shape (rows, terms) with zeros past each row's top: the
    law of the interruption count given the tally (the score weight factors
    out of it)."""
    terms = _scaled_terms(rows, _log(np.array([q])), None)[1][:, :, 0]
    return terms / terms.sum(axis=1, keepdims=True)
