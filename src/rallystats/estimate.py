"""Likelihood evaluation and maximum-likelihood estimation of (p_a, p_b)
from observed side-out games.

Two likelihoods are offered: score-only (the final tally of each game) and
score-plus-duration (tally times the conditional probability of the
observed rally count).  The joint score/duration probability collapses to
p_a^alpha p_b^beta q_a^delta q^m H(m) with a parameter-free combinatorial
count H(m) of the m extra rally pairs, so with durations the
log-likelihood is k_pa log p_a + k_qa log q_a + k_pb log p_b + k_qb log q_b
+ const and its maximizer is a ratio of counts: rallies won on serve over
rallies served, for each player (one pooled ratio in the no-server model).
Score only, m is missing data.  Summed over a batch, the log-likelihood
is k_pa log(p_a/(1-q)) + k_pb log(p_b/(1-q)) + k_qa log q_a + k_qb log q_b
+ J0 log q + sum_r c_r log P_r(q), with c_r the count of distinct tally r
(first servers pooled), J0 the sum of c_r j0_r and P_r the tally's
interruption polynomial (`kernel.interruption_polynomial`).  Only the last
term needs the kernel, and it depends on (p_a, p_b) through q = q_a q_b
alone.  The polynomials also give the mean and variance of m, hence the
exact score (Fisher's identity) and information (Louis's formula) for
grid-started projected Newton steps, which carry their iterate, score and
information as Python floats and solve the 2 x 2 (or 1 x 1) system in
closed form.

Records reach the likelihood as a `RecordBatch`, aligned columns that
`records_from_sample` copies from a simulated batch and
`records_from_json_lines` parses into.  A batch owns its columns, so its
reduction (`_reduced`: first-server coordinates, exponent totals, the
lead check, and the distinct tallies in first-seen order with each
record's index and their counts) is formed once, by the first likelihood
that needs it, and both likelihoods read it.  Each distinct tally has one
entry in a cache of 1024 tallies (`_tallies`): its row of
`kernel.tallies` and, once a fit of a model needs it, its polynomial at
that model's start grid.  A set-up fills the entries it misses with one
`kernel.tallies` call, and a grid step the grid rows it misses with one
`kernel.interruption_polynomial` call; a row has the same bits whatever
rows are evaluated with it.  The E-step has one grid path and one point
path.  The grid path (`grid_e_step`) serves the 17 x 17 start grid,
which is fixed, and so are its 153 distinct q (transposed points share
q): it stacks the tallies' kept grid rows in first-seen order.  The point
path (`e_step`) serves each Newton point: the tallies' kernel rows,
assembled from their entries and padded with -inf as `kernel.tallies`
pads them, go to the kernel's evaluator at the point's one q, an
extended-precision scalar, without the public function's checks.  Both
add the tallies' count-weighted terms with `kernel.total`, so a
start-grid point gets the same bits on either path.

log H(m) depends on the tally and m alone, so it is kept per tally in
blocks of 64 consecutive m, each a read-only row of a cache of 1024 rows
(`_log_h_cache`, 512 B a row).  A set-up fills the blocks it misses with
one batched `_log_h` over their (tally, block) pairs, each entry the
reduction of its own terms, reads each record's value from its row and
adds the values in record order with `kernel.total`, with the bits of a
`_log_h` call on the record's tally alone.  A block takes the same memory
at any m (a cold fit of one record peaks at 70 kB under `tracemalloc`
from 10^3 to 10^9 rallies, a warm one at 8 kB).  Both caches evict the
entries filled first.

Duration information enters the conditional duration law only through q,
so in the two-parameter server model the duration term mostly sharpens q;
identification of the pair still rests on the score component.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
import json
import math
import numbers
import threading
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from . import kernel
from .core import (
    DomainError,
    InfeasibleData,
    NonConvergence,
    Player,
    RallyProbs,
    TerminalScore,
    expect,
)

_BOUND_DELTA = 1e-9
_PARAM_TOL = 1e-7
_GRID = np.linspace(-8.0, 8.0, 17)  # Newton starts, logit of each coordinate
_MAX_STEPS = 100
_STEP_TOL = 1e-10  # logit units
_GAIN_TOL = 1e-14  # relative to 1 + |log-likelihood|
_DTYPES = (bool, np.int64, np.int64, bool, float)  # of the `RecordBatch` columns
_H_BLOCK = 64  # consecutive m per cached row of log H(m)
_FILL = 1 << 18  # the most (entries x terms) elements of one `_log_h` call filling the cache
# the float duration column holds every whole number up to 2^53 in
# magnitude, and no more: a larger count would be rounded before its parity
# is checked
_EXACT = 2**53


class FitMode(enum.Enum):
    SCORE_ONLY = "score"
    SCORE_DURATION = "score-duration"


class FitModel(enum.Enum):
    SERVER = "server"
    NO_SERVER = "no-server"


def _count(d: dict, key: str, low: int = -(2**63), high: int = 2**63 - 1) -> int:
    """The whole number d[key], in [low, high] (by default the range of the
    int64 columns of a `RecordBatch`), or ValueError."""
    value = d[key]
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{key}={value!r} is not an integer")
    if not low <= value <= high:
        raise ValueError(f"{key}={value!r} is out of range")
    return int(value)


def records_to_json_lines(records: RecordBatch) -> str:
    """The JSON lines of a record batch, one object per game with its keys
    sorted and no `duration` where the rally count is NaN: the lines
    `records_from_json_lines` reads."""
    expect(records, RecordBatch, "records")
    lines = []
    for first_a, alpha, beta, last_a, duration in zip(*(getattr(records, f.name).tolist() for f in fields(records))):
        d = {"first_server": "A" if first_a else "B", "alpha": alpha, "beta": beta, "last_scorer": "A" if last_a else "B"}
        if not math.isnan(duration):
            d["duration"] = int(duration)
        lines.append(json.dumps(d, sort_keys=True) + "\n")
    return "".join(lines)


def records_from_json_lines(lines) -> RecordBatch:
    """The record batch of JSON lines, one object per game as
    `records_to_json_lines` writes it, parsed straight into columns.  Blank
    lines are skipped and not counted, so record i is the batch's record
    i.  A line that does not parse, whose score `TerminalScore` refuses,
    or whose duration is not a whole number of magnitude at most 2^53
    (the counts a `RecordBatch` holds exactly), raises `InfeasibleData`
    naming its record; text that does not decode raises it naming the
    lines read before it."""
    cols = ([], [], [], [], [])
    i = -1
    try:
        for i, line in enumerate(expect(lines, Iterable, "lines")):
            try:
                line = expect(line, str, "line").strip()
                if not line:
                    continue
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise ValueError(f"expected a JSON object, got {type(d).__name__}")
                first_a = Player(d["first_server"]) is Player.A
                alpha, beta = _count(d, "alpha"), _count(d, "beta")
                last_a = Player(d["last_scorer"]) is Player.A
                if min(alpha, beta) < 0 or (alpha if last_a else beta) < 1:
                    TerminalScore(alpha, beta, Player.A if last_a else Player.B)  # raises its DomainError
                duration = _count(d, "duration", -_EXACT, _EXACT) if d.get("duration") is not None else math.nan
            except (KeyError, ValueError) as exc:
                raise InfeasibleData(f"record {len(cols[0])}: cannot parse ({exc})") from exc
            for col, value in zip(cols, (first_a, alpha, beta, last_a, duration)):
                col.append(value)
    except UnicodeDecodeError as exc:
        # a text file decodes a block at a time, so the bad byte is at or
        # after the line that follows the last one read
        raise InfeasibleData(f"reading stopped after {i + 1} lines: not {exc.encoding} text ({exc.reason})") from exc
    return RecordBatch(*(np.array(c, dtype=t) for c, t in zip(cols, _DTYPES)))


def _column(values, dtype, kinds: str, what: str) -> np.ndarray:
    col = np.asarray(values)
    if col.ndim != 1 or (col.size and col.dtype.kind not in kinds):
        raise DomainError(f"{what} must be a 1-D array of kind {kinds!r}, got {col.dtype} of shape {col.shape}")
    # a copy, so a later write to the caller's array leaves the batch as it
    # was checked, and its reduction as it was cached
    col = col.astype(dtype)
    col.setflags(write=False)
    return col


@dataclass(frozen=True)
class _Reduction:
    """A record batch in first-server coordinates, by column arithmetic:
    each record's points of the first server (a) and of the receiver (b)
    and whether the first server scored last; the exponents of log p_a,
    log q_a, log p_b and log q_b, less m (k); whether each record's last
    scorer fails to lead (trailing); and the distinct tallies (a, b,
    server_last) in first-seen order, first servers pooled, with each
    record's index among them (tally) and their counts."""

    a: np.ndarray
    b: np.ndarray
    server_last: np.ndarray
    k: tuple[int, int, int, int]
    trailing: np.ndarray
    tallies: list[tuple[int, int, bool]]
    tally: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """Observed games as aligned read-only columns, copied from the arrays
    given: whether A served first, the final tally (alpha for A, beta for
    B), whether A scored last, and the rally count (NaN where it was not
    observed); `len` is the number of games.  Scores are checked as
    `TerminalScore` checks them, and durations must be whole numbers of
    magnitude at most 2^53, which the float column holds exactly, or NaN.
    Since the batch owns its columns, its reduction (`_reduced`) is
    formed once, by the first likelihood that needs it."""

    first_server_a: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    last_scorer_a: np.ndarray
    duration: np.ndarray

    def __post_init__(self):
        cols = (
            _column(self.first_server_a, bool, "b", "first_server_a"),
            _column(self.alpha, np.int64, "iu", "alpha"),
            _column(self.beta, np.int64, "iu", "beta"),
            _column(self.last_scorer_a, bool, "b", "last_scorer_a"),
            _column(self.duration, float, "iuf", "duration"),
        )
        if len({len(c) for c in cols}) > 1:
            raise DomainError(f"columns of unequal lengths {[len(c) for c in cols]}")
        for name, col in zip(("first_server_a", "alpha", "beta", "last_scorer_a", "duration"), cols):
            object.__setattr__(self, name, col)
        _, alpha, beta, last_a, dur = cols
        bad = (alpha < 0) | (beta < 0) | (np.where(last_a, alpha, beta) < 1)
        # a rally count is a whole number the column holds exactly, as the JSON reader takes it
        out_of_range = ~np.isnan(dur) & (np.abs(dur) > _EXACT)
        bad |= out_of_range | (~np.isnan(dur) & (dur != np.floor(dur)))
        if bad.any():
            i = int(np.argmax(bad))
            try:
                TerminalScore(int(alpha[i]), int(beta[i]), Player.A if last_a[i] else Player.B)
            except DomainError as exc:
                raise DomainError(f"record {i}: {exc}") from None
            why = "out of range" if out_of_range[i] else "not a whole number"
            raise DomainError(f"record {i}: duration {dur[i]} is {why}")

    def __len__(self) -> int:
        return len(self.alpha)

    @functools.cached_property
    def _reduced(self) -> _Reduction:
        """The batch's `_Reduction`, of a batch with records."""
        first_a = self.first_server_a
        a = np.where(first_a, self.alpha, self.beta)  # the first server's points
        b = np.where(first_a, self.beta, self.alpha)  # the receiver's
        server_last = self.last_scorer_a == first_a
        receiver_last = ~server_last
        k = (
            int(self.alpha.sum()), int(np.count_nonzero(receiver_last & first_a)),
            int(self.beta.sum()), int(np.count_nonzero(receiver_last & ~first_a)),
        )
        trailing = np.where(server_last, a <= b, b <= a)
        # distinct tallies in first-seen order, and each record's among them
        key = (a * (int(b.max()) + 1) + b) * 2 + server_last
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        tally = np.argsort(order)[inverse]
        seen = first[order]
        tallies = list(zip(a[seen].tolist(), b[seen].tolist(), server_last[seen].tolist()))
        counts = np.bincount(tally).astype(float)
        for arr in (a, b, server_last, trailing, tally, counts):
            arr.setflags(write=False)
        return _Reduction(a, b, server_last, k, trailing, tallies, tally, counts)


def records_from_sample(sample) -> RecordBatch:
    """The record batch of a simulate.GameSample batch, column for column."""
    from .simulate import GameSample  # the estimate command loads no simulator

    expect(sample, GameSample, "sample")
    return RecordBatch(sample.first_server_a, sample.alpha, sample.beta, sample.winner_a, sample.duration)


class _Cache:
    """A map of at most `size` entries, the first filled evicted first,
    whose misses among a call's keys one call of `fill` computes:
    fill(keys) gives their values in order.  A hit is one dict read, atomic
    without a lock; a lock guards the writes, not the fill, so concurrent
    calls may fill a key twice, with the same value.  A value a call
    returns stays whole after its eviction."""

    def __init__(self, size: int, fill):
        self.size, self._fill = size, fill
        self._map, self._lock = collections.OrderedDict(), threading.Lock()

    def get(self, keys: list) -> list:
        """The values of distinct keys, in order."""
        values = [self._map.get(key) for key in keys]
        missing = [key for key, value in zip(keys, values) if value is None]
        if missing:
            filled = self._fill(missing)
            with self._lock:
                self._map.update(zip(missing, filled))
                while len(self._map) > self.size:
                    self._map.popitem(last=False)
            filled = iter(filled)
            values = [next(filled) if value is None else value for value in values]
        return values

    def clear(self) -> None:
        with self._lock:
            self._map.clear()

    def __len__(self) -> int:
        return len(self._map)


@dataclass(frozen=True)
class _Tally:
    """A tally's entry of `_tallies`: its row of `kernel.tallies`, the
    tally (a, b, server_last) with its j0 and top, and the
    log-coefficients (read-only), and its start-grid polynomial row per
    model, keyed by the model's value and kept once a fit of that model
    needs it (`_grid_rows`)."""

    head: tuple[int, int, bool, int, int]
    logc: np.ndarray
    grid: dict


def _tally_entries(keys: list) -> list[_Tally]:
    """The `_Tally` entries of tallies, from one `kernel.tallies` call."""
    rows = kernel.tallies(keys)
    entries = []
    for key, logc, j0, top in zip(keys, rows.logc, rows.j0.tolist(), rows.top.tolist()):
        logc = logc[: top - j0 + 1].copy()
        logc.setflags(write=False)
        entries.append(_Tally((*key, j0, top), logc, {}))
    return entries


# 1024 tallies, each a few hundred bytes and 3.7 kB a model once a score-only fit needs it
_tallies = _Cache(1024, _tally_entries)


def _rows(entries: list[_Tally]) -> kernel.Rows:
    """The kernel rows of tallies' entries, in their order: their
    log-coefficients padded with -inf to the widest, as `kernel.tallies`
    pads them."""
    heads = itertools.chain.from_iterable(e.head for e in entries)
    alpha, beta, server_last, j0, top = np.fromiter(heads, np.int64, 5 * len(entries)).reshape(-1, 5).T
    width = top - j0 + 1
    logc = np.full((len(entries), int(width.max())), -np.inf)
    # row by row, the first `width` entries of each: the coefficients in order
    logc[np.arange(logc.shape[1]) < width[:, None]] = np.concatenate([e.logc for e in entries])
    return kernel.Rows(alpha, beta, server_last.astype(bool), j0, top, logc)


def _log_h(rows: kernel.Rows, m, tally=None) -> np.ndarray:
    """log H(m) at each entry of the array m, of the tally in row tally[i]
    of `rows` for entry i (row 0 for every entry when tally is None): the
    number-weight of trajectories with m extra rally pairs beyond the
    scored points, a convolution over the l exchanges of C(a+b+l-1, l)
    with the kernel coefficient of q^(m-l).  The binomials are one
    `kernel.log_exchange_binom` table at the distinct l the entries need,
    whose column of a points total does not depend on the columns formed
    with it.  The terms of all entries form one (entries, j) array, -inf
    outside each entry's j = j0 .. min(top, m), reduced in the order of j;
    a -inf term leaves a sum of logs unchanged to the last bit, so each
    entry gets the bits of its own terms alone, whatever entries and
    tallies share the call."""
    m = np.atleast_1d(np.asarray(m))
    tally = np.zeros(len(m), dtype=np.int64) if tally is None else tally
    j0, top = rows.j0[tally][:, None], rows.top[tally][:, None]
    points = (rows.alpha + rows.beta)[tally]
    j = np.arange(min(int(top.max()), int(m.max())) + 1)
    l, s = m[:, None] - j, j - j0
    # np.unique sorts when asked for counts; without them it hashes and imports numpy.ma
    m_distinct = np.unique(m, return_counts=True)[0]
    distinct = np.unique(np.maximum(m_distinct[:, None] - j, 0), return_counts=True)[0]  # every entry's l
    exchanges = kernel.log_exchange_binom(int(points.max()), distinct)
    log_exchanges = exchanges[np.searchsorted(distinct, np.maximum(l, 0)), points[:, None] - 1]
    logc = rows.logc[tally[:, None], np.clip(s, 0, rows.logc.shape[1] - 1)]
    return np.logaddexp.reduce(np.where((s >= 0) & (j <= top) & (l >= 0), log_exchanges + logc, -np.inf), axis=1)


def _log_h_blocks(pairs: list) -> list[np.ndarray]:
    """log H(m) of each pair (a, b, server_last, block), a tally and a
    block, at m = block _H_BLOCK .. (block + 1) _H_BLOCK - 1, read-only
    (512 B each), from one batched `_log_h` over the pairs (more only past
    `_FILL` elements) on their tallies' rows of `_tallies`: each entry is
    the reduction of its own terms, so a record reads the bits a call on
    its tally alone gives."""
    keys = list(dict.fromkeys(pair[:3] for pair in pairs))
    rows, where = _rows(_tallies.get(keys)), {t: i for i, t in enumerate(keys)}
    tally = np.array([where[pair[:3]] for pair in pairs])
    m = np.array([pair[3] for pair in pairs])[:, None] * _H_BLOCK + np.arange(_H_BLOCK)
    step = max(1, _FILL // (_H_BLOCK * (int(rows.top.max()) + 1)))
    out = []
    for i in range(0, len(pairs), step):
        values = _log_h(rows, m[i : i + step].ravel(), np.repeat(tally[i : i + step], _H_BLOCK))
        for row in values.reshape(-1, _H_BLOCK):
            row = row.copy()  # its own memory, as the cache counts it
            row.setflags(write=False)
            out.append(row)
    return out


# 1024 blocks, 512 B each
_log_h_cache = _Cache(1024, _log_h_blocks)


def _infeasible(batch: RecordBatch, i: int, check: int) -> str:
    """Why record `i` of `batch` fails check `check` of `_Likelihood`, in
    the order checked."""
    tally, duration = f"({batch.alpha[i]}, {batch.beta[i]})", f"{batch.duration[i]:.0f}"
    return (
        f"last scorer of a completed game must hold the higher tally {tally}",
        "duration required for score-and-duration fit",
        f"duration {duration} infeasible for tally {tally} with first server "
        f"{'A' if batch.first_server_a[i] else 'B'} (wrong parity or too short)",
        f"duration {duration} carries zero probability",
    )[check]


def _bases(p_a, p_b):
    """q at each point of the arrays (p_a, p_b), or at the point of two
    floats, and the closed-form terms of the E-step there: log(p_a/(1-q)),
    log(p_b/(1-q)), log q_a, log q_b, log q, q/(1-q) and q/(1-q)^2.  The
    bases are exact in extended precision, as in the kernel: arrays of
    `np.longdouble` for arrays, its scalars for floats.  One set of bases,
    with 1 - q in A's coordinates, is all the likelihood needs; the
    kernel's `_bases` forms those of both first servers and more, and
    would slow each Newton point."""
    x, y = np.longdouble(p_a), np.longdouble(p_b)
    q_a, q_b = 1.0 - x, 1.0 - y
    q, one_minus_q = q_a * q_b, kernel.one_minus_q(x, y)
    # np.float64 rounds a scalar or an array alike, and a scalar in a fifth of the time of astype
    logs = (np.float64(np.log(v)) for v in (x / one_minus_q, y / one_minus_q, q_a, q_b, q))
    odds = np.float64(q / one_minus_q)
    return q, (*logs, odds, np.float64(odds / one_minus_q))


@dataclass(frozen=True)
class _StartGrid:
    """A model's start grid: its points in logit coordinates, the distinct
    q among them with each point's index into those, and the `_bases` of
    the points."""

    theta: np.ndarray
    q: np.ndarray
    where: np.ndarray
    bases: tuple


@functools.lru_cache(maxsize=None)
def _start_grid(model: FitModel) -> _StartGrid:
    theta = np.stack([g.ravel() for g in np.meshgrid(*[_GRID] * (2 if model is FitModel.SERVER else 1))])
    q, bases = _bases(*_probs(1.0 / (1.0 + np.exp(-theta)), model))
    distinct, where = np.unique(q, return_inverse=True)
    for arr in (theta, distinct, where, *bases):
        arr.setflags(write=False)
    return _StartGrid(theta, distinct, where, bases)


def _grid_rows(entries: list[_Tally], model: FitModel) -> np.ndarray:
    """log P, and the mean and variance of s, of each tally's polynomial at
    the distinct q of the model's start grid, (tallies, 3, q): each the
    row `kernel.interruption_polynomial` gives it, whose bits do not
    depend on the rows evaluated with it (3.7 kB each).  The entries
    without one get theirs from one kernel call and keep it, read-only."""
    key = model.value  # a str, whose hash is kept
    missing = [e for e in entries if key not in e.grid]
    if missing:
        poly = np.stack(kernel.interruption_polynomial(_rows(missing), _start_grid(model).q), axis=1)
        for e, row in zip(missing, poly):
            row = row.copy()
            row.setflags(write=False)
            e.grid[key] = row
    return np.array([e.grid[key] for e in entries])


class _Likelihood:
    """A record batch's reduction (`RecordBatch._reduced`) checked for the
    mode, and either the extra rally pairs with log H(m) or the counts of
    its distinct tallies with their kernel rows."""

    def __init__(self, batch: RecordBatch, mode: FitMode):
        expect(batch, RecordBatch, "records")
        if not len(batch):
            raise InfeasibleData("no records")
        self.mode = mode
        reduced = batch._reduced
        self.k, self.tallies = reduced.k, reduced.tallies
        failed = [reduced.trailing]  # the last scorer must lead
        if mode is FitMode.SCORE_DURATION:
            a, b, server_last = reduced.a, reduced.b, reduced.server_last
            missing = np.isnan(batch.duration)
            span = np.where(missing, 0.0, batch.duration) - a - b - ~server_last
            m = span // 2
            j0 = server_last & (b > 0)  # the tally's fewest interruption pairs, below which H(m) vanishes
            failed += [missing, ~missing & ((span < 0) | (span % 2 != 0)), ~missing & (m < j0)]
        failed = np.stack(failed)
        if failed.any():
            i = int(np.argmax(failed.any(axis=0)))
            raise InfeasibleData(f"record {i}: {_infeasible(batch, i, int(np.argmax(failed[:, i])))}")
        if mode is FitMode.SCORE_DURATION:
            m = m.astype(np.int64)
            self.m = sum(m.tolist())  # extra rally pairs, a Python int: an int64 sum could wrap
            # each record's log H(m) from its tally's cached block: the
            # records sorted by (block, tally), the first of each pair marked
            # and each record's pair counted, and the values added in record
            # order
            blk, tally = m // _H_BLOCK, reduced.tally
            order = np.lexsort((tally, blk))
            blk, tally = blk[order], tally[order]
            first = np.ones(len(m), dtype=bool)
            first[1:] = (blk[1:] != blk[:-1]) | (tally[1:] != tally[:-1])
            key = np.empty(len(m), dtype=np.int64)
            key[order] = np.cumsum(first) - 1
            pairs = [(*self.tallies[t], b) for b, t in zip(blk[first].tolist(), tally[first].tolist())]
            table = np.array(_log_h_cache.get(pairs))
            self.log_h_total = float(kernel.total(table[key, m % _H_BLOCK]))
        else:
            self.entries = _tallies.get(self.tallies)
            self.rows = _rows(self.entries)
            self.counts = reduced.counts
            self.j0_total = float(self.counts @ self.rows.j0)

    def e_step(self, p_a: float, p_b: float):
        """Score-only log-likelihood at the point of the two floats (p_a, p_b),
        and the mean and variance of the extra rally pairs M given the
        tallies: per tally, the kernel's interruption count less [receiver
        scores last] plus NB(alpha + beta, q) exchanges (both totals are
        exponents in self.k).  The kernel's evaluator takes the tallies'
        rows at the point's one q, with no checks (the rows are the
        kernel's and q is a rally probability's), and the rows add in the
        order of `grid_e_step`, so a point gets the bits it gets there."""
        q, bases = _bases(p_a, p_b)
        return self._combine(bases, [kernel.total(self.counts * v) for v in kernel._interruption(self.rows, q)])

    def grid_e_step(self, model: FitModel):
        """`e_step` at every point of the model's start grid, as arrays, from
        the tallies' kept rows (`_grid_rows`) stacked in first-seen order
        and added over the tallies at each distinct q of the grid."""
        grid = _start_grid(model)
        poly = _grid_rows(self.entries, model)  # (tallies, 3, distinct q), a new array
        poly *= self.counts[:, None, None]
        return self._combine(grid.bases, kernel.total(poly)[:, grid.where])

    def _combine(self, bases, sums):
        """The E-step from the closed-form `_bases` of the points and the
        count-weighted sums over the tallies of log P and of the mean and
        variance of s there.  A term whose exponent is 0 is 0, also where
        its base vanishes (0 log 0 = 0)."""
        k_pa, k_qa, k_pb, k_qb = self.k
        *logs, odds, odds_var = bases  # log x, log y, log q_a, log q_b, log q
        ll = sum(k * v if k else 0.0 for k, v in zip((k_pa, k_pb, k_qa, k_qb, self.j0_total), logs)) + sums[0]
        mean = self.j0_total + sums[1] + (k_pa + k_pb) * odds
        return ll, mean, sums[2] + (k_pa + k_pb) * odds_var

    def __call__(self, p_a: float, p_b: float) -> float:
        RallyProbs(p_a, p_b)  # reals in [0, 1], or DomainError
        if p_a == p_b == 0.0:
            return -np.inf  # no rally is ever won, so no game ends
        with np.errstate(divide="ignore"):  # log 0 = -inf, where a term's exponent is not 0
            if self.mode is FitMode.SCORE_ONLY:
                return float(self.e_step(p_a, p_b)[0])
            won, served = (np.array(v, dtype=float) for v in _serve_counts(self.k, self.m, FitModel.SERVER))
            p = np.array([p_a, p_b])
            # 0 log 0 = 0: a base whose exponent is 0 is read as 1
            log_p, log_q = np.log(np.where(won > 0, p, 1.0)), np.log1p(np.where(served > won, -p, 0.0))
        return float(won @ log_p + (served - won) @ log_q) + self.log_h_total


def loglik_score(records: RecordBatch, p_a: float, p_b: float) -> float:
    """Log-likelihood of the final tallies alone, also where p_a or p_b is
    0 or 1 (with 0 log 0 = 0; -inf for data that are impossible there).
    Raises DomainError for a p_a or p_b that is not a real in [0, 1], as
    `RallyProbs` does."""
    return _Likelihood(records, FitMode.SCORE_ONLY)(p_a, p_b)


def loglik_score_duration(records: RecordBatch, p_a: float, p_b: float) -> float:
    """Joint log-likelihood of tallies and observed rally counts, at p_a and
    p_b as `loglik_score` takes them."""
    return _Likelihood(records, FitMode.SCORE_DURATION)(p_a, p_b)


@dataclass(frozen=True)
class FitResult:
    """Estimates and their log-likelihood.  `converged` is always true: a
    fit that does not converge raises `NonConvergence` instead.
    `newton_steps` counts the Newton systems solved (0 for the closed-form
    score-and-duration fit) and `evaluations` the parameter points at which
    the log-likelihood was evaluated, start grid included."""

    p_a: float
    p_b: float
    log_likelihood: float
    converged: bool
    boundary: bool
    mode: FitMode
    model: FitModel
    newton_steps: int
    evaluations: int

    @property
    def p(self) -> float:
        """No-server parameter (meaningful when model is NO_SERVER)."""
        return self.p_a


def _serve_counts(k, m, model: FitModel) -> tuple[tuple, tuple]:
    """Rallies won on serve and rallies served per parameter, given m extra
    rally pairs, as tuples of Python numbers (whole numbers for an integer
    m, exact at any size): their ratio is the complete-data maximizer,
    and int / int rounds it once.  In the no-server model a rally lost on
    B's serve is won by A."""
    k_pa, k_qa, k_pb, k_qb = k
    if model is FitModel.SERVER:
        return (k_pa, k_pb), (k_pa + k_qa + m, k_pb + k_qb + m)
    return (k_pa + k_qb + m,), (k_pa + k_qa + k_pb + k_qb + 2 * m,)


def _probs(x, model: FitModel):
    """(p_a, p_b) of a parameter vector (or of its columns)."""
    return (x[0], x[1]) if model is FitModel.SERVER else (x[0], 1.0 - x[0])


def _score_information(k, x, mean: float, var: float, model: FitModel) -> tuple[tuple, tuple]:
    """Score-only logit score won - served p at E[M] (Fisher's identity) and
    observed information diag(served p (1 - p)) - Var[M] w w^T, w the
    derivative of that score in M (Louis's formula), on floats: the score
    as a tuple and the information as a tuple of rows, in (p_a, p_b) with
    w = -x in the server model and in p with w = 1 - 2p in the no-server
    model."""
    k_pa, k_qa, k_pb, k_qb = k
    if model is FitModel.SERVER:
        x_a, x_b = x
        served_a, served_b = k_pa + k_qa + mean, k_pb + k_qb + mean
        cross = -(var * (x_a * x_b))
        return (k_pa - served_a * x_a, k_pb - served_b * x_b), (
            (served_a * x_a * (1.0 - x_a) - var * (x_a * x_a), cross),
            (cross, served_b * x_b * (1.0 - x_b) - var * (x_b * x_b)),
        )
    (x_a,) = x
    served, w = k_pa + k_qa + k_pb + k_qb + 2 * mean, 1.0 - 2.0 * x_a
    return (k_pa + k_qb + mean - served * x_a,), ((served * x_a * (1.0 - x_a) - var * (w * w),),)


def _newton_step(score: tuple, info: tuple, free: list[bool]) -> list[float]:
    """The Newton step, info^-1 score on the free coordinates and 0 on the
    others, in closed form.  An information block whose smallest eigenvalue
    lies below 1e-12 (1 + its trace) is shifted up by that floor less twice
    the eigenvalue where it is negative; that eigenvalue is the entry of a
    1 x 1 block and tr/2 - hypot((a - d)/2, b) of a 2 x 2 block [[a, b],
    [b, d]], which is then solved by Cramer's rule."""
    step = [0.0] * len(score)
    idx = [i for i, f in enumerate(free) if f]
    if len(idx) == 1:
        (i,) = idx
        a = info[i][i]
        floor = 1e-12 * (1.0 + a)
        if a < floor:
            a += floor - 2.0 * min(a, 0.0)
        step[i] = score[i] / a
    elif idx:
        (a, b), (_, d) = info
        tr = a + d
        floor, low = 1e-12 * (1.0 + tr), tr / 2.0 - math.hypot((a - d) / 2.0, b)
        if low < floor:
            shift = floor - 2.0 * min(low, 0.0)
            a, d = a + shift, d + shift
        det = a * d - b * b
        step = [(score[0] * d - b * score[1]) / det, (a * score[1] - b * score[0]) / det]
    return step


def _logistic(theta: list[float]) -> list[float]:
    return [1.0 / (1.0 + math.exp(-v)) for v in theta]


def _newton(lik: _Likelihood, model: FitModel, lo: float, hi: float) -> tuple[list[float], float, int, int]:
    """Projected Newton steps in logit coordinates on [lo, hi] from the best
    point of a grid (the likelihood can have a second maximum on a ray to a
    corner), holding a coordinate on a bound while its score points out.
    The iterate, score and information are Python floats.  Returns the
    estimate, its log-likelihood, the steps taken and the points
    evaluated."""
    bound = math.log(hi / lo)  # on the logit scale, [lo, hi] is [-bound, bound]
    grid = _start_grid(model).theta
    ll, mean, var = lik.grid_e_step(model)
    evaluations = grid.shape[1]
    best = int(np.argmax(ll))
    theta, ll, mean, var = grid[:, best].tolist(), float(ll[best]), float(mean[best]), float(var[best])
    x = _logistic(theta)
    for steps in range(1, _MAX_STEPS + 1):
        score, info = _score_information(lik.k, x, mean, var, model)
        free = [not (v <= -bound and g < 0.0 or v >= bound and g > 0.0) for v, g in zip(theta, score)]
        step = _newton_step(score, info, free)
        # end the step just past the first bound it meets, where the clip holds that coordinate
        room = min(
            (((bound if s > 0.0 else -bound) - v) / s for v, s in zip(theta, step) if s != 0.0 and -bound < v < bound),
            default=math.inf,
        )
        t = min(1.0, 1.000001 * room)
        # gains below the rounding of the log-likelihood cannot be resolved
        tol = _GAIN_TOL * (1.0 + abs(ll))
        while True:
            theta_new = [min(max(v + t * s, -bound), bound) for v, s in zip(theta, step)]
            x_new = _logistic(theta_new)
            ll_new, mean_new, var_new = (float(v) for v in lik.e_step(*_probs(x_new, model)))
            evaluations += 1
            if ll_new >= ll - tol:
                break
            t /= 2.0  # the likelihood dropped
            if t * max(map(abs, step)) < _STEP_TOL:
                return x, ll, steps, evaluations
        gain, moved = ll_new - ll, max(abs(u - v) for u, v in zip(theta_new, theta))
        theta, x, ll, mean, var = theta_new, x_new, ll_new, mean_new, var_new
        if moved < _STEP_TOL or gain <= tol:
            return x, ll, steps, evaluations
    raise NonConvergence(f"no convergence within {_MAX_STEPS} Newton steps")


def fit(records: RecordBatch, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER) -> FitResult:
    """Maximize the selected log-likelihood over [delta, 1-delta]^2 (or the
    no-server diagonal p_a = 1 - p_b).  Score and duration: the ratio of
    counts, clamped to that box (0.5 for a player who never served).
    Score only: grid-started projected Newton.  Deterministic given the
    data."""
    expect(mode, FitMode, "mode")
    expect(model, FitModel, "model")
    lik = _Likelihood(records, mode)
    lo, hi = _BOUND_DELTA, 1.0 - _BOUND_DELTA
    if mode is FitMode.SCORE_DURATION:
        won, served = _serve_counts(lik.k, lik.m, model)
        x = [min(max(w / s, lo), hi) if s > 0 else 0.5 for w, s in zip(won, served)]
        ll, steps, evaluations = lik(*_probs(x, model)), 0, 1
    else:
        x, ll, steps, evaluations = _newton(lik, model, lo, hi)
    p_a, p_b = (float(v) for v in _probs(x, model))
    boundary = any(min(v - lo, hi - v) <= _PARAM_TOL for v in x)
    return FitResult(
        p_a, p_b, float(ll), converged=True, boundary=boundary, mode=mode, model=model,
        newton_steps=steps, evaluations=evaluations,
    )

