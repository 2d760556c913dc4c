"""Rally-level Monte Carlo engine for both scoring systems.

Streams are split with numpy's SeedSequence, so a (master seed, stream
index) pair pins every uniform deviate: runs are reproducible bit for bit
and the child streams of a spec (`SeedSpec.child`) are independent
whatever the order they run in.  Every batch draws one uniform per live
game at each rally, in game index order: the sequence of deviates a loop
over all games with a mask of the live ones draws, so results are the
same, bit for bit, for every `SeedSpec`, and so is the generator's final
state.  One rally on arrays of games is written once (`_Rally`): the
players are labelled by serve strength, h the stronger server and l the
weaker, and a deviate below both serve probabilities is a rally won by
either server, one between them a rally won by h on serve, so a step is
one comparison chain on the flag "h serves", a score update of h and l,
and an end test on the two scores (a tie-break game has passed n-1 all
once both reach n-1).  Two loops play it, chosen by one predicate of the
batch size and the table size (`_plays_on_table`):

- A batch of at most B = `_TABLE_GAMES` (1600) games whose rules have at
  most 2^16 states (a top score of at most 180) plays on a rally state
  table (`_on_table`).  The table of (n, system, tie-break) is built once
  and cached: `_Rally.score` and `_Rally.ended` applied to every state
  (h serves, score_h, score_l), once with a rally won by the server and
  once with one lost, and a finished state absorbs.  Each game holds one
  table index, so a rally is seven numpy calls on whole arrays: place
  the live games' deviates, gather the serve thresholds, compare, add
  the flags to the indices, gather the next states, gather the end flags
  and count them.  At 200 games a numpy call costs its call overhead, not
  its elements, and the bool-mask loop this replaced took about 14 per
  rally.  The deviates come from one pool of doubles, a few n per game
  and at most `_CHUNK`, taken in the loop's order.  `SeedSpec.generator`
  makes a PCG64, which spends one 64-bit output per double and can jump
  ahead in its stream (`advance`; M. E. O'Neill, "PCG: A Family of Simple
  Fast Space-Efficient Statistically Good Algorithms for Random Number
  Generation", 2014): at a refill and at the end of the batch the
  generator is put back to the pool's start and advanced by the deviates
  used, so it draws and ends as one draw per live game per rally would.
- A larger batch, or one of a larger table, is played by one rally
  generator (`_rallies`) on arrays that hold only the games still in
  play, in blocks of `_BLOCK` consecutive games stepped in game order at
  every rally; a finished game leaves them.  On big arrays the table
  loop's whole-array calls cost more than dropping the finished games.
  The draw side hands a block one byte per live game, the flags of the
  rallies won by the server: it draws the uniforms `_CHUNK` (2^16) at a
  time into one scratch buffer and turns them into flags at once, so no
  uniform outlives its chunk, and the first servers are drawn the same
  way.  A block draws its flags on the calling thread just before it
  scores the rally, exactly its live count, so the draws run in the order
  of the loop.  No batch starts a thread.  The generator yields the games
  that end in a rally with their scores for A and B.

B is the measured crossover of the two loops: interleaved in process,
the table loop takes 0.69-0.76 of the compacting loop's time for
side-out games to 15 at (.6, .5) up to 1600 games and 1.00 at 2000, and
0.78-0.79 for rally-point games to 21 up to 1600 and 1.25 at 2000.
Against the loop of whole arrays with a mask of the finished games that
played every batch of up to 2^16 games before, `sample_games` takes
(side-out to 15, rally-point to 21, both at (.6, .5); two sessions):

    games        200        1000       2000       4000       10^4       2^16
    side-out     0.63-0.67  0.82-0.83  1.21-1.23  1.10-1.12  0.94-0.98  0.74-0.79
    rally-point  0.69       0.89-0.96  1.16       1.10-1.12  1.03-1.05  0.98-0.99

so the band from B to a few thousand games, which now compacts, is
slower, as are rally-point batches of 10^4, whose games all end within
n rallies of each other; 10^6 games through `run_experiment` take
0.95-1.05 of the time.

`sample_games` returns per-game outcome arrays, from which
`report_from_sample` forms the estimators; `run_experiment` reports a
table batch from its sample and otherwise keeps only each winner's count
of games by duration, from which the estimators are exact integer sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConfigError, DomainError, GameConfig, Player, RallyProbs, ScoringSystem, expect, expect_count, validate


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a stream index; equal specs reproduce equal runs."""

    master: int
    stream: int = 0

    def __post_init__(self):
        expect_count(self.master, "seed master", 0)
        expect_count(self.stream, "seed stream", 0)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.master, self.stream]))

    def child(self, index: int) -> "SeedSpec":
        # distinct stream per (stream, index) pair for index < 1_000_003;
        # count enforced so the children of different streams cannot collide
        expect_count(index, "child index", 0)
        if index >= 1_000_003:
            raise ConfigError("child index out of range")
        return SeedSpec(self.master, self.stream * 1_000_003 + index + 1)


@dataclass(frozen=True)
class GameSample:
    """Vectorized outcome arrays of a batch of independent games."""

    first_server_a: np.ndarray  # bool
    alpha: np.ndarray  # points by A
    beta: np.ndarray  # points by B
    winner_a: np.ndarray  # bool
    duration: np.ndarray  # rally counts


@dataclass(frozen=True)
class EstimatorReport:
    """Win-probability and duration estimators of a replication batch.

    Conditional entries are None when no game produced the conditioning
    winner.  Variances use the 1/count normalization.  Each estimator is
    formed from exact integer sums over the games (count, durations and
    squared durations) with one division, so it is the correctly rounded
    value of its formula whatever the number of games."""

    p_hat: dict[Player, float]
    e_hat: float
    v_hat: float
    e_hat_winner: dict[Player, float | None]
    v_hat_winner: dict[Player, float | None]
    replications: int
    wins: dict[Player, int]


_BLOCK = 2**18  # games per block of the compacting loop
_CHUNK = 2**16  # deviates per draw into a scratch buffer, and at most per pool
_TABLE_GAMES = 1600  # B: a batch of at most this many games plays on the state table
_TABLE_STATES = 2**16  # states of the largest table (a top score of 180)
_POOL = 3  # deviates per game and point of the target n in a table batch's pool


def _first_servers(rng: np.random.Generator, count: int, s_a: float) -> np.ndarray:
    """`count` first-server flags, True where A serves first (a deviate
    below `s_a`), drawn `_CHUNK` deviates at a time into the flags."""
    first_server_a = np.empty(count, dtype=bool)
    scratch = np.empty(min(count, _CHUNK))
    for start in range(0, count, _CHUNK):
        u = rng.random(out=scratch[: min(_CHUNK, count - start)])
        np.less(u, s_a, out=first_server_a[start : start + u.size])
    return first_server_a


class _Rally:
    """One rally on arrays of games, written once for both batch loops.

    The players are labelled by serve strength, h the stronger server and
    l the weaker (A on a tie), so a game's state is the flag "h serves" and
    the scores of h and l, in the smallest unsigned integer type that holds
    the top score."""

    def __init__(self, probs: RallyProbs, config: GameConfig):
        self.n, self.ell, self.system = config.n, config.tiebreak, config.system
        self.sideout = config.system is ScoringSystem.SIDE_OUT
        self.lo, self.hi = sorted((probs.p_a, probs.p_b))
        self.a_high = probs.p_a >= probs.p_b
        self.top = self.n if self.ell is None else self.n - 1 + self.ell
        self.dtype = np.min_scalar_type(self.top)
        self.states = 2 * (self.top + 1) ** 2  # (h serves, score_h, score_l), each score 0 to top

    def server_won(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The flags of the rallies won by the server from their deviates
        `u` and the flags `h` of h serving: a deviate below both serve
        probabilities is a rally won by either server, one between them a
        rally won by h on serve."""
        return ((u < self.hi) & h) | (u < self.lo)

    def score(self, won: np.ndarray, server_h: np.ndarray, score_h: np.ndarray, score_l: np.ndarray) -> np.ndarray:
        """Add each rally's point to its winner's score in place and return
        the flags of h serving next: a side-out rally lost by the server
        scores no point, a rally-point rally always scores."""
        h_rally = server_h == won  # h won the rally
        if self.sideout:
            score_h += h_rally & won
            score_l += won > h_rally  # l served and won
        else:
            score_h += h_rally
            score_l += ~h_rally
        return h_rally

    def ended(self, rally: int, score_h: np.ndarray, score_l: np.ndarray) -> np.ndarray | None:
        """The mask of the games over after `rally` rallies, or None before
        the n-th rally, when none can be.  Before n-1 all, whoever reaches
        n wins the game; so a game with both scores at n-1 or more has
        passed that tie, and with a tie-break it ends when one score
        reaches n-1+l.  The two scores alone tell when a game ends."""
        n, ell = self.n, self.ell
        if rally < n:
            return None
        done = np.maximum(score_h, score_l) >= n
        if ell is not None and rally >= 2 * n - 1:  # reaching n past n-1 all takes 2n-1 points
            done &= (np.minimum(score_h, score_l) < n - 1) | (np.maximum(score_h, score_l) >= n - 1 + ell)
        return done

    def by_player(self, score_h, score_l):
        """Scores of h and l as the scores of A and B."""
        return (score_h, score_l) if self.a_high else (score_l, score_h)


class _Table(NamedTuple):
    """The rally state table of one set of rules.  State s is (h serves,
    score_h, score_l) = divmod of s by (top+1)^2 and by top+1; a game holds
    2s, and entry 2s + won of each array belongs to state s, so that adding
    the flag of the rally won by the server picks the entry of a rally."""

    h: np.ndarray  # bool: h serves
    score_h: np.ndarray
    score_l: np.ndarray
    end: np.ndarray  # bool: the game is over
    next: np.ndarray  # intp: 2s' of the state after the rally; a finished state absorbs


@functools.lru_cache(maxsize=32)
def _table(n: int, system: ScoringSystem, tiebreak: int | None) -> _Table:
    """The state table of the rules (n, system, tie-break), built by
    `_Rally.score` and `_Rally.ended` on every state, once with a rally
    won by the server and once with one lost."""
    rules = _Rally(RallyProbs(0.5, 0.5), GameConfig(n, system, tiebreak))  # the rules alone
    h, score_h, score_l = np.indices((2, rules.top + 1, rules.top + 1)).reshape(3, -1)
    h, score_h, score_l = h == 1, score_h.astype(rules.dtype), score_l.astype(rules.dtype)
    end = rules.ended(2 * n, score_h, score_l)  # 2n rallies: past the short cuts of the rally count
    state = np.arange(h.size)
    nxt = np.empty((h.size, 2), dtype=np.intp)
    for won in (False, True):
        after_h, after_l = score_h.astype(np.intp), score_l.astype(np.intp)
        h_next = rules.score(np.full(h.size, won), h, after_h, after_l)
        scored = (h_next * (rules.top + 1) + after_h) * (rules.top + 1) + after_l
        nxt[:, int(won)] = 2 * np.where(end, state, scored)
    table = _Table(*(np.repeat(column, 2) for column in (h, score_h, score_l, end)), nxt.reshape(-1))
    for column in table:
        column.flags.writeable = False  # shared by every batch of these rules
    return table


def _plays_on_table(count: int, rules: _Rally) -> bool:
    """Whether a batch of `count` games plays on the state table
    (`_on_table`) rather than compacted (`_rallies`); the module docstring
    says why."""
    return count <= _TABLE_GAMES and rules.states <= _TABLE_STATES


def _rewind(bits: np.random.BitGenerator, mark: dict, used: int) -> None:
    """Put the PCG64 `bits` at `used` doubles past its state `mark`: each
    double takes one 64-bit output.  `advance` drops a buffered 32-bit
    half, which a double leaves alone, so it is put back."""
    bits.state = mark
    bits.advance(used)
    if mark["has_uint32"]:
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": mark["uinteger"]}


def _on_table(rules: _Rally, first_server_a: np.ndarray, rng: np.random.Generator):
    """Play the games of `first_server_a` on the rally state table of their
    rules, one rally per step, and return the final scores of A and B and
    the durations, in game order.

    Each game holds one table index.  A rally places the live games'
    deviates in index order, gathers each game's serve threshold, compares,
    adds the flags to the indices and gathers the next state, and after the
    n-th rally gathers the end flags and counts them; a finished state
    absorbs, so a finished game needs no mask, and its duration is written
    once, on the rally it ends.  The deviates come from a pool of doubles
    drawn from `rng`, a PCG64, and taken in the loop's order: at a refill
    and at the end the generator is put back to the pool's start and
    advanced by the deviates used, so it draws and ends as one draw per
    live game per rally would."""
    table, n, count = _table(rules.n, rules.system, rules.ell), rules.n, first_server_a.size
    threshold, nxt, end = np.where(table.h, rules.hi, rules.lo), table.next, table.end
    state = np.where(first_server_a == rules.a_high, table.h.size // 2, 0)
    scratch = np.empty(count)
    duration, live = np.zeros(count, dtype=np.int64), np.ones(count, dtype=bool)

    def draw(games):  # a pool of a few n per live game, and at least one rally
        return rng.random(max(min(_CHUNK, _POOL * n * games), games))

    bits = rng.bit_generator
    mark = bits.state
    pool, used, playing, rally = draw(count), 0, count, 0
    while playing:
        rally += 1
        if used + playing > pool.size:
            _rewind(bits, mark, used)
            mark = bits.state
            pool, used = draw(playing), 0
        u = pool[used : used + playing]
        used += playing
        if playing < count:
            scratch[live] = u
            u = scratch
        state = nxt.take(state + (u < threshold.take(state)))
        if rally < n:  # no game ends sooner
            continue
        done = end[state]
        if (left := count - int(np.count_nonzero(done))) < playing:
            duration[done & live] = rally
            live, playing = ~done, left
    _rewind(bits, mark, used)
    return *(score.take(state).astype(np.int64) for score in rules.by_player(table.score_h, table.score_l)), duration


def _rallies(rules: _Rally, first_server_a: np.ndarray, rng: np.random.Generator):
    """Play the games of `first_server_a` side by side, one rally per step,
    in blocks of `_BLOCK` consecutive games.  Each block holds arrays of its
    games still in play (`_Rally`).  A rally steps the blocks in game
    order, each on one uniform per live game.  After each rally in which
    games of a block end, yield the block index, the rally number, the
    indices of the finished games among the block's live games, the mask
    of the games that stay, and the final scores alpha and beta of the
    finished games, in `rules.dtype`; these then leave the block.

    Each block draws its flags of the rallies won by the server just before
    it scores the rally, exactly its live count, so the generator yields
    the same deviates in the same order as one draw per rally over all live
    games and ends in the same state.  `server_won` draws the uniforms
    `_CHUNK` at a time into one scratch buffer and turns each chunk into
    flags at once, so no block keeps a uniform."""
    blocks = []  # per block: server_h, score_h, score_l
    for start in range(0, first_server_a.size, _BLOCK):
        server_h = first_server_a[start : start + _BLOCK] == rules.a_high
        blocks.append((server_h, np.zeros(server_h.size, dtype=rules.dtype), np.zeros(server_h.size, dtype=rules.dtype)))
    scratch = np.empty(min(first_server_a.size, _BLOCK, _CHUNK))
    del first_server_a  # the blocks hold the server flags

    def server_won(server_h):
        if server_h.size <= _CHUNK:
            return rules.server_won(rng.random(out=scratch[: server_h.size]), server_h)
        won = np.empty(server_h.size, dtype=bool)
        for start in range(0, server_h.size, _CHUNK):
            h = server_h[start : start + _CHUNK]
            won[start : start + h.size] = rules.server_won(rng.random(out=scratch[: h.size]), h)
        return won

    rally, playing = 0, len(blocks)
    while playing:
        rally += 1
        for b, (server_h, score_h, score_l) in enumerate(blocks):
            if not server_h.size:
                continue
            h_rally = rules.score(server_won(server_h), server_h, score_h, score_l)
            done, final = rules.ended(rally, score_h, score_l), None
            if done is not None and np.count_nonzero(done):
                fin, keep = np.flatnonzero(done), ~done
                final = score_h[fin], score_l[fin]
                h_rally, score_h, score_l = h_rally[keep], score_h[keep], score_l[keep]
                playing -= not h_rally.size
            blocks[b] = h_rally, score_h, score_l
            if final is not None:
                yield b, rally, fin, keep, *rules.by_player(*final)


def _batch_games(
    probs: RallyProbs,
    config: GameConfig,
    count: int,
    rng: np.random.Generator,
    first_server_a: np.ndarray | None = None,
) -> GameSample:
    """Play `count` games on the state table when it plays them
    (`_plays_on_table`), else compacted (`_rallies`), writing each finished
    game's outcome once, by index.  `rng` is a PCG64 generator, as
    `SeedSpec.generator` makes.  Compacted, the scores are held in the
    scores' type and the game ids in the least type that holds them until
    the batch ends, then widened once."""
    rules = _Rally(probs, config)
    if first_server_a is None:
        first_server_a = _first_servers(rng, count, config.s_a)
    if _plays_on_table(count, rules):
        alpha, beta, duration = _on_table(rules, first_server_a, rng)
    else:
        alpha, beta = (np.zeros(count, dtype=rules.dtype) for _ in range(2))
        duration = np.zeros(count, dtype=np.int64)
        ids = [np.arange(start, min(start + _BLOCK, count), dtype=np.min_scalar_type(count - 1)) for start in range(0, count, _BLOCK)]
        for b, rally, fin, keep, final_a, final_b in _rallies(rules, first_server_a, rng):
            out = ids[b][fin]
            alpha[out], beta[out], duration[out] = final_a, final_b, rally
            ids[b] = ids[b][keep]
        alpha = alpha.astype(np.int64)
        beta = beta.astype(np.int64)
    # the winner reached the target, the loser stayed below it
    return GameSample(first_server_a, alpha, beta, alpha > beta, duration)


def sample_games(probs: RallyProbs, config: GameConfig, replications: int, seed: SeedSpec) -> GameSample:
    """Simulate `replications` independent games as outcome arrays."""
    validate(probs, config)
    expect_count(replications, "replications", 1)
    return _batch_games(probs, config, replications, expect(seed, SeedSpec, "seed").generator())


def _mean_var(c: int, s1: int, s2: int) -> tuple[float | None, float | None]:
    """Mean s1 / c and 1/c variance (c s2 - s1^2) / c^2 of c durations from
    their exact integer sum s1 and sum of squares s2, each one correctly
    rounded division; None for no games."""
    return (s1 / c, (c * s2 - s1 * s1) / (c * c)) if c else (None, None)


def _report(games: dict[Player, dict[int, int]]) -> EstimatorReport:
    """The estimators from each winner's count of games by duration."""
    sums = {p: [sum(k * d**j for d, k in by_duration.items()) for j in range(3)] for p, by_duration in games.items()}
    wins = {p: sums[p][0] for p in Player}
    total = wins[Player.A] + wins[Player.B]
    e_hat, v_hat = _mean_var(*(a + b for a, b in zip(sums[Player.A], sums[Player.B])))
    by_winner = {p: _mean_var(*sums[p]) for p in Player}
    return EstimatorReport(
        p_hat={p: wins[p] / total for p in Player},
        e_hat=e_hat,
        v_hat=v_hat,
        e_hat_winner={p: m[0] for p, m in by_winner.items()},
        v_hat_winner={p: m[1] for p, m in by_winner.items()},
        replications=total,
        wins=wins,
    )


def report_from_sample(sample: GameSample) -> EstimatorReport:
    """The estimators of `run_experiment` from a sample of games: equal to
    its report when the sample is `sample_games` of the same arguments.
    Raise DomainError for a sample with no game, with durations that are
    not non-negative integers, or with not one winner flag per duration."""
    expect(sample, GameSample, "sample")
    duration, winner_a = np.asarray(sample.duration), np.asarray(sample.winner_a)
    if duration.ndim != 1 or duration.shape != winner_a.shape:
        raise DomainError(f"sample of {duration.shape} durations and {winner_a.shape} winner flags: unequal lengths")
    if not duration.size:
        raise DomainError("empty sample: no game to report")
    if duration.dtype == bool or not np.can_cast(duration.dtype, np.intp) or winner_a.dtype != bool:
        raise DomainError(f"sample of {duration.dtype} durations and {winner_a.dtype} winner flags: need integers and bools")
    try:
        games = {p: np.bincount(duration[mask]) for p, mask in ((Player.A, winner_a), (Player.B, ~winner_a))}
    except ValueError as error:  # bincount refuses a negative entry
        raise DomainError("negative duration in sample") from error
    return _report({p: dict(enumerate(counts.tolist())) for p, counts in games.items()})


def run_experiment(probs: RallyProbs, config: GameConfig, replications: int, seed: SeedSpec) -> EstimatorReport:
    """Simulate a batch of games and report the standard estimators.  The
    games draw the deviates of `sample_games`.  A batch that plays on the
    state table (`_plays_on_table`) reports from its sample; a larger one
    keeps no per-game array: the games that end in a rally add to their
    winner's count of games of that duration."""
    validate(probs, config)
    expect_count(replications, "replications", 1)
    rng, rules = expect(seed, SeedSpec, "seed").generator(), _Rally(probs, config)
    if _plays_on_table(replications, rules):
        return report_from_sample(_batch_games(probs, config, replications, rng))
    games = {Player.A: {}, Player.B: {}}
    for _, rally, _, _, alpha, beta in _rallies(rules, _first_servers(rng, replications, config.s_a), rng):
        won = int(np.count_nonzero(alpha > beta))
        games[Player.A][rally] = games[Player.A].get(rally, 0) + won
        games[Player.B][rally] = games[Player.B].get(rally, 0) + alpha.size - won
    return _report(games)
