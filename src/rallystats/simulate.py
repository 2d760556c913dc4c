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
once both reach n-1).  Two loops play it, chosen by the batch size:

- A batch that is one block and fits one draw chunk (`_masked`, up to
  2^16 games) plays on whole arrays.  Each rally draws as many uniforms as
  there are live games into one scratch buffer and places them at the
  live games; a finished game keeps its slot, is masked out of the
  scoring and has its duration written once, on the rally it ends.  At
  200 games each numpy call costs its call overhead, not its elements, so
  the fewest calls per rally win: no compaction, no game ids, no yield.
- A larger batch is played by one rally generator (`_rallies`) on
  arrays that hold only the games still in play, in blocks of `_BLOCK`
  consecutive games stepped in game order at every rally; a finished
  game leaves them.  On big arrays the per-rally scatter of the deviates
  costs more than dropping the finished games: masking every batch made
  10^6 games 1.7 times slower.  The draw side hands a block one byte per
  live game, the flags of the rallies won by the server: it draws the
  uniforms `_CHUNK` (2^16) at a time into one scratch buffer and turns
  them into flags at once, so no uniform outlives its chunk, and the
  first servers are drawn the same way.  A block reads each rally's flags
  from one draw, armed after the rally before.  With more than one block
  and more than one CPU to run on, a helper thread makes the draw at
  once, while the main thread plays the other blocks (numpy's generator
  releases the interpreter lock while it fills an array); on one CPU it
  is made when the block reads it and no thread starts.  Each draw is
  exactly the block's live count, and draws run in the order of the loop.
  The generator yields the games that end in a rally with their scores
  for A and B.

Measured in-process against the compacting loop alone, side-out games to
15 at (.6, .5): the masked loop takes 0.69-0.80 of its time at 200 games
and 0.83-0.87 at 2000, breaks even near 7000 and is 1.06-1.14 slower from
10^4 to 2^16 games (rally-point games to 21, which end sooner, stay ahead
there).  `sample_games` returns per-game outcome arrays, from which
`report_from_sample` forms the estimators; `run_experiment` reports a
masked batch from its sample and otherwise keeps only each winner's count
of games by duration, from which the estimators are exact integer sums.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ConfigError, GameConfig, Player, RallyProbs, ScoringSystem, expect, expect_count, validate


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


_BLOCK = 2**18  # games per block of the rally loop
_CHUNK = 2**16  # deviates per draw into a scratch buffer


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    the target."""

    def __init__(self, probs: RallyProbs, config: GameConfig):
        self.n, self.ell = config.n, config.tiebreak
        self.sideout = config.system is ScoringSystem.SIDE_OUT
        self.lo, self.hi = sorted((probs.p_a, probs.p_b))
        self.a_high = probs.p_a >= probs.p_b
        self.dtype = np.min_scalar_type(self.n if self.ell is None else self.n - 1 + self.ell)

    def server_won(self, u: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The flags of the rallies won by the server from their deviates
        `u` and the flags `h` of h serving: a deviate below both serve
        probabilities is a rally won by either server, one between them a
        rally won by h on serve.  No deviate of 1 is a rally won."""
        return ((u < self.hi) & h) | (u < self.lo)

    def score(self, won: np.ndarray, server_h: np.ndarray, score_h: np.ndarray, score_l: np.ndarray, live=True):
        """Add each rally's point to its winner's score in place and return
        the flags of h serving next.  A finished game of `_masked` draws a
        deviate of 1, so its server loses: a side-out rally lost by the
        server scores no point, but a rally-point rally always scores, so
        both rally-point updates take the mask `live`."""
        h_rally = server_h == won  # h won the rally
        if self.sideout:
            score_h += h_rally & won
            score_l += won > h_rally  # l served and won
        else:
            score_h += h_rally if live is True else h_rally & live
            score_l += live > h_rally
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


def _plays_masked(count: int) -> bool:
    """Whether a batch of `count` games plays on whole arrays (`_masked`),
    as one block that fits one draw chunk, rather than compacted
    (`_rallies`); the module docstring says why."""
    return count <= min(_BLOCK, _CHUNK)


def _masked(probs: RallyProbs, config: GameConfig, first_server_a: np.ndarray, rng: np.random.Generator):
    """Play the games of `first_server_a` on whole arrays, one rally per
    step, and return the final scores of A and B and the durations, in
    game order.  Each rally draws one uniform per live game into one
    scratch buffer and places them at the live games in index order, so
    the deviates, their order and the generator's final state are those
    of `_rallies`.  A finished game keeps its slot: its deviate is set to 1,
    which no serve probability exceeds, and its scores take no point
    (`_Rally.score`).  Its duration is written once, on the rally it ends."""
    rules = _Rally(probs, config)
    count = first_server_a.size
    server_h = first_server_a == rules.a_high
    score_h, score_l = (np.zeros(count, dtype=rules.dtype) for _ in range(2))
    duration = np.zeros(count, dtype=np.int64)
    u, scratch = np.ones(count), np.empty(count)
    live, playing, rally = np.ones(count, dtype=bool), count, 0
    while playing:
        rally += 1
        u[live] = rng.random(out=scratch[:playing])
        server_h = rules.score(rules.server_won(u, server_h), server_h, score_h, score_l, live)
        done = rules.ended(rally, score_h, score_l)
        if done is not None and (left := count - np.count_nonzero(done)) < playing:
            ended = done & live
            duration[ended], u[ended] = rally, 1.0
            live, playing = ~done, left
    del u, scratch  # before the scores widen to int64
    return *(score.astype(np.int64) for score in rules.by_player(score_h, score_l)), duration


def _rallies(probs: RallyProbs, config: GameConfig, first_server_a: np.ndarray, rng: np.random.Generator):
    """Play the games of `first_server_a` side by side, one rally per step,
    in blocks of `_BLOCK` consecutive games.  Each block holds arrays of its
    games still in play (`_Rally`).  A rally steps the blocks in game
    order, each on one uniform per live game.  After each rally in which
    games of a block end, yield the block index, the rally number, the
    indices of the finished games among the block's live games, the mask
    of the games that stay, and the final scores alpha and beta of the
    finished games; these then leave the block.

    A block reads its flags of the rallies won by the server from one
    `draw`, armed with its server flags after the rally before.  With more
    than one block and more than one CPU, a helper thread draws them as
    soon as they are armed, while this thread plays the other blocks;
    otherwise this thread draws them when it reads them.  Either way the
    draws run in the order of the loop, and each is exactly the live
    count, so the generator yields the same deviates in the same order as
    one draw per rally over all live games and ends in the same state.
    `server_won` draws the uniforms `_CHUNK` at a time into one scratch
    buffer and turns each chunk into flags at once, so no block keeps a
    uniform."""
    rules = _Rally(probs, config)
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

    pool = None
    if len(blocks) > 1 and _cpus() > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(1)

    def draw(server_h):
        # a call that returns the flags of the block's next rally, drawn now
        # on the helper or else when called
        return partial(server_won, server_h) if pool is None else pool.submit(server_won, server_h).result

    drawn = [draw(block[0]) for block in blocks]
    try:
        rally, playing = 0, len(blocks)
        while playing:
            rally += 1
            for b, (server_h, score_h, score_l) in enumerate(blocks):
                if not server_h.size:
                    continue
                h_rally = rules.score(drawn[b](), server_h, score_h, score_l)
                done, final = rules.ended(rally, score_h, score_l), None
                if done is not None and np.count_nonzero(done):
                    fin, keep = np.flatnonzero(done), ~done
                    final = score_h[fin], score_l[fin]
                    h_rally, score_h, score_l = h_rally[keep], score_h[keep], score_l[keep]
                    playing -= not h_rally.size
                blocks[b] = h_rally, score_h, score_l
                drawn[b] = draw(h_rally)
                if final is not None:
                    yield b, rally, fin, keep, *rules.by_player(*final)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _batch_games(
    probs: RallyProbs,
    config: GameConfig,
    count: int,
    rng: np.random.Generator,
    first_server_a: np.ndarray | None = None,
) -> GameSample:
    """Play `count` games: on whole arrays when they fit one block and one
    chunk (`_masked`), else compacted (`_rallies`), writing each finished
    game's outcome once, by index."""
    if first_server_a is None:
        first_server_a = _first_servers(rng, count, config.s_a)
    if _plays_masked(count):
        alpha, beta, duration = _masked(probs, config, first_server_a, rng)
    else:
        alpha, beta, duration = (np.zeros(count, dtype=np.int64) for _ in range(3))
        ids = [np.arange(start, min(start + _BLOCK, count), dtype=np.min_scalar_type(count)) for start in range(0, count, _BLOCK)]
        for b, rally, fin, keep, final_a, final_b in _rallies(probs, config, first_server_a, rng):
            out = ids[b][fin]
            alpha[out], beta[out], duration[out] = final_a, final_b, rally
            ids[b] = ids[b][keep]
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
    its report when the sample is `sample_games` of the same arguments."""
    expect(sample, GameSample, "sample")
    return _report({
        p: dict(enumerate(np.bincount(sample.duration[mask]).tolist()))
        for p, mask in ((Player.A, sample.winner_a), (Player.B, ~sample.winner_a))
    })


def run_experiment(probs: RallyProbs, config: GameConfig, replications: int, seed: SeedSpec) -> EstimatorReport:
    """Simulate a batch of games and report the standard estimators.  The
    games draw the deviates of `sample_games`.  A batch that plays on
    whole arrays (`_plays_masked`) reports from its sample; a larger one
    keeps no per-game array: the games that end in a rally add to their
    winner's count of games of that duration."""
    validate(probs, config)
    expect_count(replications, "replications", 1)
    rng = expect(seed, SeedSpec, "seed").generator()
    if _plays_masked(replications):
        return report_from_sample(_batch_games(probs, config, replications, rng))
    games = {Player.A: {}, Player.B: {}}
    for _, rally, _, _, alpha, beta in _rallies(probs, config, _first_servers(rng, replications, config.s_a), rng):
        won = int(np.count_nonzero(alpha > beta))
        games[Player.A][rally] = games[Player.A].get(rally, 0) + won
        games[Player.B][rally] = games[Player.B].get(rally, 0) + alpha.size - won
    return _report(games)
