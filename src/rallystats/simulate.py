"""Rally-level Monte Carlo engine for both scoring systems.

Streams are split with numpy's SeedSequence, so a (master seed, stream
index) pair pins every uniform deviate: runs are reproducible bit for bit
and the child streams of a spec (`SeedSpec.child`) are independent
whatever the order they run in.  Games are played by one rally
generator, `_rallies`, on vectorized state arrays that hold only the
games still in play: each rally step draws one
uniform per live game, in game index order, and a finished game leaves the
arrays.  That is the same sequence of deviates a loop over all games with
a mask of the live ones draws, so results are the same, bit for bit, for
every `SeedSpec`.  A batch is played in blocks of `_BLOCK` consecutive
games, each with its own arrays, stepped in game order at every rally.
The draw side hands a block one byte per live game, the flags of the
rallies won by the server: it draws the uniforms `_CHUNK` (2^16) at a
time into one scratch buffer and turns them into flags at once, so no
uniform outlives its chunk, and the first servers are drawn the same way.
A block reads each rally's flags from one draw, armed after the rally
before.  With more than one block and more than one CPU to run on, a
helper thread makes the draw at once, while the main thread plays the
other blocks (numpy's generator releases the interpreter lock while it
fills an array); a batch of one block, or any batch on one CPU, makes it
when the block reads it and starts no thread.  Each draw is exactly the
block's live count, and draws run in the order of the loop, so the
deviates, their order and the generator's final state are those of one
draw over all live games per rally.  The generator labels the players by
serve strength, h the stronger server and l the weaker: a deviate below
both serve probabilities is a rally won by either server, one between
them a rally won by h on serve, so a step is one comparison chain on the
flag "h serves" and the scores of h and l, and an end test on the two
scores (a tie-break game has passed n-1 all once both reach n-1); it
yields the games that end in a rally with their scores for A and B.  Its
consumers keep what they need: `sample_games` writes each finished game
into per-game outcome arrays, from which `report_from_sample` forms the
estimators, while
`run_experiment` keeps only each winner's count of games by duration, from
which the estimators are exact integer sums.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ConfigError, GameConfig, Player, RallyProbs, ScoringSystem, expect_count, validate


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


def _rallies(probs: RallyProbs, config: GameConfig, first_server_a: np.ndarray, rng: np.random.Generator):
    """Play the games of `first_server_a` side by side, one rally per step,
    in blocks of `_BLOCK` consecutive games.  Each block holds arrays of its
    games still in play: whether the stronger server serves and both
    scores.  A rally steps the blocks in game order, each on one uniform
    per live game.  After each rally in which games of a block end, yield
    the block index, the rally number, the indices of the finished games
    among the block's live games, the mask of the games that stay, and the
    final scores alpha and beta of the finished games; these then leave
    the block.

    Before n-1 all, whoever reaches n wins the game; so a live game with
    both scores at n-1 or more has passed that tie, and with a tie-break
    it ends when one score reaches n-1+l.  The two scores alone tell when a
    game ends.

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
    n, ell = config.n, config.tiebreak
    sideout = config.system is ScoringSystem.SIDE_OUT
    # h serves with the higher probability (A on a tie), l with the lower
    lo, hi = sorted((probs.p_a, probs.p_b))
    a_high = probs.p_a >= probs.p_b
    score_dtype = np.min_scalar_type(n if ell is None else n - 1 + ell)
    blocks = []  # per block: server_h, score_h, score_l
    for start in range(0, first_server_a.size, _BLOCK):
        server_h = first_server_a[start : start + _BLOCK] == a_high
        blocks.append((server_h, np.zeros(server_h.size, dtype=score_dtype), np.zeros(server_h.size, dtype=score_dtype)))
    scratch = np.empty(min(first_server_a.size, _BLOCK, _CHUNK))
    del first_server_a  # the blocks hold the server flags

    def server_won(server_h):
        # a deviate below both serve probabilities is a rally won by either
        # server, one between them a rally won by h on serve
        live = server_h.size
        if live <= _CHUNK:
            u = rng.random(out=scratch[:live])
            return ((u < hi) & server_h) | (u < lo)
        won = np.empty(live, dtype=bool)
        for start in range(0, live, _CHUNK):
            h = server_h[start : start + _CHUNK]
            u = rng.random(out=scratch[: h.size])
            won[start : start + h.size] = ((u < hi) & h) | (u < lo)
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
                won = drawn[b]()
                h_rally = server_h == won  # h won the rally
                if sideout:
                    score_h += h_rally & won
                    score_l += won > h_rally  # l served and won
                else:
                    score_h += h_rally
                    score_l += ~h_rally
                final = None
                if rally >= n:  # no game ends before its n-th rally
                    done = np.maximum(score_h, score_l) >= n
                    if ell is not None and rally >= 2 * n - 1:  # reaching n past n-1 all takes 2n-1 points
                        done &= (np.minimum(score_h, score_l) < n - 1) | (np.maximum(score_h, score_l) >= n - 1 + ell)
                    if np.count_nonzero(done):
                        fin, keep = np.flatnonzero(done), ~done
                        final = score_h[fin], score_l[fin]
                        h_rally, score_h, score_l = h_rally[keep], score_h[keep], score_l[keep]
                        playing -= not h_rally.size
                blocks[b] = h_rally, score_h, score_l
                drawn[b] = draw(h_rally)
                if final is not None:
                    yield b, rally, fin, keep, *(final if a_high else final[::-1])
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
    """Play `count` games (`_rallies`) and write each finished game's
    outcome once, by index."""
    if first_server_a is None:
        first_server_a = _first_servers(rng, count, config.s_a)
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
    return _batch_games(probs, config, replications, seed.generator())


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
    return _report({
        p: dict(enumerate(np.bincount(sample.duration[mask]).tolist()))
        for p, mask in ((Player.A, sample.winner_a), (Player.B, ~sample.winner_a))
    })


def run_experiment(probs: RallyProbs, config: GameConfig, replications: int, seed: SeedSpec) -> EstimatorReport:
    """Simulate a batch of games and report the standard estimators.  The
    games draw the deviates of `sample_games`, but no per-game array is
    kept: the games that end in a rally add to their winner's count of
    games of that duration."""
    validate(probs, config)
    expect_count(replications, "replications", 1)
    rng = seed.generator()
    games = {Player.A: {}, Player.B: {}}
    for _, rally, _, _, alpha, beta in _rallies(probs, config, _first_servers(rng, replications, config.s_a), rng):
        won = int(np.count_nonzero(alpha > beta))
        games[Player.A][rally] = games[Player.A].get(rally, 0) + won
        games[Player.B][rally] = games[Player.B].get(rally, 0) + alpha.size - won
    return _report(games)
