import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from rallystats import ConfigError, DomainError, GameConfig, MatchConfig, Player, RallyProbs, ScoringSystem, SeedSpec, ServerRule
from rallystats import sideout, simulate

from oracles import enumerate_trajectories, no_server_grid, reference_batch_games, sample_matches, simulate_game

A, B = Player.A, Player.B


class TestSingleGame:
    def test_perfect_server_shutout(self):
        res = simulate_game(RallyProbs(1.0, 0.5), GameConfig(n=15), SeedSpec(1))
        assert (res.score.alpha, res.score.beta) == (15, 0)
        assert res.duration == 15
        assert res.winner is A

    def test_perfect_receiver_needs_extra_rally(self):
        # B must first regain the serve, hence 16 rallies in an A-game
        res = simulate_game(RallyProbs(0.0, 1.0), GameConfig(n=15), SeedSpec(2))
        assert (res.score.alpha, res.score.beta) == (0, 15)
        assert res.duration == 16
        assert res.winner is B

    def test_determinism(self):
        pr = RallyProbs(0.55, 0.48)
        cfg = GameConfig(n=11, s_a=0.5)
        r1 = simulate_game(pr, cfg, SeedSpec(77, 3), keep_trajectory=True)
        r2 = simulate_game(pr, cfg, SeedSpec(77, 3), keep_trajectory=True)
        assert r1 == r2

    def test_trajectory_consistency(self):
        res = simulate_game(
            RallyProbs(0.6, 0.5), GameConfig(n=9), SeedSpec(5), keep_trajectory=True
        )
        assert len(res.trajectory) == res.duration
        a_points = sum(1 for srv, win in res.trajectory if srv is win and srv is A)
        b_points = sum(1 for srv, win in res.trajectory if srv is win and srv is B)
        assert (a_points, b_points) == (res.score.alpha, res.score.beta)

    def test_rallypoint_rules(self):
        cfg = GameConfig(n=21, system=ScoringSystem.RALLY_POINT)
        res = simulate_game(RallyProbs(0.6, 0.5), cfg, SeedSpec(8), keep_trajectory=True)
        assert res.duration == res.score.alpha + res.score.beta
        assert res.score.points(res.winner) == 21


class TestBatches:
    def test_batch_determinism(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15)
        s1 = simulate.sample_games(pr, cfg, 5_000, SeedSpec(123, 1))
        s2 = simulate.sample_games(pr, cfg, 5_000, SeedSpec(123, 1))
        np.testing.assert_array_equal(s1.duration, s2.duration)
        np.testing.assert_array_equal(s1.alpha, s2.alpha)
        np.testing.assert_array_equal(s1.winner_a, s2.winner_a)

    def test_server_effect_parity(self):
        pr = RallyProbs(0.6, 0.5)
        sample = simulate.sample_games(pr, GameConfig(n=15, s_a=1.0), 20_000, SeedSpec(9, 0))
        points = sample.alpha + sample.beta
        offset = (sample.duration - points) % 2
        # first server A: wins end on even offsets, losses on odd
        assert (offset[sample.winner_a] == 0).all()
        assert (offset[~sample.winner_a] == 1).all()

    def test_win_prob_within_binomial_band(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        exact = sideout.game_win_prob(A, A, pr, cfg)
        sample = simulate.sample_games(pr, cfg, 100_000, SeedSpec(321, 2))
        p_hat = sample.winner_a.mean()
        assert abs(p_hat - exact) < 3 * np.sqrt(exact * (1 - exact) / 100_000)

    @pytest.mark.parametrize("replications", [0, -1])
    def test_bad_replications_raise_config_error(self, replications):
        pr, cfg = RallyProbs(0.6, 0.5), GameConfig(n=5)
        with pytest.raises(ConfigError, match="replications"):
            simulate.sample_games(pr, cfg, replications, SeedSpec(1))
        with pytest.raises(ConfigError, match="replications"):
            sample_matches(pr, cfg, MatchConfig(2), replications, SeedSpec(1))

    @pytest.mark.parametrize(
        "config",
        [GameConfig(n=3000), GameConfig(n=2049, system=ScoringSystem.RALLY_POINT), GameConfig(n=5, tiebreak=2049)],
        ids=["sideout", "rallypoint", "tiebreak"],
    )
    def test_game_past_the_coefficient_table_raises_domain_error(self, config):
        # once played, though every exact engine refuses it: the simulator
        # accepts the configurations the exact engines accept
        points = max(config.n, config.tiebreak or 0)
        for play in (simulate.run_experiment, simulate.sample_games):
            with pytest.raises(DomainError, match=f"^a tally of {points} points is more than the 2048 the coefficient table holds$"):
                play(RallyProbs(0.55, 0.5), config, 50, SeedSpec(1))

    @pytest.mark.parametrize("replications", [2.5, True])
    def test_non_integer_replications_raise_config_error(self, replications):
        pr, cfg = RallyProbs(0.6, 0.5), GameConfig(n=5)
        with pytest.raises(ConfigError, match="replications=.* must be an integer"):
            simulate.sample_games(pr, cfg, replications, SeedSpec(1))
        with pytest.raises(ConfigError, match="replications=.* must be an integer"):
            simulate.run_experiment(pr, cfg, replications, SeedSpec(1))
        with pytest.raises(ConfigError, match="replications=.* must be an integer"):
            sample_matches(pr, cfg, MatchConfig(2), replications, SeedSpec(1))

    @pytest.mark.parametrize("master, stream", [(1.5, 0), (1, 2.5), (True, 0), (1, False)])
    def test_non_integer_seed_raises_config_error(self, master, stream):
        with pytest.raises(ConfigError, match="seed .* must be an integer"):
            SeedSpec(master, stream)

    @pytest.mark.parametrize("index", [2.5, True])
    def test_non_integer_child_index_raises_config_error(self, index):
        # 2.5 was stream 3.5
        with pytest.raises(ConfigError, match="child index=.* must be an integer"):
            SeedSpec(1).child(index)

    @pytest.mark.parametrize("master, stream", [(-1, 0), (1, -1)])
    def test_bad_seed_raises_config_error(self, master, stream):
        with pytest.raises(ConfigError, match="seed"):
            SeedSpec(master, stream)
        with pytest.raises(ConfigError, match="child"):
            SeedSpec(1).child(-1)


class TestEstimatorReport:
    def test_win_shares_sum_to_one(self):
        report = simulate.run_experiment(
            RallyProbs(0.6, 0.5), GameConfig(n=15), 10_000, SeedSpec(4, 4)
        )
        assert report.p_hat[A] + report.p_hat[B] == 1.0
        assert report.wins[A] + report.wins[B] == report.replications

    def test_undefined_conditionals_flagged(self):
        # B wins every game, so A-conditional estimates do not exist
        report = simulate.run_experiment(
            RallyProbs(0.0, 1.0), GameConfig(n=15), 500, SeedSpec(6, 1)
        )
        assert report.wins[A] == 0
        assert report.e_hat_winner[A] is None
        assert report.v_hat_winner[A] is None
        assert report.e_hat_winner[B] == pytest.approx(16.0)
        assert report.v_hat_winner[B] == pytest.approx(0.0)

    def test_variance_uses_count_normalization(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15)
        sample = simulate.sample_games(pr, cfg, 2_000, SeedSpec(13, 13))
        report = simulate.run_experiment(pr, cfg, 2_000, SeedSpec(13, 13))
        d = sample.duration.astype(float)
        assert report.e_hat == pytest.approx(d.mean(), abs=1e-12)
        assert report.v_hat == pytest.approx(((d - d.mean()) ** 2).mean(), abs=1e-9)
        da = d[sample.winner_a]
        assert report.e_hat_winner[A] == pytest.approx(da.mean(), abs=1e-12)
        assert report.v_hat_winner[A] == pytest.approx(((da - da.mean()) ** 2).mean(), abs=1e-9)

    # unchecked, these raised ZeroDivisionError, IndexError, numpy's
    # ValueError and TypeError
    @pytest.mark.parametrize(
        "duration, winner_a, match",
        [
            ([], [], "empty sample"),
            ([20, 17], [True], "unequal lengths"),
            ([20], [True, False], "unequal lengths"),
            ([20, -1], [True, False], "negative duration"),
            ([20.0, 17.0], [True, False], "need integers"),
        ],
        ids=["empty", "short-winners", "short-durations", "negative", "float"],
    )
    def test_malformed_sample_raises_domain_error(self, duration, winner_a, match):
        sample = simulate.GameSample(
            np.ones(len(duration), dtype=bool), np.asarray(duration), np.zeros(len(duration), dtype=np.int64),
            np.asarray(winner_a, dtype=bool), np.asarray(duration),
        )
        with pytest.raises(DomainError, match=match):
            simulate.report_from_sample(sample)

    def test_estimates_track_exact_curve(self):
        cfg = GameConfig(n=15)
        from rallystats import duration as dur

        for i, p in enumerate((0.3, 0.5, 0.7)):
            pr = RallyProbs.no_server(p)
            report = simulate.run_experiment(pr, cfg, 10_000, SeedSpec(55, i))
            agg = dur.aggregate_moments(pr, cfg)
            e, v = agg.by_server[A].mean, agg.by_server[A].variance
            assert abs(report.e_hat - e) < 3 * np.sqrt(v / 10_000)


class TestSweep:
    """A sweep over the no-server grid of the oracles, each point on its
    own child stream."""

    def test_grid_size_matches_step(self):
        grid = no_server_grid(0.0005)
        assert len(grid) == 1999
        assert grid[0].p_a == pytest.approx(0.0005)
        assert grid[-1].p_a == pytest.approx(0.9995)

    # 0 divided by zero, NaN failed in round(), the others gave []
    @pytest.mark.parametrize("step", [0.0, -0.1, 1.0, 1.5, float("nan"), float("inf"), float("-inf")])
    def test_step_outside_unit_interval_raises_domain_error(self, step):
        with pytest.raises(DomainError, match="step"):
            no_server_grid(step)

    # 0.7 gave [], 0.6 gave [0.6] (above 1 - step), 0.4 gave [0.4]
    @pytest.mark.parametrize("step", [0.7, 0.6, 0.4, 0.3])
    def test_step_that_does_not_divide_one_raises_domain_error(self, step):
        with pytest.raises(DomainError, match="does not divide 1"):
            no_server_grid(step)

    @pytest.mark.parametrize("step, points", [(0.25, 3), (0.01, 99), (0.0005, 1999)])
    def test_step_that_divides_one_up_to_rounding_gives_its_grid(self, step, points):
        grid = no_server_grid(step)
        assert len(grid) == points
        assert grid[-1].p_a == pytest.approx(1.0 - step)

    def test_points_use_independent_streams(self):
        cfg = GameConfig(n=9)
        grid = no_server_grid(0.2)
        seed = SeedSpec(777, 0)
        reports = [simulate.run_experiment(probs, cfg, 200, seed.child(i)) for i, probs in enumerate(grid)]
        # each point on its own child stream: recomputing any single point
        # in isolation reproduces its report
        solo = simulate.run_experiment(grid[2], cfg, 200, SeedSpec(777, 0).child(2))
        assert reports[2] == solo


class TestTrajectoryLevel:
    def test_chi_square_against_enumeration(self):
        pr = RallyProbs(0.6, 0.45)
        cfg = GameConfig(n=2, s_a=1.0)
        expected, unresolved = enumerate_trajectories(
            pr.p_a, pr.p_b, 2, server=A, max_rallies=30, min_mass=0.0
        )
        assert unresolved < 1e-6
        replications = 30_000
        observed = {}
        for i in range(replications):
            res = simulate_game(pr, cfg, SeedSpec(31_337, i), keep_trajectory=True)
            key = tuple(w for _, w in res.trajectory)
            observed[key] = observed.get(key, 0) + 1
        # pool trajectories below a minimum expected count
        big = {k: v for k, v in expected.items() if v * replications >= 10}
        tail_prob = 1.0 - sum(big.values())
        obs = [observed.get(k, 0) for k in big]
        obs.append(replications - sum(obs))
        exp = [v * replications for v in big.values()]
        exp.append(tail_prob * replications)
        chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
        pvalue = stats.chi2.sf(chi2, df=len(obs) - 1)
        assert pvalue > 1e-3


SAMPLE_FIELDS = ("first_server_a", "alpha", "beta", "winner_a", "duration")
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.02, 0.98))
# games per block of the compacting loop: the default (one block here) and
# small ones, for which a batch is many blocks stepped in turn; with a
# small block a batch of more than that many games compacts
# (`table_bound`), so both loops are reached
BLOCKS = [simulate._BLOCK, 64, 7, 1]
# deviates per draw chunk, which also caps a table batch's pool of
# deviates: the default (one pool for most batches here), and 64 and 7,
# with which pools refill mid-batch
CHUNKS = [simulate._CHUNK, 64, 7]


def in_blocks(count, block):
    """`count` games, cut to ten blocks: each block costs a step of the
    Python loop per rally."""
    return min(count, 10 * block)


def table_bound(block):
    """The table bound B under blocks of `block` games: the default for
    the default block, else `block`, so a batch of more games compacts."""
    return min(block, simulate._TABLE_GAMES)


def assert_samples_equal(got, want):
    for field in SAMPLE_FIELDS:
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype, field
        np.testing.assert_array_equal(x, y, err_msg=field)


class TestAgainstReferenceLoop:
    """The table and the compacted batch loops draw the same deviates as
    the original full-array loop (`oracles.reference_batch_games`) and
    return the same arrays, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        system=st.sampled_from(list(ScoringSystem)),
        tiebreak=st.sampled_from([None, 2, 3]),
        n=st.sampled_from([1, 2, 7, 15]),
        p_a=probability,
        p_b=probability,
        s_a=st.sampled_from([0.0, 0.5, 1.0]),
        count=st.integers(1, 300),
        pass_servers=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from(BLOCKS),
        chunk=st.sampled_from(CHUNKS),
    )
    def test_batch_equals_reference(self, system, tiebreak, n, p_a, p_b, s_a, count, pass_servers, seed, block, chunk):
        assume(p_a > 0.0 or p_b > 0.0)  # q = 1 never ends, and validate refuses it
        probs = RallyProbs(p_a, p_b)
        tiebreak = tiebreak if system is ScoringSystem.SIDE_OUT else None  # side-out only
        if tiebreak is not None and n == 1:
            # a game to 1 has no n-1 all to extend
            with pytest.raises(ConfigError):
                GameConfig(n=n, system=system, tiebreak=tiebreak, s_a=s_a)
            return
        config = GameConfig(n=n, system=system, tiebreak=tiebreak, s_a=s_a)
        count = in_blocks(count, block)
        servers = np.random.default_rng(seed).random(count) < 0.5 if pass_servers else None
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # patched in the body: hypothesis refuses function-scoped fixtures
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BLOCK", block)
            mp.setattr(simulate, "_TABLE_GAMES", table_bound(block))
            mp.setattr(simulate, "_CHUNK", chunk)
            got = simulate._batch_games(probs, config, count, rng, servers)
        want = reference_batch_games(probs, config, count, reference_rng, servers)
        assert_samples_equal(got, want)
        assert rng.random() == reference_rng.random()  # exactly as many deviates drawn

    # the batch relabels the players by serve strength: A serves better, B does, or neither
    @pytest.mark.parametrize("p_a, p_b", [(0.6, 0.5), (0.5, 0.6), (0.55, 0.55)])
    @pytest.mark.parametrize("n", [1, 15, 300])
    @pytest.mark.parametrize("system", list(ScoringSystem))
    def test_sample_games_equals_reference(self, system, n, p_a, p_b):
        # n = 300 keeps its scores in 16 bits
        probs, config = RallyProbs(p_a, p_b), GameConfig(n=n, system=system, s_a=0.5)
        seed = SeedSpec(8, n)
        want = reference_batch_games(probs, config, 2_000, seed.generator())
        assert_samples_equal(simulate.sample_games(probs, config, 2_000, seed), want)

    @pytest.mark.parametrize("count", [simulate._TABLE_GAMES - 1, simulate._TABLE_GAMES, simulate._TABLE_GAMES + 1])
    @pytest.mark.parametrize(
        "probs, config",
        [
            (RallyProbs(0.6, 0.5), GameConfig(n=15, s_a=0.5)),
            (RallyProbs(0.3, 0.7), GameConfig(n=7, tiebreak=3, s_a=0.5)),
            (RallyProbs(0.6, 0.5), GameConfig(n=21, system=ScoringSystem.RALLY_POINT, s_a=0.5)),
        ],
        ids=["sideout", "tiebreak", "rallypoint"],
    )
    def test_both_sides_of_the_table_bound_equal_reference(self, monkeypatch, probs, config, count):
        # a batch of up to B games plays on the state table and one of B + 1
        # compacts; either way the deviates, the outputs and the generator's
        # end state are those of the reference loop
        on_table = []
        monkeypatch.setattr(simulate, "_on_table", lambda *args, play=simulate._on_table: on_table.append(args) or play(*args))
        seed = SeedSpec(11, count)
        rng, reference_rng = seed.generator(), seed.generator()
        want = reference_batch_games(probs, config, count, reference_rng)
        assert_samples_equal(simulate._batch_games(probs, config, count, rng), want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert simulate.run_experiment(probs, config, count, seed) == simulate.report_from_sample(want)
        assert len(on_table) == (2 if count <= simulate._TABLE_GAMES else 0)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("p_a, p_b", [(0.55, 0.45), (0.45, 0.55), (0.5, 0.5)])
    @pytest.mark.parametrize("tiebreak", [None, 3])
    @pytest.mark.parametrize("rule", list(ServerRule))
    def test_sample_matches_equals_reference(self, monkeypatch, rule, tiebreak, p_a, p_b, block):
        probs, config = RallyProbs(p_a, p_b), GameConfig(n=7, tiebreak=tiebreak, s_a=0.5)
        match = MatchConfig(3, rule)
        matches = in_blocks(3_000, block)
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_TABLE_GAMES", table_bound(block))
        got = sample_matches(probs, config, match, matches, SeedSpec(12, 1))
        monkeypatch.setattr(simulate, "_batch_games", reference_batch_games)
        want = sample_matches(probs, config, match, matches, SeedSpec(12, 1))
        for field in ("winner_a", "total_rallies", "games_played"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)

    @pytest.mark.parametrize(
        "probs, config",
        [
            (RallyProbs(0.6, 0.5), GameConfig(n=15, s_a=0.5)),
            (RallyProbs(0.55, 0.5), GameConfig(n=5, tiebreak=3, s_a=0.5)),
            (RallyProbs(0.6, 0.45), GameConfig(n=11, system=ScoringSystem.RALLY_POINT, s_a=0.5)),
        ],
    )
    def test_single_game_equals_batch_of_one(self, probs, config):
        # the scalar reference draws its first server and every rally from the
        # same stream as a one-game batch
        for master in range(300):
            seed = SeedSpec(master, 4)
            game = simulate_game(probs, config, seed)
            batch = simulate.sample_games(probs, config, 1, seed)
            assert (game.score.alpha, game.score.beta) == (batch.alpha[0], batch.beta[0])
            assert (game.winner is A) == batch.winner_a[0]
            assert game.duration == batch.duration[0]


def float_mean(d: np.ndarray) -> float | None:
    """The float mean of the durations `d`, or None for no games."""
    return float(d.astype(float).mean()) if d.size else None


def exact_var(d: np.ndarray) -> float | None:
    """The 1/count variance of the durations `d` from its definition, in
    rationals, rounded once; None for no games."""
    if not d.size:
        return None
    mean = Fraction(int(d.sum()), d.size)
    return float(sum((x - mean) ** 2 for x in d.tolist()) / d.size)


class TestExperimentAgainstReferenceLoop:
    """`run_experiment` sums each finished game into its winner's exact
    integer moments; its report equals the one computed from the reference
    loop's arrays."""

    @settings(max_examples=300, deadline=None)
    @given(
        system=st.sampled_from(list(ScoringSystem)),
        tiebreak=st.sampled_from([None, 2, 3]),
        n=st.sampled_from([1, 2, 7, 15]),
        p_a=probability,
        p_b=probability,
        s_a=st.sampled_from([0.0, 0.5, 1.0]),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from(BLOCKS),
    )
    def test_report_equals_reference(self, system, tiebreak, n, p_a, p_b, s_a, count, seed, block):
        assume(p_a > 0.0 or p_b > 0.0)
        tiebreak = tiebreak if system is ScoringSystem.SIDE_OUT and n > 1 else None
        probs, config = RallyProbs(p_a, p_b), GameConfig(n=n, system=system, tiebreak=tiebreak, s_a=s_a)
        seed, count = SeedSpec(seed), in_blocks(count, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_BLOCK", block)
            mp.setattr(simulate, "_TABLE_GAMES", table_bound(block))
            report = simulate.run_experiment(probs, config, count, seed)
            from_sample = simulate.report_from_sample(simulate.sample_games(probs, config, count, seed))
        want = reference_batch_games(probs, config, count, seed.generator())
        d, won = want.duration, {A: want.winner_a, B: ~want.winner_a}
        wins = {p: int(won[p].sum()) for p in Player}
        assert (report.replications, report.wins) == (count, wins)
        assert report.p_hat == {p: wins[p] / count for p in Player}
        assert (report.e_hat, report.v_hat) == (float_mean(d), exact_var(d))
        assert report.e_hat_winner == {p: float_mean(d[won[p]]) for p in Player}
        assert report.v_hat_winner == {p: exact_var(d[won[p]]) for p in Player}
        assert from_sample == report

    SIDEOUT = RallyProbs(0.6, 0.5), GameConfig(n=15, s_a=0.5)
    TIEBREAK = RallyProbs(0.55, 0.5), GameConfig(n=9, tiebreak=3, s_a=0.5)

    @pytest.mark.parametrize(
        "run, game, block, games, bound",
        [
            (simulate.run_experiment, SIDEOUT, simulate._BLOCK, 200_000, 16),
            (simulate.run_experiment, SIDEOUT, 2**14, 200_000, 10),
            (simulate.run_experiment, SIDEOUT, simulate._BLOCK, 1_000_000, 8),
            (simulate.sample_games, SIDEOUT, simulate._BLOCK, 200_000, 52),
            (simulate.sample_games, SIDEOUT, simulate._BLOCK, 1_000_000, 40),
            (simulate.run_experiment, TIEBREAK, simulate._BLOCK, 200_000, 14.5),
            (simulate.run_experiment, TIEBREAK, simulate._BLOCK, 1_000_000, 6.75),
            (simulate.sample_games, TIEBREAK, simulate._BLOCK, 200_000, 46),
            (simulate.run_experiment, SIDEOUT, simulate._BLOCK, 2**16, 38),
            (simulate.sample_games, SIDEOUT, simulate._BLOCK, 2**16, 38),
        ],
        ids=[
            "one-block", "13-blocks", "four-blocks", "sample-one-block", "sample-four-blocks",
            "tiebreak-one-block", "tiebreak-four-blocks", "tiebreak-sample-one-block",
            "one-block-2-16", "sample-one-block-2-16",
        ],
    )
    def test_peak_memory_per_game(self, monkeypatch, run, game, block, games, bound):
        # the draw side hands each block one byte per live game, and the
        # uniforms pass through one scratch buffer of at most 2^16 doubles:
        # streaming the moments peaks at 13 bytes per game in one block of
        # 200 000 games, 5 in blocks of 2^14, and 5.4 for 10^6 games in four
        # default blocks.  A uniform buffer per block took 19, 13-16 and 14;
        # building a GameSample and taking float passes over its durations
        # took 58.  A GameSample's arrays hold 26 bytes per game; with the
        # scores held in their own type and the game ids in the least integer
        # type that holds them until the batch ends, `sample_games` peaks at
        # 30 bytes per game in one block and 26 for 10^6 games, against 44
        # and 35 with int64 scores and 54 and 42 with int64 ids too.  A
        # tie-break game to 9 needs no more than the scores: 13 bytes per
        # game in one block, 5.4 for 10^6 games and 30 for `sample_games`,
        # against 16, 6.9-7.8 and 48 with a per-game target.  A batch of 2^16
        # games compacts: 18 bytes per game streamed and 31 for
        # `sample_games`, against 34 for both when it played on whole arrays
        # with 16 bytes of deviates per game and reported from its sample
        monkeypatch.setattr(simulate, "_BLOCK", block)
        probs, config = game
        run(probs, config, 100, SeedSpec(0))
        tracemalloc.start()
        try:
            run(probs, config, games, SeedSpec(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / games <= bound


class TestBlocks:
    """Every batch draws on the calling thread and starts no other, its
    uniforms passing through a scratch buffer or a pool of at most `_CHUNK`
    deviates, in the order of one draw per rally."""

    probs, config = RallyProbs(0.6, 0.5), GameConfig(n=5)

    def rallies(self, count):
        rules = simulate._Rally(self.probs, self.config)
        return simulate._rallies(rules, np.ones(count, dtype=bool), np.random.default_rng(0))

    def test_one_block_starts_no_thread(self):
        threads = threading.active_count()
        for _ in self.rallies(1_000):
            assert threading.active_count() == threads

    def test_many_blocks_start_no_thread(self, monkeypatch):
        # 200 games in blocks of 7, run to their end and closed at their first yield
        monkeypatch.setattr(simulate, "_BLOCK", 7)
        config, servers = GameConfig(n=15), np.ones(200, dtype=bool)
        rules = simulate._Rally(self.probs, config)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        threads = threading.active_count()
        for _ in simulate._rallies(rules, servers, rng):
            assert threading.active_count() == threads
        reference_batch_games(self.probs, config, 200, reference_rng, servers)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        rallies = simulate._rallies(rules, servers, rng)
        next(rallies)
        rallies.close()
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "config",
        [GameConfig(n=7, tiebreak=2, s_a=0.5), GameConfig(n=7, system=ScoringSystem.RALLY_POINT, s_a=0.5)],
        ids=["side-out-tiebreak", "rally-point"],
    )
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("block", [simulate._BLOCK, 50])
    def test_chunked_draws_equal_reference(self, monkeypatch, block, chunk, config):
        # chunks of 1, 3 and 64 deviates cut 130 games at every rally, inside
        # and across the blocks of 50, under both scoring systems; in one
        # block the games play on the table, whose pool then refills
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_TABLE_GAMES", table_bound(block))
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        probs, seed = RallyProbs(0.55, 0.45), SeedSpec(9)
        rng, reference_rng = seed.generator(), seed.generator()
        want = reference_batch_games(probs, config, 130, reference_rng)
        assert_samples_equal(simulate._batch_games(probs, config, 130, rng), want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert simulate.run_experiment(probs, config, 130, seed) == simulate.report_from_sample(want)

    @pytest.mark.parametrize("count", [1, 6, 7, 8, 300])
    def test_first_servers_draw_in_chunks(self, monkeypatch, count):
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        rng, reference_rng = np.random.default_rng(2), np.random.default_rng(2)
        np.testing.assert_array_equal(simulate._first_servers(rng, count, 0.3), reference_rng.random(count) < 0.3)
        assert rng.bit_generator.state == reference_rng.bit_generator.state


TABLE_CONFIGS = (
    [GameConfig(n=n) for n in (1, 2, 7, 15)]
    + [GameConfig(n=n, tiebreak=ell) for n in (2, 7, 15) for ell in (2, 3)]
    + [GameConfig(n=n, system=ScoringSystem.RALLY_POINT) for n in (1, 2, 7, 15)]
)


class TestStateTable:
    """The state table of a set of rules is `_Rally.score` and
    `_Rally.ended` on every state, and its batches draw as the reference
    loop draws however often their pools of deviates refill."""

    @pytest.mark.parametrize(
        "config", TABLE_CONFIGS, ids=lambda c: f"{c.system.value}-{c.n}" + (f"-tiebreak-{c.tiebreak}" if c.tiebreak else "")
    )
    def test_every_state_follows_the_rules(self, config):
        rules = simulate._Rally(RallyProbs(0.6, 0.5), config)
        table = simulate._table(config.n, config.system, config.tiebreak)
        side = rules.top + 1
        assert table.next.size == 2 * rules.states == 4 * side * side
        assert not any(column.flags.writeable for column in table)  # one cached table serves every batch

        def one(value, dtype):
            return np.array([value], dtype=dtype)

        for s in range(rules.states):
            h, score_h, score_l = s // (side * side), s // side % side, s % side
            # any rally count past the n-th and the (2n-1)-th
            ended = rules.ended(4 * config.n, one(score_h, rules.dtype), one(score_l, rules.dtype))[0]
            for won in (False, True):
                entry = 2 * s + won
                assert (table.h[entry], table.score_h[entry], table.score_l[entry]) == (h, score_h, score_l)
                assert table.end[entry] == ended
                if ended:  # a finished state absorbs
                    assert table.next[entry] == 2 * s
                    continue
                after_h, after_l = one(score_h, np.int64), one(score_l, np.int64)
                h_next = rules.score(one(won, bool), one(h, bool), after_h, after_l)[0]
                assert table.next[entry] == 2 * ((h_next * side + after_h[0]) * side + after_l[0])

    def test_a_top_score_above_180_compacts(self):
        probs = RallyProbs(0.6, 0.5)
        rules = [simulate._Rally(probs, GameConfig(n=n)) for n in (180, 181)]
        assert [rule.states for rule in rules] == [2 * 181**2, 2 * 182**2]
        assert [simulate._plays_on_table(200, rule) for rule in rules] == [True, False]
        tiebreak = simulate._Rally(probs, GameConfig(n=179, tiebreak=3))  # top score 181
        assert not simulate._plays_on_table(200, tiebreak)

    @pytest.mark.parametrize("capacity", [7, 64, None], ids=["7", "64", "draws-minus-1"])
    @pytest.mark.parametrize(
        "probs, config",
        [
            (RallyProbs(0.6, 0.5), GameConfig(n=15, s_a=0.5)),
            (RallyProbs(0.3, 0.7), GameConfig(n=7, tiebreak=3, s_a=0.5)),
            (RallyProbs(0.6, 0.5), GameConfig(n=21, system=ScoringSystem.RALLY_POINT, s_a=0.5)),
        ],
        ids=["sideout", "tiebreak", "rallypoint"],
    )
    def test_pools_refill_mid_batch(self, monkeypatch, probs, config, capacity):
        # a pool of at most 7, 64 or all but one of the batch's deviates
        # refills during the batch; the generator is put back by the deviates
        # used at each refill and at the end, so it draws and ends as the
        # reference loop does
        seed = SeedSpec(21, 4)
        reference_rng = seed.generator()
        want = reference_batch_games(probs, config, 200, reference_rng)
        draws = int(want.duration.sum())
        monkeypatch.setattr(simulate, "_CHUNK", draws - 1 if capacity is None else capacity)
        rewinds = []
        monkeypatch.setattr(simulate, "_rewind", lambda bits, mark, used, rewind=simulate._rewind: rewinds.append(used) or rewind(bits, mark, used))
        rng = seed.generator()
        assert_samples_equal(simulate._batch_games(probs, config, 200, rng), want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert len(rewinds) >= 2 and sum(rewinds) == draws

    def test_a_buffered_half_word_survives_the_rewind(self):
        # a 32-bit draw leaves half of a 64-bit output buffered; doubles do
        # not touch it, and neither may the rewind of a pool
        probs, config = RallyProbs(0.6, 0.5), GameConfig(n=15, s_a=0.5)
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        for generator in (rng, reference_rng):
            generator.integers(2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert_samples_equal(simulate._batch_games(probs, config, 200, rng), reference_batch_games(probs, config, 200, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert rng.integers(2**32, dtype=np.uint32) == reference_rng.integers(2**32, dtype=np.uint32)
