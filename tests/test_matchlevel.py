import dataclasses
import itertools

import numpy as np
import pytest

from rallystats import ConfigError, DomainError, GameConfig, Player, RallyProbs, ScoringSystem, SeedSpec
from rallystats import duration, kernel, matchlevel, rallypoint, sideout, simulate
from rallystats.matchlevel import MatchConfig, ServerRule

from oracles import (
    ORACLE_PROBS,
    built_filters,
    check_against_reference,
    compose_match_durations,
    compose_match_win_probs,
    mixture_calls,
    per_point_total_mixture,
    reference_match_duration_pmf,
    reference_match_win_probs,
    sample_matches,
)

A, B = Player.A, Player.B
WSN, ALT, CFE = ServerRule.WINNER_SERVES_NEXT, ServerRule.ALTERNATE, ServerRule.COIN_FLIP_EACH


class TestMatchConfig:
    @pytest.mark.parametrize("games", [2.5, "2", True, False])
    def test_non_integer_games_to_win_rejected(self, games):
        # True is not a one-game match
        with pytest.raises(ConfigError, match="integer"):
            MatchConfig(games)

    def test_server_rule_given_as_its_string_value_rejected(self):
        # the string once ran the alternate rule: 0.78243 for 0.78125
        with pytest.raises(ConfigError, match="server_rule='coin-flip-each' must be a ServerRule"):
            MatchConfig(3, "coin-flip-each")

    def test_winner_given_as_its_string_value_is_a_domain_error(self):
        with pytest.raises(DomainError, match="winner='A' must be a Player"):
            matchlevel.match_win_prob(RallyProbs(0.6, 0.5), GameConfig(n=5), MatchConfig(2), "A")


class TestMatchWinProb:
    def test_single_game_match_reduces_to_game(self):
        pr = RallyProbs(0.6, 0.5)
        for s_a in (1.0, 0.5, 0.0):
            cfg = GameConfig(n=15, s_a=s_a)
            expect = s_a * sideout.game_win_prob(A, A, pr, cfg) + (1 - s_a) * sideout.game_win_prob(
                A, B, pr, cfg
            )
            got = matchlevel.match_win_prob(pr, cfg, MatchConfig(1))
            assert got == pytest.approx(expect, abs=1e-14)

    def test_anderson_rule_invariance(self):
        # winner-serves-next and alternating first servers give identical
        # match-winning probabilities
        grid = np.arange(0.1, 0.91, 0.1)
        cfg = GameConfig(n=9, s_a=1.0)
        for m in (2, 3):
            for pa in grid:
                for pb in grid:
                    pr = RallyProbs(pa, pb)
                    w = matchlevel.match_win_prob(pr, cfg, MatchConfig(m, WSN))
                    a = matchlevel.match_win_prob(pr, cfg, MatchConfig(m, ALT))
                    assert abs(w - a) < 1e-12

    def test_coin_flip_rule_supported(self):
        pr = RallyProbs(0.5, 0.5)
        cfg = GameConfig(n=15, s_a=0.5)
        p = matchlevel.match_win_prob(pr, cfg, MatchConfig(2, CFE))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_pa(self):
        cfg = GameConfig(n=15, s_a=0.5)
        values = [
            matchlevel.match_win_prob(RallyProbs(pa, 0.5), cfg, MatchConfig(2))
            for pa in np.arange(0.1, 0.91, 0.1)
        ]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_against_match_simulation(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        mc = MatchConfig(2, WSN)
        exact = matchlevel.match_win_prob(pr, cfg, mc)
        sample = sample_matches(pr, cfg, mc, 100_000, SeedSpec(2718, 0))
        p_hat = sample.winner_a.mean()
        assert abs(p_hat - exact) < 3 * np.sqrt(exact * (1 - exact) / 100_000)

    def test_rallypoint_matches_supported(self):
        pr = RallyProbs(0.55, 0.5)
        cfg = GameConfig(n=21, system=ScoringSystem.RALLY_POINT, s_a=0.5)
        mc = MatchConfig(3, ALT)
        exact = matchlevel.match_win_prob(pr, cfg, mc)
        sample = sample_matches(pr, cfg, mc, 50_000, SeedSpec(2719, 1))
        assert abs(sample.winner_a.mean() - exact) < 3 * np.sqrt(exact * (1 - exact) / 50_000)


    @pytest.mark.parametrize("system", list(ScoringSystem))
    @pytest.mark.parametrize("rule", list(ServerRule))
    @pytest.mark.parametrize("pa, pb", [(0.6, 0.45), (1.0, 0.5), (0.3, 0.0)])
    def test_matches_composed_win_probs(self, system, rule, pa, pb):
        # (1, .5) and (.3, 0) make some (server, winner) game impossible
        rally_point = system is ScoringSystem.RALLY_POINT
        for m in (1, 2, 3):
            for s_a in (1.0, 0.4):
                cfg = GameConfig(n=3, system=system, s_a=s_a)
                want = compose_match_win_probs(pa, pb, 3, m, rule.value, s_a, rally_point)
                for winner in Player:
                    got = matchlevel.match_win_prob(RallyProbs(pa, pb), cfg, MatchConfig(m, rule), winner)
                    assert got == pytest.approx(want[winner], rel=0, abs=1e-13), (m, s_a, winner)

    @pytest.mark.parametrize("n, ell", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
    @pytest.mark.parametrize("pa, pb", ORACLE_PROBS)
    def test_tiebreak_matches_composed_win_probs(self, n, ell, pa, pb):
        for rule in ServerRule:
            for m in (1, 2, 3):
                cfg = GameConfig(n=n, tiebreak=ell, s_a=0.4)
                want = compose_match_win_probs(pa, pb, n, m, rule.value, 0.4, tiebreak=ell)
                for winner in Player:
                    got = matchlevel.match_win_prob(RallyProbs(pa, pb), cfg, MatchConfig(m, rule), winner)
                    assert got == pytest.approx(want[winner], rel=1e-13, abs=0), (rule, m, winner)

    @pytest.mark.parametrize("s_a", [1.0, 0.5])
    @pytest.mark.parametrize("system", list(ScoringSystem))
    def test_one_kernel_evaluation_per_first_server(self, monkeypatch, system, s_a):
        pr, cfg = RallyProbs(0.6, 0.5), GameConfig(n=15, system=system, s_a=s_a)
        want = matchlevel.match_win_prob(pr, cfg, MatchConfig(2))
        kernel._point_game.cache_clear()  # count a point not seen yet
        calls = []
        polynomial = kernel._polynomial

        def counting(*args):
            calls.append(args)
            return polynomial(*args)

        monkeypatch.setattr(kernel, "_polynomial", counting)
        assert matchlevel.match_win_prob(pr, cfg, MatchConfig(2)) == want
        assert len(calls) == 1  # one polynomial evaluation covers both first servers

    @pytest.mark.parametrize(
        "cfg",
        [GameConfig(n=15), GameConfig(n=5, tiebreak=3), GameConfig(n=21, system=ScoringSystem.RALLY_POINT)],
        ids=["to-15", "tiebreak", "rally-point"],
    )
    @pytest.mark.parametrize("rule", list(ServerRule))
    def test_float_pass_equals_the_pass_on_1x1_laws(self, cfg, rule):
        # (1, .5) and (.3, 0) make some (server, winner) game impossible
        for s_a, m, (pa, pb) in itertools.product(
            (0.0, 1.0), (1, 2, 3, 4, 7, 20), [(0.6, 0.5), (1.0, 0.5), (0.3, 0.0), (0.45, 0.7), (0.05, 0.05), (0.9, 0.2)]
        ):
            pr, game, mc = RallyProbs(pa, pb), dataclasses.replace(cfg, s_a=s_a), MatchConfig(m, rule)
            want = reference_match_win_probs(pr, game, mc)
            for winner in Player:
                assert matchlevel.match_win_prob(pr, game, mc, winner) == want[winner], (s_a, m, pa, pb, winner)


class TestGameWinProbs:
    @pytest.mark.parametrize(
        "cfg",
        [GameConfig(n=15), GameConfig(n=11, system=ScoringSystem.RALLY_POINT), GameConfig(n=5, tiebreak=3)],
    )
    @pytest.mark.parametrize("pa, pb", [(0.6, 0.45), (1.0, 0.5), (0.3, 0.0), (1e-9, 1e-7)])
    def test_agree_with_score_distribution(self, cfg, pa, pb):
        pr = RallyProbs(pa, pb)
        for server in Player:
            dist = sideout.score_distribution(pr, cfg, server)
            both = sideout.game_win_probs(server, pr, cfg)
            assert both == pytest.approx([dist.win_prob(w) for w in Player], rel=1e-14, abs=1e-300)


class TestMatchDuration:
    @pytest.mark.parametrize("parities", [(0, 1), (0,), (1,)])
    def test_play_against_the_sum_it_defines(self, parities):
        # out[S + s, K + k] = sum state[S, K] law[k, s], on states with
        # shifts of both parities and of one, as a match's states are at a
        # fixed first server, and on laws that hold one shift parity each,
        # as a game's laws jointly with the winner do
        rng = np.random.default_rng(len(parities) + parities[0])
        state = rng.random((9, 5)) * np.isin(np.arange(9) % 2, parities)[:, None]
        laws = [rng.random((4, 6)) * (np.arange(6) % 2 == parity) for parity in (0, 1)]
        for law, got in zip(laws, matchlevel._play(state, laws)):
            want = np.zeros(got.shape)
            for (s_state, k_state), mass in np.ndenumerate(state):
                for (k, s), weight in np.ndenumerate(law):
                    want[s_state + s, k_state + k] += mass * weight
            assert got.shape == (9 + 6 - 1, 5 + 4 - 1)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_single_game_match_equals_game_pmf(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=0.5)
        match_pmf = matchlevel.match_duration_pmf(pr, cfg, MatchConfig(1), epsilon=1e-12)
        game_pmf = duration.duration_pmf_unconditional(pr, cfg, epsilon=1e-12)
        lo = min(match_pmf.offset, game_pmf.offset)
        hi = max(match_pmf.offset + len(match_pmf.masses), game_pmf.offset + len(game_pmf.masses))
        for d in range(lo, hi):
            assert match_pmf.prob(d) == pytest.approx(game_pmf.prob(d), abs=1e-12)

    def test_mean_matches_dynamic_program(self):
        # law of total expectation along the match tree, computed here from
        # per-(server, winner) game means only
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        mc = MatchConfig(2, WSN)
        agg = duration.aggregate_moments(pr, cfg)
        win = {
            sv: {w: agg.win_probs[(sv, w)] for w in Player} for sv in Player
        }
        mean = {sv: {w: agg.by_server_winner[(sv, w)].mean for w in Player} for sv in Player}

        def expected_total(a, b, server):
            if a == 2 or b == 2:
                return 0.0
            out = 0.0
            for w in Player:
                na, nb = a + (w is A), b + (w is B)
                out += win[server][w] * (mean[server][w] + expected_total(na, nb, w))
            return out

        expect = expected_total(0, 0, A)
        pmf = matchlevel.match_duration_pmf(pr, cfg, mc, epsilon=1e-13)
        assert pmf.moments().mean == pytest.approx(expect, abs=1e-8)

    @pytest.mark.parametrize("system", list(ScoringSystem))
    @pytest.mark.parametrize("rule", list(ServerRule))
    @pytest.mark.parametrize("pa, pb", [(0.6, 0.45), (1.0, 0.5), (0.3, 0.0)])
    def test_matches_composed_game_laws(self, system, rule, pa, pb):
        # (1, .5) and (.3, 0) make some (server, winner) game impossible,
        # so its winner-conditioned law does not exist
        for s_a in (1.0, 0.4):
            cfg = GameConfig(n=3, system=system, s_a=s_a)
            pmf = matchlevel.match_duration_pmf(RallyProbs(pa, pb), cfg, MatchConfig(2, rule), epsilon=1e-13)
            law = compose_match_durations(pa, pb, 3, 2, rule.value, s_a, system is ScoringSystem.RALLY_POINT)
            hi = max(max(law) + 1, pmf.offset + len(pmf.masses))
            expect = np.array([law.get(d, 0.0) for d in range(hi)])
            got = np.array([pmf.prob(d) for d in range(hi)])
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)
            assert pmf.total_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rule", list(ServerRule))
    @pytest.mark.parametrize("n, ell, pa, pb", [(4, 2, 0.6, 0.45), (3, 3, 0.3, 0.5), (5, 2, 1.0, 0.5)])
    def test_tiebreak_matches_composed_game_laws(self, rule, n, ell, pa, pb):
        # the (points, shift) pass over tie-break games against the
        # enumerated laws of those games, composed game by game
        for s_a in (1.0, 0.4):
            cfg = GameConfig(n=n, tiebreak=ell, s_a=s_a)
            pmf = matchlevel.match_duration_pmf(RallyProbs(pa, pb), cfg, MatchConfig(2, rule), epsilon=1e-13)
            law = compose_match_durations(pa, pb, n, 2, rule.value, s_a, tiebreak=ell)
            hi = max(max(law) + 1, pmf.offset + len(pmf.masses))
            expect = np.array([law.get(d, 0.0) for d in range(hi)])
            got = np.array([pmf.prob(d) for d in range(hi)])
            assert np.abs(got - expect).sum() <= pmf.truncation_bound + 1e-13
            assert pmf.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_tiebreak_against_match_simulation(self):
        pr, cfg, mc = RallyProbs(0.6, 0.5), GameConfig(n=9, tiebreak=3, s_a=0.5), MatchConfig(2, ALT)
        m = matchlevel.match_duration_pmf(pr, cfg, mc).moments()
        win = matchlevel.match_win_prob(pr, cfg, mc)
        size = 50_000
        sample = sample_matches(pr, cfg, mc, size, SeedSpec(2721, 3))
        assert abs(sample.total_rallies.mean() - m.mean) < 5 * np.sqrt(m.variance / size)
        assert abs(sample.winner_a.mean() - win) < 5 * np.sqrt(win * (1 - win) / size)
        # the sample variance has standard error sqrt((mu4 - sigma^4) / size)
        deviations = sample.total_rallies - m.mean
        se = np.sqrt((np.mean(deviations**4) - m.variance**2) / size)
        assert abs(np.mean(deviations**2) - m.variance) < 5 * se

    def test_mass_accounting(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=0.5)
        pmf = matchlevel.match_duration_pmf(pr, cfg, MatchConfig(2, ALT), epsilon=1e-10)
        assert pmf.total_mass <= 1.0 + 1e-12
        assert pmf.total_mass + pmf.truncation_bound >= 1.0 - 1e-10

    def test_against_match_simulation(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        mc = MatchConfig(2, WSN)
        pmf = matchlevel.match_duration_pmf(pr, cfg, mc, epsilon=1e-12)
        m = pmf.moments()
        sample = sample_matches(pr, cfg, mc, 100_000, SeedSpec(2720, 2))
        assert abs(sample.total_rallies.mean() - m.mean) < 3 * np.sqrt(m.variance / 100_000)
        # per-bin agreement
        counts = np.bincount(sample.total_rallies, minlength=pmf.offset + len(pmf.masses))
        total = len(sample.total_rallies)
        off = 0
        for i, mass in enumerate(pmf.masses):
            expect = total * mass
            if expect < 10:
                continue
            if abs(counts[pmf.offset + i] - expect) > 3 * np.sqrt(total * mass * (1 - mass)):
                off += 1
        assert off <= 6  # ~0.27% of ~300 populated bins at 3 sigma

    def test_rallypoint_match_duration(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=11, system=ScoringSystem.RALLY_POINT, s_a=0.5)
        pmf = matchlevel.match_duration_pmf(pr, cfg, MatchConfig(2, ALT))
        assert pmf.truncation_bound == 0.0
        assert pmf.total_mass == pytest.approx(1.0, abs=1e-12)
        assert pmf.offset >= 22  # at least two 11-point shutouts


class TestBlockDuration:
    @pytest.mark.parametrize("matches", [1, 2, 16])
    @pytest.mark.parametrize(
        "probs, config",
        [
            (RallyProbs(0.3, 0.3), GameConfig(n=15, s_a=0.5)),
            (RallyProbs(0.6, 0.5), GameConfig(n=9, tiebreak=3, s_a=0.5)),
            (RallyProbs(0.6, 0.45), GameConfig(n=11, system=ScoringSystem.RALLY_POINT)),
        ],
        ids=["sideout", "tiebreak", "rallypoint"],
    )
    def test_equals_the_convolution_loop(self, probs, config, matches):
        # the law of one match at epsilon / K convolved with itself K - 1 times
        mc, epsilon = MatchConfig(2, ALT), 1e-10
        single = matchlevel.match_duration_pmf(probs, config, mc, epsilon / matches)
        masses = single.masses
        for _ in range(matches - 1):
            masses = np.convolve(masses, single.masses)
        block = matchlevel.block_duration_pmf(probs, config, mc, matches, epsilon)
        assert (block.offset, block.truncation_bound) == (matches * single.offset, matches * single.truncation_bound)
        np.testing.assert_array_equal(block.masses, masses)

    @pytest.mark.parametrize("matches", [0, -1, 2.5, True, "2"])
    def test_matches_must_be_a_positive_integer(self, matches):
        with pytest.raises(ConfigError, match="matches"):
            matchlevel.block_duration_pmf(RallyProbs(0.6, 0.5), GameConfig(n=5), MatchConfig(2), matches)

    @pytest.mark.parametrize("epsilon", ["1e-12", None])
    def test_epsilon_must_be_a_real(self, epsilon):
        with pytest.raises(DomainError, match="epsilon"):
            matchlevel.block_duration_pmf(RallyProbs(0.6, 0.5), GameConfig(n=5), MatchConfig(2), 2, epsilon)


def _aligned(*pmfs):
    """The masses of PMFs on one common range of rally counts."""
    lo = min(pmf.offset for pmf in pmfs)
    hi = max(pmf.offset + len(pmf.masses) for pmf in pmfs)
    out = []
    for pmf in pmfs:
        masses = np.zeros(hi - lo)
        masses[pmf.offset - lo : pmf.offset - lo + len(pmf.masses)] = pmf.masses
        out.append(masses)
    return out


class TestAgainstReferenceComposition:
    """The (points, shift) pass with one exchange law against the direct
    convolution of the games' joint (rallies, winner) laws.  The two laws
    cut their exchange series at different places, so they are compared in
    L1 within the sum of both truncation bounds."""

    @staticmethod
    def check(pr, cfg, mc):
        pmf = matchlevel.match_duration_pmf(pr, cfg, mc, epsilon=1e-12)
        ref = reference_match_duration_pmf(pr, cfg, mc, epsilon=1e-12)
        assert pmf.truncation_bound <= 1e-12
        got, want = _aligned(pmf, ref)
        assert np.abs(got - want).sum() <= pmf.truncation_bound + ref.truncation_bound + 1e-13
        assert pmf.mean == pytest.approx(ref.mean, rel=1e-10, abs=0)
        assert pmf.variance == pytest.approx(ref.variance, rel=1e-10, abs=0)

    @pytest.mark.parametrize("system", list(ScoringSystem))
    @pytest.mark.parametrize("rule", list(ServerRule))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("pa, pb", [(0.6, 0.45), (0.05, 0.045)])
    def test_matches_reference(self, system, rule, m, pa, pb):
        self.check(RallyProbs(pa, pb), GameConfig(n=15, system=system, s_a=0.4), MatchConfig(m, rule))

    def test_best_of_five_at_small_p(self):
        self.check(RallyProbs(0.01, 0.009), GameConfig(n=15, s_a=0.5), MatchConfig(3, WSN))

    def test_best_of_five_at_large_p(self):
        # q = .02: the exchange filter runs in several blocks
        self.check(RallyProbs(0.9, 0.8), GameConfig(n=21, s_a=0.5), MatchConfig(3, ALT))

    def test_best_of_39_scan_against_per_point_total(self, monkeypatch):
        # 20 games to win at p = .05, of games to 4: a scale range of e^2
        # splits the head the filter passes run over into blocks of 19 t,
        # and every point total keeps its base (1-q)^M a double, so the
        # series of each M can serve as the reference for the law the match
        # pass hands to `exchange_mixture`
        pr, cfg, mc = RallyProbs(0.05, 0.05), GameConfig(n=4, s_a=0.5), MatchConfig(20, WSN)
        monkeypatch.setattr(duration._GeometricFilter, "_RANGE", 2.0)
        calls, filters = mixture_calls(monkeypatch), built_filters(monkeypatch)
        pmf = matchlevel.match_duration_pmf(pr, cfg, mc, 1e-12)
        ((points, law, *_),), ((filt, _),) = calls, filters
        assert filt.acc.shape[1] == 19 and len(filt.acc) > 2
        check_against_reference(pmf, per_point_total_mixture(points, law, pr, 1e-16, len(pmf.masses)), 1e-12)
