import numpy as np
import pytest

from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, SeedSpec
from rallystats import duration, sideout, simulate

from oracles import duration_marginal, enumerate_rallypoint, no_server_score_prob, score_marginal, score_prob_r, served_by, tally_prob

A, B = Player.A, Player.B
RP = ScoringSystem.RALLY_POINT


def rp_config(n):
    return GameConfig(n=n, system=RP)


class TestScoreProbs:
    def test_single_rally(self):
        assert score_prob_r(1, 0, A, 0, RallyProbs(0.5, 0.5)) == pytest.approx(0.5)

    def test_interruptions_need_serve_loss(self):
        pr = RallyProbs(1.0, 0.5)
        for r in (1, 2, 3):
            assert score_prob_r(5, 3, A, r, pr) == 0.0

    def test_r_sum_equals_total(self):
        pr = RallyProbs(0.6, 0.45)
        for alpha in range(0, 7):
            for beta in range(0, 7):
                for last in (A, B):
                    if (last is A and alpha < 1) or (last is B and beta < 1):
                        continue
                    total = sum(
                        score_prob_r(alpha, beta, last, r, pr)
                        for r in range(0, max(alpha, beta) + 2)
                    )
                    assert total == pytest.approx(tally_prob(alpha, beta, last, pr, RP), abs=1e-14)

    def test_remark_negative_binomial_identity(self):
        # no-server diagonal: closed negative-binomial form to 1e-12
        for p in (0.2, 0.5, 0.73):
            pr = RallyProbs.no_server(p)
            for alpha in range(0, 22):
                for beta in range(0, 21):
                    for last in (A, B):
                        if (last is A and alpha < 1) or (last is B and beta < 1):
                            continue
                        lhs = tally_prob(alpha, beta, last, pr, RP)
                        rhs = no_server_score_prob(alpha, beta, last, p)
                        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_no_server_reflection_symmetry(self):
        for p in (0.3, 0.62):
            for alpha in range(1, 8):
                for beta in range(0, 8):
                    lhs = tally_prob(alpha, beta, A, RallyProbs.no_server(p), RP)
                    rhs = tally_prob(beta, alpha, B, RallyProbs.no_server(1 - p), RP)
                    assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_matches_enumeration(self):
        # (.6, 0): B never wins a rally on serve
        for pa, pb in [(0.5, 0.5), (0.7, 0.3), (0.9, 0.15), (0.6, 0.0)]:
            pr = RallyProbs(pa, pb)
            for n in (1, 2, 3, 4):
                outcomes, _ = enumerate_rallypoint(pa, pb, n, server=A)
                marg = score_marginal(outcomes)
                for (a, b, last), mass in marg.items():
                    assert tally_prob(a, b, last, pr, RP) == pytest.approx(mass, abs=1e-12)
                # the game ends within 2n - 1 rallies, so these durations are exact
                durations, _ = duration_marginal(outcomes)
                pmf = duration.duration_pmf_unconditional(pr, served_by(rp_config(n), A))
                for d, mass in durations.items():
                    assert pmf.prob(d) == pytest.approx(mass, abs=1e-12)

    def test_normalization(self):
        for n in (1, 9, 21):
            dist = sideout.score_distribution(RallyProbs(0.62, 0.48), rp_config(n), server=A)
            assert dist.total_mass == pytest.approx(1.0, abs=1e-12)


class TestWinProbs:
    def test_even_strength_is_fair(self):
        cfg = rp_config(21)
        pr = RallyProbs(0.5, 0.5)
        assert sideout.game_win_prob(A, A, pr, cfg) == pytest.approx(0.5, abs=1e-12)
        assert sideout.game_win_prob(A, B, pr, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_ratio_to_sideout_vanishes_at_small_p(self):
        so_cfg = GameConfig(n=15)
        rp_cfg = rp_config(21)

        def ratio(p):
            pr = RallyProbs.no_server(p)
            return sideout.game_win_prob(A, A, pr, rp_cfg) / sideout.game_win_prob(
                A, A, pr, so_cfg
            )

        values = [ratio(p) for p in (0.05, 0.02, 0.01, 0.005)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_tuned_target_score_matches_winning_probabilities_best(self):
        # among rally-point targets 19..29, n = 27 brings the A-game
        # win-probability ratio closest to 1 over the mid-range of p
        so_cfg = GameConfig(n=15)
        grid = np.arange(0.3, 0.7001, 0.005)
        so_win = {p: sideout.game_win_prob(A, A, RallyProbs.no_server(p), so_cfg) for p in grid}
        worst = {}
        for n in range(19, 30):
            cfg = rp_config(n)
            worst[n] = max(
                abs(sideout.game_win_prob(A, A, RallyProbs.no_server(p), cfg) / so_win[p] - 1)
                for p in grid
            )
        assert min(worst, key=worst.get) == 27


class TestDurations:
    def test_conditional_duration_is_deterministic(self):
        agg = duration.aggregate_moments(RallyProbs(0.6, 0.5), rp_config(5))
        # winner-conditional variance comes from the score spread only;
        # per-score it is zero, which the pushforward PMF shows directly
        pmf = duration.duration_pmf_winner(RallyProbs(0.6, 0.5), served_by(rp_config(5), A), A)
        assert pmf.truncation_bound == 0.0
        assert agg.by_server_winner[(A, A)].variance >= 0.0

    def test_unconditional_mean_symmetric_in_no_server_model(self):
        cfg = rp_config(21)
        for p in (0.1, 0.3, 0.45):
            m1 = duration.aggregate_moments(RallyProbs.no_server(p), cfg).by_server[A]
            m2 = duration.aggregate_moments(RallyProbs.no_server(1 - p), cfg).by_server[A]
            assert m1.mean == pytest.approx(m2.mean, abs=1e-10)
            assert m1.sd == pytest.approx(m2.sd, abs=1e-10)

    def test_pushforward_matches_score_distribution(self):
        pr = RallyProbs(0.6, 0.45)
        cfg = rp_config(6)
        pmf = duration.duration_pmf_unconditional(pr, served_by(cfg, A))
        dist = sideout.score_distribution(pr, cfg, server=A)
        for d in range(6, 12):
            expect = sum(p for s, p in dist.entries.items() if s.alpha + s.beta == d)
            assert pmf.prob(d) == pytest.approx(expect, abs=1e-14)
        assert pmf.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_pushforward_against_monte_carlo(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = rp_config(21)
        pmf = duration.duration_pmf_unconditional(pr, served_by(cfg, A))
        sample = simulate.sample_games(pr, cfg, 200_000, SeedSpec(42, 5))
        total = len(sample.duration)
        counts = np.bincount(sample.duration, minlength=pmf.offset + len(pmf.masses))
        off_bins = 0
        for i, mass in enumerate(pmf.masses):
            expect = total * mass
            if expect < 10:
                continue
            if abs(counts[pmf.offset + i] - expect) > 3 * np.sqrt(total * mass * (1 - mass)):
                off_bins += 1
        assert off_bins <= 2

    def test_impossible_winner_raises_conditioning_error(self):
        from rallystats import ConditioningError

        with pytest.raises(ConditioningError):
            duration.duration_pmf_winner(RallyProbs(1.0, 0.0), served_by(rp_config(15), A), B)

    def test_sd_dominance_over_sideout(self):
        so_cfg = GameConfig(n=15)
        rp_cfg = rp_config(21)
        for p in np.arange(0.05, 0.951, 0.05):
            pr = RallyProbs.no_server(p)
            so_sd = duration.aggregate_moments(pr, so_cfg).by_server[A].sd
            rp_sd = duration.aggregate_moments(pr, rp_cfg).by_server[A].sd
            assert rp_sd <= so_sd
