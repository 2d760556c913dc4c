import mpmath
import numpy as np
import pytest

from rallystats import DomainError, GameConfig, Player, RallyProbs, ScoringSystem, SeedSpec
from rallystats import duration, simulate
from rallystats.duration import QuantileMode

from oracles import (
    duration_marginal,
    duration_pmfs_by_server_winner,
    enumerate_rallypoint,
    enumerate_sideout,
    mp_rallypoint_duration_moments,
    per_tally_duration_pmf,
)

A, B = Player.A, Player.B
EVENTS = [(server, winner) for server in Player for winner in Player]


class TestInterruptionWeights:
    def test_shutout_has_no_interruptions(self):
        w = duration.interruption_weights(7, 0, A, 0.3)
        assert list(w.rs) == [0]
        assert w.weights[0] == pytest.approx(1.0)

    def test_one_all_forces_one_interruption(self):
        w = duration.interruption_weights(1, 1, A, 0.4)
        assert list(w.rs) == [1]
        assert w.weights[0] == pytest.approx(1.0)

    def test_two_two_values(self):
        # raw weights q^r C(2,r) C(1,r-1): r=1 -> 2q, r=2 -> q^2
        w = duration.interruption_weights(2, 2, A, 0.25)
        assert list(w.rs) == [1, 2]
        assert w.weights[0] == pytest.approx(0.5 / 0.5625, abs=1e-15)
        assert w.weights[1] == pytest.approx(0.0625 / 0.5625, abs=1e-15)

    def test_weights_normalized(self):
        for a, b, c in [(15, 7, A), (7, 15, B), (5, 5, A), (5, 5, B)]:
            w = duration.interruption_weights(a, b, c, 0.37)
            assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (w.weights >= 0).all()

    def test_q_zero_limit_concentrates_on_fewest(self):
        w = duration.interruption_weights(5, 3, A, 0.0)
        assert w.rs[np.argmax(w.weights)] == 1
        assert w.weights[0] == pytest.approx(1.0)
        wb = duration.interruption_weights(3, 5, B, 0.0)
        assert wb.rs[np.argmax(wb.weights)] == 1

    @pytest.mark.parametrize("q", [1e-9, 0.37, 1 - 1e-9])
    def test_variance_against_mpmath(self, q):
        # at q = 1e-9 the variance is 6.3e-8 about a mean of 1, and
        # E[R^2] - E[R]^2 loses 2e-9 of it
        w = duration.interruption_weights(15, 10, A, q)
        with mpmath.workdps(50):
            weights = [mpmath.mpf(float(x)) for x in w.weights]
            mean = mpmath.fsum(int(r) * x for r, x in zip(w.rs, weights)) / mpmath.fsum(weights)
            var = mpmath.fsum((int(r) - mean) ** 2 * x for r, x in zip(w.rs, weights)) / mpmath.fsum(weights)
        assert w.variance() == pytest.approx(float(var), rel=1e-12, abs=0.0)

    def test_against_trajectory_frequencies(self):
        # an A-interruption is a maximal scoring run by B (scoreless serve
        # bounces inside it are exchanges); count those in simulated games
        # ending 3-2 and compare with the weight law
        pr = RallyProbs(0.5, 0.5)
        cfg = GameConfig(n=3, s_a=1.0)
        counts = {1: 0, 2: 0}
        total = 0
        for i in range(40_000):
            res = simulate.simulate_game(pr, cfg, SeedSpec(505, i), keep_trajectory=True)
            if (res.score.alpha, res.score.beta) != (3, 2):
                continue
            scorers = [server for server, winner in res.trajectory if server is winner]
            r = 0
            prev = None
            for s in scorers:
                if s is B and prev is not B:
                    r += 1
                prev = s
            counts[r] += 1
            total += 1
        w = duration.interruption_weights(3, 2, A, pr.q)
        for r, weight in zip(w.rs, w.weights):
            obs = counts[int(r)] / total
            sd = np.sqrt(weight * (1 - weight) / total)
            assert abs(obs - weight) < 3.5 * sd


class TestMGF:
    def test_normalization_at_zero(self):
        for a, b, c in [(15, 3, A), (3, 15, B), (1, 1, A), (4, 0, A)]:
            assert duration.mgf_conditional(a, b, c, 0.3, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_shutout_closed_form(self):
        q, t, n = 0.35, 0.1, 6
        expect = ((1 - q) * np.exp(t) / (1 - q * np.exp(2 * t))) ** n
        assert duration.mgf_conditional(n, 0, A, q, t) == pytest.approx(expect, rel=1e-13)

    def test_divergence_outside_domain(self):
        with pytest.raises(DomainError, match="diverges"):
            duration.mgf_conditional(5, 3, A, 0.5, 0.4)  # q e^{2t} > 1

    @pytest.mark.parametrize("q", [0.2, 0.6])
    def test_finite_differences_match_closed_moments(self, q):
        # Richardson-extrapolated central differences at h = 1e-4
        def fd(a, b, c, h=1e-4):
            def m(t):
                return duration.mgf_conditional(a, b, c, q, t)

            def d1(hh):
                return (m(hh) - m(-hh)) / (2 * hh)

            def d2(hh):
                return (m(hh) - 2 * m(0.0) + m(-hh)) / (hh * hh)

            mean = (4 * d1(h / 2) - d1(h)) / 3
            second = (4 * d2(h / 2) - d2(h)) / 3
            return mean, second - mean * mean

        for a in range(0, 16, 3):
            for b in range(0, 15, 3):
                for c in (A, B):
                    if (c is A and a < 1) or (c is B and b < 1) or a + b > 29:
                        continue
                    e = duration.expected_duration_conditional(a, b, c, q)
                    v = duration.variance_duration_conditional(a, b, c, q)
                    fe, fv = fd(a, b, c)
                    assert abs(fe - e) / max(1.0, abs(e)) < 1e-6
                    assert abs(fv - v) / max(1.0, abs(v)) < 1e-6


class TestConditionalMoments:
    def test_receiver_win_range_published_values(self):
        q = RallyProbs(0.7, 0.5).q
        assert duration.expected_duration_conditional(0, 15, B, q) == pytest.approx(21.29, abs=0.01)
        assert duration.expected_duration_conditional(14, 15, B, q) == pytest.approx(47.82, abs=0.01)

    def test_q_zero_degenerate_cases_match_pmf(self):
        # shutout: exactly alpha rallies
        assert duration.expected_duration_conditional(8, 0, A, 0.0) == pytest.approx(8.0)
        assert duration.variance_duration_conditional(8, 0, A, 0.0) == pytest.approx(0.0)
        # receiver shutout win: one extra rally to regain the serve
        assert duration.expected_duration_conditional(0, 8, B, 0.0) == pytest.approx(9.0)
        for a, b, c in [(8, 0, A), (0, 8, B), (5, 3, A), (3, 5, B)]:
            pmf = duration.duration_pmf_conditional(a, b, c, RallyProbs(0.4, 1.0))
            m = pmf.moments()
            assert m.mean == pytest.approx(
                duration.expected_duration_conditional(a, b, c, 0.0), abs=1e-10
            )
            assert m.variance == pytest.approx(
                duration.variance_duration_conditional(a, b, c, 0.0), abs=1e-10
            )

    def test_simmons_sandwich(self):
        n = 15
        for q in np.arange(0.0, 0.91, 0.1):
            for k in range(n):
                e = duration.expected_duration_conditional(n, k, A, q)
                lo = (n + k) * (1 + q) / (1 - q)
                assert lo - 1e-9 <= e <= lo + 2 * k + 1e-9
                if k == 0:
                    assert e == pytest.approx(lo, abs=1e-12)

    def test_q_monotonicity(self):
        grid = np.arange(0.0, 0.951, 0.05)
        for a, b, c in [(15, 7, A), (7, 15, B), (15, 0, A), (0, 15, B), (1, 1, A), (3, 3, B)]:
            values = [duration.expected_duration_conditional(a, b, c, q) for q in grid]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_variance_matches_pmf_across_scores(self):
        pr = RallyProbs(0.6, 0.5)
        for a in range(0, 16):
            for b in range(0, 15):
                for c in (A, B):
                    if (c is A and a < 1) or (c is B and b < 1):
                        continue
                    pmf = duration.duration_pmf_conditional(a, b, c, pr, epsilon=1e-14)
                    m = pmf.moments()
                    assert m.variance == pytest.approx(
                        duration.variance_duration_conditional(a, b, c, pr.q), abs=1e-8
                    )
                    assert m.mean == pytest.approx(
                        duration.expected_duration_conditional(a, b, c, pr.q), abs=1e-8
                    )


class TestConditionalPMF:
    def test_parity_structure_exact(self):
        pr = RallyProbs(0.55, 0.45)
        pmf_a = duration.duration_pmf_conditional(9, 4, A, pr)
        for i, mass in enumerate(pmf_a.masses):
            d = pmf_a.offset + i
            if (d - 13) % 2 == 1:
                assert mass == 0.0
        assert pmf_a.offset == 13
        pmf_b = duration.duration_pmf_conditional(4, 9, B, pr)
        for i, mass in enumerate(pmf_b.masses):
            d = pmf_b.offset + i
            if (d - 14) % 2 == 1:
                assert mass == 0.0
        assert pmf_b.offset == 14  # alpha + beta + 1: server-effect shift

    def test_no_mass_below_points_played(self):
        pr = RallyProbs(0.5, 0.5)
        pmf = duration.duration_pmf_conditional(6, 3, A, pr)
        assert pmf.offset >= 9
        assert pmf.prob(8) == 0.0

    def test_mass_within_epsilon(self):
        for eps in (1e-6, 1e-12):
            pmf = duration.duration_pmf_conditional(15, 9, A, RallyProbs(0.3, 0.25), epsilon=eps)
            assert pmf.total_mass <= 1.0 + 1e-12
            assert pmf.total_mass + pmf.truncation_bound >= 1.0 - 1e-12
            assert pmf.truncation_bound <= eps

    def test_matches_enumeration_n3(self):
        pr = RallyProbs(0.6, 0.45)
        outcomes, leftover = enumerate_sideout(pr.p_a, pr.p_b, 3, server=A, tol=1e-16)
        assert leftover < 1e-15
        for a, b, c in [(3, 0, A), (3, 1, A), (3, 2, A), (0, 3, B), (1, 3, B), (2, 3, B)]:
            expected, _ = duration_marginal(
                outcomes, lambda x, y, z: (x, y, z) == (a, b, c)
            )
            pmf = duration.duration_pmf_conditional(a, b, c, pr, epsilon=1e-14)
            for d, mass in expected.items():
                assert pmf.prob(d) == pytest.approx(mass, abs=1e-10)

    def test_server_b_uses_role_swap(self):
        pr = RallyProbs(0.6, 0.45)
        pmf_b = duration.duration_pmf_conditional(3, 7, B, pr, server=B)
        pmf_a = duration.duration_pmf_conditional(7, 3, A, pr.swapped(), server=A)
        assert pmf_b.offset == pmf_a.offset
        np.testing.assert_allclose(pmf_b.masses, pmf_a.masses, rtol=0, atol=0)

    def test_q_only_dependence(self):
        # equal q = .25 from different rally probabilities
        for a, b, c in [(5, 3, A), (3, 5, B), (15, 14, A)]:
            p1 = duration.duration_pmf_conditional(a, b, c, RallyProbs(0.5, 0.5))
            p2 = duration.duration_pmf_conditional(a, b, c, RallyProbs(0.75, 0.0))
            assert p1.offset == p2.offset
            np.testing.assert_allclose(p1.masses, p2.masses, atol=1e-15)


class TestExchangeSeries:
    @pytest.mark.parametrize("m0", [15, 29])
    def test_terms_against_mpmath(self, m0):
        # q = .99980001 needs the exact q in the powers q^l, l up to 4e5
        pr = RallyProbs(1e-4, 1e-4)
        terms, _ = duration._exchange_pmf(m0, pr, 1e-12)
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(pr.p_a)) * (1 - mpmath.mpf(pr.p_b))
            for l in (0, int(m0 * q / (1 - q)), len(terms) - 1):
                exact = mpmath.binomial(m0 + l - 1, l) * q**l * (1 - q) ** m0
                assert terms[l] == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.01, 1e-3, 1e-4])
    @pytest.mark.parametrize("m0", [15, 29])
    def test_truncation_bound_covers_discarded_mass(self, p, m0):
        # P[J > L] = I_q(L + 1, m0), the regularized incomplete beta function
        terms, bound = duration._exchange_pmf(m0, RallyProbs(p, p), 1e-12)
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(p)) ** 2
            exact = mpmath.betainc(len(terms), m0, 0, q, regularized=True)
        assert exact <= bound <= 1e-12

    def test_one_series_per_point_total(self, monkeypatch):
        built = []
        exchange_pmf = duration._exchange_pmf
        monkeypatch.setattr(
            duration, "_exchange_pmf", lambda m0, *args: built.append(m0) or exchange_pmf(m0, *args)
        )
        duration_pmfs_by_server_winner(RallyProbs(0.3, 0.4), GameConfig(n=15, s_a=0.5))
        assert sorted(built) == list(range(15, 30))

    @pytest.mark.parametrize("p", [0.6, 0.05, 0.01, 1e-3])
    @pytest.mark.parametrize("m0", [1, 15, 145])
    def test_cut_from_the_mode(self, p, m0):
        # the length of `_exchange_pmf`'s series where its base (1-q)^m0 is a
        # double, and a certified tail also where it underflows (1e-3, 145)
        pr = RallyProbs(p, 0.9 * p)
        length, tail = duration._exchange_cut(m0, pr, 1e-12)
        if (pr.p_a + pr.q_a * pr.p_b) ** m0 > 0.0:
            assert length == len(duration._exchange_pmf(m0, pr, 1e-12)[0])
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(pr.p_a)) * (1 - mpmath.mpf(pr.p_b))
            exact = mpmath.betainc(length, m0, 0, q, regularized=True)
        assert exact <= tail <= 1e-12


class TestExchangeMixture:
    @pytest.mark.parametrize("p", [0.999, 0.9, 0.6, 0.05, 0.01])
    def test_against_one_series_per_point_total(self, p):
        # law[M - points, s] of random (points, shift) masses, long enough for
        # the filter to carry from block to block at large p; the reference
        # convolves each M's shifts with its own series, written at stride 2
        pr, points = RallyProbs(p, 0.9 * p), 12
        law = np.random.default_rng(5).random((60, 40)) * (np.arange(40) % 3 != 1)
        law /= law.sum()
        pmf = duration.exchange_mixture(points, law, pr, ScoringSystem.SIDE_OUT, 1e-12)
        want = np.zeros(len(pmf.masses) + 100_000)
        for k, row in enumerate(law):
            series, _ = duration._exchange_pmf(points + k, pr, 1e-16)
            for s, mass in enumerate(row):
                first = points + k + s - pmf.offset
                want[first : first + 2 * len(series) : 2] += mass * series
        assert pmf.offset == points
        assert pmf.truncation_bound <= 1e-12
        assert np.abs(pmf.masses - want[: len(pmf.masses)]).sum() <= 1e-14
        assert want[len(pmf.masses) :].sum() <= pmf.truncation_bound
        assert 1.0 - pmf.total_mass <= pmf.truncation_bound + 1e-14

    def test_rally_point_and_q_zero_add_no_exchanges(self):
        law = np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]])
        cases = ((ScoringSystem.RALLY_POINT, RallyProbs(0.3, 0.4)), (ScoringSystem.SIDE_OUT, RallyProbs(1.0, 0.4)))
        for system, pr in cases:
            pmf = duration.exchange_mixture(15, law, pr, system)
            assert (pmf.offset, pmf.masses.tolist(), pmf.truncation_bound) == (15, [0.25, 0.0, 0.75], 0.0)


class TestGroupedPMF:
    @pytest.mark.parametrize("system", list(ScoringSystem))
    @pytest.mark.parametrize("server", [None, A, B])
    @pytest.mark.parametrize("winner", [A, B, None])
    def test_matches_per_tally_mixture(self, system, server, winner):
        pr = RallyProbs(0.3, 0.45)
        cfg = GameConfig(n=15, system=system, s_a=0.3)
        if winner is None:
            pmf = duration.duration_pmf_unconditional(pr, cfg, server=server)
            offset, masses, bound = per_tally_duration_pmf(pr, cfg, (A, B), server)
        else:
            pmf = duration.duration_pmf_winner(pr, cfg, winner, server=server)
            offset, masses, bound = per_tally_duration_pmf(pr, cfg, (winner,), server)
        assert pmf.offset == offset
        assert len(pmf.masses) == len(masses)
        np.testing.assert_array_equal(pmf.masses == 0.0, masses == 0.0)
        nonzero = masses > 0.0
        np.testing.assert_allclose(pmf.masses[nonzero], masses[nonzero], rtol=1e-12, atol=0)
        assert pmf.truncation_bound == pytest.approx(bound, rel=1e-12, abs=0)

    def test_server_winner_pmfs_equal_single_calls(self):
        # joint (duration, winner) laws of mass P[winner | server]
        pr, cfg = RallyProbs(0.05, 0.1), GameConfig(n=15)
        win_probs = duration.aggregate_moments(pr, cfg).win_probs
        joint = duration_pmfs_by_server_winner(pr, cfg)
        assert list(joint) == EVENTS
        for (server, winner), pmf in joint.items():
            single = duration.duration_pmf_winner(pr, cfg, winner, server=server)
            assert pmf.offset == single.offset
            np.testing.assert_array_equal(pmf.masses / win_probs[(server, winner)], single.masses)
            assert pmf.truncation_bound / win_probs[(server, winner)] == single.truncation_bound

    @pytest.mark.parametrize("p", [0.05, 0.01, 1e-3, 1e-4])
    def test_mass_deficit_within_bound(self, p):
        pmf = duration.duration_pmf_unconditional(RallyProbs(p, p), GameConfig(n=15, s_a=0.5))
        assert abs(1.0 - pmf.total_mass) <= pmf.truncation_bound + 1e-14


class TestAggregates:
    def test_published_summary_values(self):
        cfg = GameConfig(n=15)
        agg = duration.aggregate_moments(RallyProbs(0.5, 0.5), cfg)
        assert agg.by_server_winner[(A, A)].mean == pytest.approx(48.31, abs=0.01)
        assert agg.by_server_winner[(A, B)].mean == pytest.approx(49.17, abs=0.01)
        assert agg.by_server_winner[(A, A)].sd == pytest.approx(10.23, abs=0.01)
        assert agg.by_server_winner[(A, B)].sd == pytest.approx(9.95, abs=0.01)
        agg7 = duration.aggregate_moments(RallyProbs(0.7, 0.5), cfg)
        assert agg7.by_server_winner[(A, A)].mean == pytest.approx(32.95, abs=0.01)
        assert agg7.by_server_winner[(A, B)].mean == pytest.approx(41.95, abs=0.01)

    def test_figure_caption_pairs(self):
        cfg = GameConfig(n=15)
        expected = {
            (0.7, 0.5): (33.5, 8.6),
            (0.6, 0.5): (41.6, 9.5),
            (0.5, 0.5): (48.7, 10.1),
            (0.4, 0.5): (52.5, 11.5),
        }
        for (pa, pb), (e, sd) in expected.items():
            m = duration.aggregate_moments(RallyProbs(pa, pb), cfg).by_server[A]
            assert m.mean == pytest.approx(e, abs=0.05)
            assert m.sd == pytest.approx(sd, abs=0.05)

    @pytest.mark.parametrize("system", list(ScoringSystem))
    def test_law_of_total_expectation(self, system):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, system=system, s_a=0.7)
        agg = duration.aggregate_moments(pr, cfg)
        pmf = duration.duration_pmf_unconditional(pr, cfg, epsilon=1e-14)
        m = pmf.moments()
        assert m.mean == pytest.approx(agg.overall.mean, abs=1e-8)
        assert m.variance == pytest.approx(agg.overall.variance, abs=1e-6)

    @pytest.mark.parametrize("system", list(ScoringSystem))
    def test_winner_pmf_mean_matches_aggregate(self, system):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, system=system)
        agg = duration.aggregate_moments(pr, cfg)
        for winner in (A, B):
            pmf = duration.duration_pmf_winner(pr, cfg, winner, epsilon=1e-14, server=A)
            assert pmf.moments().mean == pytest.approx(
                agg.by_server_winner[(A, winner)].mean, abs=1e-8
            )

    @pytest.mark.parametrize("p_a, p_b", [(1e-9, 1e-9), (1e-9, 0.5), (0.6, 0.45), (1 - 1e-9, 1e-9)])
    @pytest.mark.parametrize("n", [1, 7])
    def test_rallypoint_variance_against_mpmath(self, n, p_a, p_b):
        # at (1e-9, 1e-9) the game lasts 2n - 1 rallies almost surely, and
        # a variance taken as E[D^2] - E[D]^2 is rounding noise
        pr, cfg = RallyProbs(p_a, p_b), GameConfig(n=n, system=ScoringSystem.RALLY_POINT, s_a=0.5)
        mean, var = mp_rallypoint_duration_moments(p_a, p_b, n, 0.5)
        for m in (duration.aggregate_moments(pr, cfg).overall, duration.duration_pmf_unconditional(pr, cfg).moments()):
            assert m.mean == pytest.approx(float(mean), rel=1e-14, abs=0.0)
            assert m.variance == pytest.approx(float(var), rel=1e-12, abs=1e-300)


# p_a = 1, p_b = 0, p_a = 0 and q = 0: some (first server, winner) game is
# impossible at each point
IMPOSSIBLE_EVENT_POINTS = [(1.0, 0.5), (0.3, 0.0), (0.0, 0.4), (1.0, 1.0)]


class TestImpossibleEvents:
    @pytest.mark.parametrize("system", list(ScoringSystem))
    @pytest.mark.parametrize("s_a", [1.0, 0.5])
    @pytest.mark.parametrize("point", IMPOSSIBLE_EVENT_POINTS, ids=str)
    def test_aggregates_leave_out_impossible_events(self, point, s_a, system):
        pr, cfg = RallyProbs(*point), GameConfig(n=5, system=system, s_a=s_a)
        agg = duration.aggregate_moments(pr, cfg)
        laws = [(agg.overall, None)] + [(agg.by_server[server], server) for server in Player]
        for got, server in laws:
            want = duration.duration_pmf_unconditional(pr, cfg, 1e-14, server=server).moments()
            assert got.mean == pytest.approx(want.mean, rel=1e-10)
            assert got.variance == pytest.approx(want.variance, rel=1e-10, abs=1e-12)
        enumerate_game = enumerate_rallypoint if system is ScoringSystem.RALLY_POINT else enumerate_sideout
        possible = set()
        for server in Player:
            outcomes, _ = enumerate_game(*point, 5, server=server)
            possible |= {(server, last) for (_, _, last, _), mass in outcomes.items() if mass > 0.0}
        assert possible != set(EVENTS)
        assert set(agg.by_server_winner) == possible
        assert all(agg.win_probs[event] == 0.0 for event in set(EVENTS) - possible)
        weight = {A: cfg.s_a, B: cfg.s_b}
        assert set(agg.by_winner) == {winner for server, winner in possible if weight[server] > 0.0}


class TestUnconditionalPMF:
    def test_small_duration_closed_forms(self):
        pr = RallyProbs(0.6, 0.45)
        n = 5
        pmf = duration.duration_pmf_unconditional(pr, GameConfig(n=n), epsilon=1e-14, server=A)
        p_a, p_b, q_a, q = pr.p_a, pr.p_b, pr.q_a, pr.q
        assert pmf.prob(n) == pytest.approx(p_a**n, rel=1e-12)
        assert pmf.prob(n + 1) == pytest.approx(q_a * p_b**n, rel=1e-12)
        assert pmf.prob(n + 2) == pytest.approx(n * q * p_a**n + p_a * q_a * p_b**n, rel=1e-12)
        assert pmf.prob(n - 1) == 0.0

    @pytest.mark.parametrize("system", list(ScoringSystem))
    def test_server_mixture(self, system):
        pr = RallyProbs(0.6, 0.45)
        cfg = GameConfig(n=7, system=system, s_a=0.3)
        mixed = duration.duration_pmf_unconditional(pr, cfg, epsilon=1e-13)
        pa = duration.duration_pmf_unconditional(pr, cfg, epsilon=1e-13, server=A)
        pb = duration.duration_pmf_unconditional(pr, cfg, epsilon=1e-13, server=B)
        for d in range(7, 40):
            assert mixed.prob(d) == pytest.approx(0.3 * pa.prob(d) + 0.7 * pb.prob(d), abs=1e-13)

    def test_against_monte_carlo(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        pmf = duration.duration_pmf_unconditional(pr, cfg, epsilon=1e-12, server=A)
        sample = simulate.sample_games(pr, cfg, 300_000, SeedSpec(99, 3))
        counts = np.bincount(sample.duration, minlength=pmf.offset + len(pmf.masses))
        total = len(sample.duration)
        checked = 0
        for i, mass in enumerate(pmf.masses):
            expect = total * mass
            if expect < 10:
                continue
            obs = counts[pmf.offset + i]
            sd = np.sqrt(total * mass * (1 - mass))
            if abs(obs - expect) > 3 * sd:
                checked += 1
        assert checked <= 4  # ~0.27% of ~150 populated bins at 3 sigma


class TestQuantiles:
    def test_standard_at_first_support_point(self):
        pmf = duration.DurationPMF(offset=10, masses=np.array([0.5, 0.0, 0.5]), truncation_bound=0.0)
        assert duration.quantile(pmf, 0.2, QuantileMode.STANDARD) == 10.0

    def test_interpolated_median_of_symmetric_two_point(self):
        pmf = duration.DurationPMF(offset=10, masses=np.array([0.5, 0.0, 0.5]), truncation_bound=0.0)
        assert duration.quantile(pmf, 0.5, QuantileMode.INTERPOLATED) == pytest.approx(11.0)

    def test_interpolated_point_mass(self):
        pmf = duration.DurationPMF(offset=10, masses=np.array([1.0]), truncation_bound=0.0)
        for level in (0.1, 0.5, 0.9):
            assert duration.quantile(pmf, level, QuantileMode.INTERPOLATED) == 10.0

    def test_standard_steps_through_cdf(self):
        pmf = duration.DurationPMF(
            offset=4, masses=np.array([0.25, 0.25, 0.25, 0.25]), truncation_bound=0.0
        )
        assert duration.quantile(pmf, 0.25, QuantileMode.STANDARD) == 4.0
        assert duration.quantile(pmf, 0.26, QuantileMode.STANDARD) == 5.0
        assert duration.quantile(pmf, 0.99, QuantileMode.STANDARD) == 7.0

    def test_unreachable_level_raises(self):
        pmf = duration.DurationPMF(offset=5, masses=np.array([0.6, 0.3]), truncation_bound=0.1)
        with pytest.raises(DomainError, match="unreachable"):
            duration.quantile(pmf, 0.95, QuantileMode.STANDARD)

    def test_quantile_curves_monotone_in_k(self):
        # structural reading of the conditional-quantile figure
        pr = RallyProbs(0.6, 0.5)
        n = 15
        for mode in QuantileMode:
            for level in (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
                for family in ("win", "loss"):
                    values = []
                    for k in range(n):
                        if family == "win":
                            pmf = duration.duration_pmf_conditional(n, k, A, pr)
                        else:
                            pmf = duration.duration_pmf_conditional(k, n, B, pr)
                        values.append(duration.quantile(pmf, level, mode))
                    assert all(x <= y + 1e-9 for x, y in zip(values, values[1:]))
