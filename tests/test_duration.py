import functools
import math
from collections import defaultdict

import mpmath
import numpy as np
import pytest

from rallystats import ConditioningError, ConfigError, DomainError, GameConfig, Player, RallyProbs, ScoringSystem, SeedSpec, TerminalScore
from rallystats import duration, kernel, matchlevel, rallypoint, sideout, simulate
from rallystats.duration import QuantileMode
from rallystats.matchlevel import MatchConfig

from oracles import (
    built_filters,
    check_against_full_window,
    check_against_reference,
    duration_marginal,
    duration_pmfs_by_server_winner,
    enumerate_rallypoint,
    enumerate_sideout,
    exchange_cut_walk,
    exchange_pmf,
    full_cdf_quantile,
    given_tally_moments,
    given_tally_pmf,
    interruption_weights,
    mixture_calls,
    mp_rallypoint_duration_moments,
    mp_sideout_duration_moments,
    mp_sideout_duration_prob,
    mp_sideout_win_prob,
    per_point_total_mixture,
    per_point_total_pmf,
    per_tally_duration_pmf,
    reference_exchange_mixture,
    aligned,
    at_q,
    reference_quantile,
    served_by,
    simulate_game,
    tally_moments,
    tally_pmf,
)

A, B = Player.A, Player.B
EVENTS = [(server, winner) for server in Player for winner in Player]
LADDER = GameConfig(n=15, s_a=0.5)  # the game of the duration-tail benchmark


def interruption_law(alpha, beta, last, q):
    """(r, weights) of the interruption count R given an A-game tally, read
    off the shift law of the tally as a game-table component (`kernel._ends`;
    the law depends on q alone, whatever the rally probabilities): the
    shift is s = 2r - delta."""
    rows = kernel.tallies([(alpha, beta, last is A)])
    law = kernel._ends(ScoringSystem.SIDE_OUT, rows, 0.5, 0.5).shift_laws(q)[0]
    s = np.flatnonzero(law)
    return (s + int(last is B)) // 2, law[s]


class TestInterruptionWeights:
    def test_shutout_has_no_interruptions(self):
        rs, weights = interruption_law(7, 0, A, 0.3)
        assert list(rs) == [0]
        assert weights[0] == pytest.approx(1.0)

    def test_one_all_forces_one_interruption(self):
        rs, weights = interruption_law(1, 1, A, 0.4)
        assert list(rs) == [1]
        assert weights[0] == pytest.approx(1.0)

    def test_two_two_values(self):
        # raw weights q^r C(2,r) C(1,r-1): r=1 -> 2q, r=2 -> q^2
        rs, weights = interruption_law(2, 2, A, 0.25)
        assert list(rs) == [1, 2]
        assert weights[0] == pytest.approx(0.5 / 0.5625, abs=1e-15)
        assert weights[1] == pytest.approx(0.0625 / 0.5625, abs=1e-15)

    def test_weights_normalized(self):
        for a, b, c in [(15, 7, A), (7, 15, B), (5, 5, A), (5, 5, B)]:
            _, weights = interruption_law(a, b, c, 0.37)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (weights >= 0).all()

    def test_q_zero_limit_concentrates_on_fewest(self):
        rs, weights = interruption_law(5, 3, A, 0.0)
        assert rs[np.argmax(weights)] == 1
        assert weights[0] == pytest.approx(1.0)
        rs, weights = interruption_law(3, 5, B, 0.0)
        assert rs[np.argmax(weights)] == 1

    @pytest.mark.parametrize("q", [0.0, 1e-9, 0.37, 1 - 1e-9])
    @pytest.mark.parametrize("a, b, c", [(15, 0, A), (1, 1, A), (15, 10, A), (10, 15, B), (21, 21, B), (40, 33, A)])
    def test_against_exact_coefficients(self, a, b, c, q):
        # the exact integer coefficients in 40-digit arithmetic, rounded once
        js, want = interruption_weights(a, b, c is A, q)
        rs, weights = interruption_law(a, b, c, q)
        kept = want > 0.0
        np.testing.assert_array_equal(rs, js[kept] + int(c is B))
        np.testing.assert_allclose(weights, want[kept], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("q", [1e-9, 0.37, 1 - 1e-9])
    def test_variance_against_mpmath(self, q):
        # the variance the per-tally and game-level moments read: at q =
        # 1e-9 it is 6.3e-8 about a mean of 1, and E[R^2] - E[R]^2 would
        # lose 2e-9 of it
        _, _, var = kernel.interruption_polynomial(kernel.tallies([(15, 10, True)]), q)
        with mpmath.workdps(50):
            w = {j: math.comb(15, j) * math.comb(9, j - 1) * mpmath.mpf(q) ** j for j in range(1, 11)}
            mean = mpmath.fsum(j * x for j, x in w.items()) / mpmath.fsum(w.values())
            exact = mpmath.fsum((j - mean) ** 2 * x for j, x in w.items()) / mpmath.fsum(w.values())
        assert float(var[0]) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_against_trajectory_frequencies(self):
        # an A-interruption is a maximal scoring run by B (scoreless serve
        # bounces inside it are exchanges); count those in simulated games
        # ending 3-2 and compare with the weight law
        pr = RallyProbs(0.5, 0.5)
        cfg = GameConfig(n=3, s_a=1.0)
        counts = {1: 0, 2: 0}
        total = 0
        for i in range(40_000):
            res = simulate_game(pr, cfg, SeedSpec(505, i), keep_trajectory=True)
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
        for r, weight in zip(*interruption_law(3, 2, A, pr.q)):
            obs = counts[int(r)] / total
            sd = np.sqrt(weight * (1 - weight) / total)
            assert abs(obs - weight) < 3.5 * sd


def richardson_moments(mgf, h=1e-4):
    """Mean and variance from Richardson-extrapolated central differences
    of an MGF at 0, at steps h and h/2."""

    def d1(hh):
        return (mgf(hh) - mgf(-hh)) / (2 * hh)

    def d2(hh):
        return (mgf(hh) - 2 * mgf(0.0) + mgf(-hh)) / (hh * hh)

    mean = (4 * d1(h / 2) - d1(h)) / 3
    return mean, (4 * d2(h / 2) - d2(h)) / 3 - mean * mean


# (probs, config, end score) of the MGF's cases: regular ends won by either
# side, an end of a tie-break's extension (reached by either tying scorer),
# a rally-point end, a mixed first server and a long game near q = 1
MGF_CASES = [
    (RallyProbs(0.6, 0.5), GameConfig(n=15), (15, 9)),
    (RallyProbs(0.6, 0.5), GameConfig(n=15), (10, 15)),
    (RallyProbs(0.4, 0.6), GameConfig(n=9, tiebreak=3), (11, 9)),
    (RallyProbs(0.55, 0.45), GameConfig(n=21, system=ScoringSystem.RALLY_POINT), (21, 17)),
    (RallyProbs(0.6, 0.5), GameConfig(n=15, s_a=0.3), (13, 15)),
    (RallyProbs(0.05, 0.05), GameConfig(n=15, s_a=0.5), (15, 12)),
]


class TestMGF:
    @pytest.mark.parametrize("probs, config, score", MGF_CASES)
    def test_normalization_at_zero(self, probs, config, score):
        assert duration.score_mgf(probs, config, score, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_shutout_closed_form(self):
        # A serves first and wins n-0 on serve: n points with their exchanges
        pr, t, n = RallyProbs(0.5, 0.3), 0.1, 6
        q = pr.q
        expect = ((1 - q) * np.exp(t) / (1 - q * np.exp(2 * t))) ** n
        assert duration.score_mgf(pr, GameConfig(n=n), (n, 0), t) == pytest.approx(expect, rel=1e-13)

    def test_rally_point_is_the_points_alone(self):
        pr, cfg, t = RallyProbs(0.55, 0.45), GameConfig(n=21, system=ScoringSystem.RALLY_POINT), 0.01
        assert duration.score_mgf(pr, cfg, (21, 17), t) == pytest.approx(math.exp(38 * t), rel=1e-15)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_is_a_domain_error(self, t):
        # at t = -inf the shift law's sum would be NaN: e^(t * 0)
        with pytest.raises(DomainError, match="not finite"):
            duration.score_mgf(RallyProbs(0.6, 0.5), GameConfig(n=5), (5, 3), t)

    @pytest.mark.parametrize("t", ["0.1", None, (0.1,), 1j])
    def test_non_real_t_is_a_domain_error(self, t):
        with pytest.raises(DomainError, match="t=.* must be a Real"):
            duration.score_mgf(RallyProbs(0.6, 0.5), GameConfig(n=5), (5, 3), t)

    def test_divergence_outside_domain(self):
        with pytest.raises(DomainError, match="diverges"):
            duration.score_mgf(RallyProbs(0.3, 0.3), GameConfig(n=5), (5, 3), 0.4)  # q e^{2t} > 1

    @pytest.mark.parametrize("t", [200.0, 400.0])
    def test_overflow_is_a_domain_error(self, t):
        # at p_a = 1, q = 0: every t is in the domain, but the MGF e^(7t) of
        # a 7-0 shutout overflows a double: in the power at t = 200, in
        # e^(2t) - 1 at t = 400
        with pytest.raises(DomainError, match="overflows"):
            duration.score_mgf(RallyProbs(1.0, 0.5), GameConfig(n=7), (7, 0), t)

    def test_large_value_in_range(self):
        # at q = 0 a 7-0 shutout takes 7 rallies surely, so the MGF is
        # e^(7t): near the largest double at t = 100, and the same value as
        # before the overflow check
        got = duration.score_mgf(RallyProbs(1.0, 0.5), GameConfig(n=7), (7, 0), 100.0)
        assert got == 1.014232054735005e304
        assert got == pytest.approx(math.exp(700.0), rel=1e-15)

    @pytest.mark.parametrize("t", [-0.5, -1e-4, 2e-7, 9e-7])
    @pytest.mark.parametrize("a, b, c", [(15, 0, A), (15, 9, A), (6, 15, B)])
    def test_against_mpmath_near_q_one(self, a, b, c, t):
        # p_a = p_b = 1e-6: 1.0 - q keeps 10 digits, and 1 - q e^(2t) fewer
        # still as t nears -log(q) / 2 = 1e-6
        pr = RallyProbs(1e-6, 1e-6)
        got = duration.score_mgf(pr, GameConfig(n=15), (a, b), t)
        with mpmath.workdps(50):
            p, t_mp = mpmath.mpf(pr.p_a), mpmath.mpf(t)
            q = (1 - p) ** 2
            delta = int(c is B)
            # interruption weights: binom(a, r - delta) binom(b - 1, r - 1) q^(r - delta)
            w = {r: mpmath.binomial(a, r - delta) * mpmath.binomial(b - 1, r - 1) * q ** (r - delta)
                 for r in range(delta, min(a + delta, b) + 1)}
            if b == 0:
                w = {0: mpmath.mpf(1)}
            base = ((1 - q) * mpmath.exp(t_mp) / (1 - q * mpmath.exp(2 * t_mp))) ** (a + b)
            want = base * sum(wt * mpmath.exp(t_mp * (2 * r - delta)) for r, wt in w.items()) / sum(w.values())
        assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("probs, config, score", MGF_CASES)
    def test_finite_differences_match_score_moments(self, probs, config, score):
        # a step of 0.004 / E[D] keeps the truncation below the rounding,
        # which the variance takes from E[D^2] - E[D]^2
        m = duration.score_moments(probs, config, score)
        mean, var = richardson_moments(lambda t: duration.score_mgf(probs, config, score, t), 4e-3 / m.mean)
        assert mean == pytest.approx(m.mean, rel=1e-10)
        assert abs(var - m.variance) <= 1e-8 * (m.variance + m.mean**2)

    @pytest.mark.parametrize("q", [0.2, 0.6])
    def test_finite_differences_match_closed_moments(self, q):
        # every end of a game to 15 first served by A, against the moments
        # of the oracle's law of the interruption power
        pr = at_q(q)
        for score in sideout.score_distribution(pr, GameConfig(n=15)).entries:
            a, b, c = score.alpha, score.beta, score.last_scorer
            mean, var = richardson_moments(lambda t: duration.score_mgf(pr, GameConfig(n=15), score, t))
            m = tally_moments(a, b, c, pr.q)
            assert abs(mean - m.mean) / max(1.0, abs(m.mean)) < 1e-6
            assert abs(var - m.variance) / max(1.0, abs(m.variance)) < 1e-6


class TestConditionalMoments:
    """The law given an end score of a game first served by A; tallies no
    game ends at, such as those of a tie or any receiver's point at q = 0,
    are read from the oracle (`given_tally_moments`, `given_tally_pmf`)."""

    def test_receiver_win_range_published_values(self):
        pr, cfg = RallyProbs(0.7, 0.5), GameConfig(n=15)
        assert duration.score_moments(pr, cfg, (0, 15)).mean == pytest.approx(21.29, abs=0.01)
        assert duration.score_moments(pr, cfg, (14, 15)).mean == pytest.approx(47.82, abs=0.01)

    def test_q_zero_degenerate_cases_match_pmf(self):
        pr = RallyProbs(0.4, 1.0)  # q = 0
        # shutout: exactly alpha rallies
        m = duration.score_moments(pr, GameConfig(n=8), (8, 0))
        assert (m.mean, m.variance) == pytest.approx((8.0, 0.0))
        # receiver shutout win: one extra rally to regain the serve
        assert duration.score_moments(pr, GameConfig(n=8), (0, 8)).mean == pytest.approx(9.0)
        # 5-3 to the first server needs both serves lost: no game ends there at q = 0
        for a, b, c in [(8, 0, A), (0, 8, B), (5, 3, A), (3, 5, B)]:
            m = given_tally_pmf(a, b, c, pr).moments()
            want = given_tally_moments(a, b, c, pr)
            assert m.mean == pytest.approx(want.mean, abs=1e-10)
            assert m.variance == pytest.approx(want.variance, abs=1e-10)

    def test_simmons_sandwich(self):
        n = 15
        for q in np.arange(0.0, 0.91, 0.1):
            pr = at_q(q)
            for k in range(n):
                e = given_tally_moments(n, k, A, pr).mean
                lo = (n + k) * (1 + pr.q) / (1 - pr.q)
                assert lo - 1e-9 <= e <= lo + 2 * k + 1e-9
                if k == 0:
                    assert e == pytest.approx(lo, abs=1e-12)

    def test_q_monotonicity(self):
        grid = np.arange(0.0, 0.951, 0.05)
        for a, b, c in [(15, 7, A), (7, 15, B), (15, 0, A), (0, 15, B), (1, 1, A), (3, 3, B)]:
            values = [given_tally_moments(a, b, c, at_q(q)).mean for q in grid]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_variance_matches_pmf_across_scores(self):
        pr = RallyProbs(0.6, 0.5)
        for a in range(0, 16):
            for b in range(0, 15):
                for c in (A, B):
                    if (c is A and a < 1) or (c is B and b < 1):
                        continue
                    m = given_tally_pmf(a, b, c, pr, epsilon=1e-14).moments()
                    want = given_tally_moments(a, b, c, pr)
                    assert m.variance == pytest.approx(want.variance, abs=1e-8)
                    assert m.mean == pytest.approx(want.mean, abs=1e-8)


class TestConditionalPMF:
    def test_parity_structure_exact(self):
        pr, cfg = RallyProbs(0.55, 0.45), GameConfig(n=9)
        pmf_a = duration.score_pmf(pr, cfg, (9, 4))
        for i, mass in enumerate(pmf_a.masses):
            d = pmf_a.offset + i
            if (d - 13) % 2 == 1:
                assert mass == 0.0
        assert pmf_a.offset == 15  # 9 + 4 + 2: B wins the serve and A wins it back
        assert pmf_a.prob(13) == 0.0
        pmf_b = duration.score_pmf(pr, cfg, (4, 9))
        for i, mass in enumerate(pmf_b.masses):
            d = pmf_b.offset + i
            if (d - 14) % 2 == 1:
                assert mass == 0.0
        assert pmf_b.offset == 14  # alpha + beta + 1: server-effect shift

    def test_no_mass_below_points_played(self):
        pr = RallyProbs(0.5, 0.5)
        pmf = duration.score_pmf(pr, GameConfig(n=6), (6, 3))
        assert pmf.offset >= 9
        assert pmf.prob(8) == 0.0

    def test_mass_within_epsilon(self):
        for eps in (1e-6, 1e-12):
            pmf = duration.score_pmf(RallyProbs(0.3, 0.25), GameConfig(n=15), (15, 9), epsilon=eps)
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
            pmf = duration.score_pmf(pr, GameConfig(n=3), (a, b), epsilon=1e-14)
            for d, mass in expected.items():
                assert pmf.prob(d) == pytest.approx(mass, abs=1e-10)

    def test_q_only_dependence(self):
        # equal q = .25 from different rally probabilities; at (.75, 0) B
        # never scores, so these ends have no law there
        for score, n in [((5, 3), 5), ((3, 5), 5), ((15, 14), 15)]:
            cfg = GameConfig(n=n)
            p1 = duration.score_pmf(RallyProbs(0.5, 0.5), cfg, score)
            p2 = duration.score_pmf(RallyProbs(0.6, 0.375), cfg, score)
            assert p1.offset == p2.offset
            np.testing.assert_allclose(p1.masses, p2.masses, atol=1e-15)
            with pytest.raises(ConditioningError):
                duration.score_pmf(RallyProbs(0.75, 0.0), cfg, score)


PER_TALLY_GAMES = [5, 9, 15, 21]


def regular_end_scores(n):
    """Every end score of a game to n without a tie-break: (A's points, B's
    points, the winner)."""
    return [(n, k, A) for k in range(n)] + [(k, n, B) for k in range(n)]


class TestPreExchangeLaws:
    @pytest.mark.parametrize(
        "cfg",
        [
            GameConfig(n=5),
            GameConfig(n=15),
            GameConfig(n=9, tiebreak=3),
            GameConfig(n=7, tiebreak=5),
            GameConfig(n=11, system=ScoringSystem.RALLY_POINT),
            GameConfig(n=21, system=ScoringSystem.RALLY_POINT),
        ],
    )
    @pytest.mark.parametrize("pa, pb", [(0.6, 0.5), (0.3, 0.7), (1.0, 0.5), (0.05, 0.05), (0.45, 0.0)])
    def test_each_law_holds_one_shift_parity(self, cfg, pa, pb):
        # side-out: the shift is odd exactly when the receiver wins, a
        # tie-break game too; rally-point: every rally scores, shift 0
        laws = duration.pre_exchange_laws(RallyProbs(pa, pb), cfg)
        assert len({law.shape for law in laws.values()}) == 1
        for (server, winner), law in laws.items():
            held = np.flatnonzero(law.any(axis=0))
            if cfg.system is ScoringSystem.RALLY_POINT:
                assert held.tolist() == [0], (server, winner)
            else:
                assert held.size and set(held % 2) == {int(winner is not server)}, (server, winner)


class TestPerTallyAgainstPerScore:
    """The per-score laws of the game table (`duration.score_moments`,
    `score_pmf`) against the oracle's law of an A-game tally
    (`tally_moments`, `tally_pmf`, from the 40-digit interruption weights)
    at every regular end score of games to 5, 9, 15 and 21, for both first
    servers, at seeded points."""

    @staticmethod
    def points(n):
        rng = np.random.default_rng(2100 + n)
        return [RallyProbs(*rng.uniform(0.05, 0.95, 2)) for _ in range(3)]

    @pytest.mark.parametrize("n", PER_TALLY_GAMES)
    def test_moments(self, n):
        for pr in self.points(n):
            for alpha, beta, last in regular_end_scores(n):
                for server in Player:
                    want = duration.score_moments(pr, GameConfig(n=n, s_a=float(server is A)), (alpha, beta))
                    # a game first served by B is the A-game of the swapped tally
                    a, b, c = (alpha, beta, last) if server is A else (beta, alpha, last.other)
                    got = tally_moments(a, b, c, pr.q)
                    assert got.mean == pytest.approx(want.mean, rel=2e-15, abs=0)
                    assert got.variance == pytest.approx(want.variance, rel=2e-15, abs=0)

    @pytest.mark.parametrize("n", PER_TALLY_GAMES)
    def test_pmfs(self, n):
        for pr in self.points(n):
            for alpha, beta, last in regular_end_scores(n):
                for server in Player:
                    want = duration.score_pmf(pr, GameConfig(n=n, s_a=float(server is A)), (alpha, beta))
                    a, b, c = (alpha, beta, last) if server is A else (beta, alpha, last.other)
                    got = tally_pmf(a, b, c, pr)
                    # both windows end past a tail of at most their bound
                    assert np.abs(np.subtract(*aligned(got, want))).sum() <= got.truncation_bound + want.truncation_bound


class TestScoreLawsThroughQ:
    """The law of D given an end score and a stated first server depends on
    (p_a, p_b) through q alone, the paper's claim, on the public laws: every
    end score of a game to 15, and ends of a game to 9 with a 3-point
    tie-break, the extension's among them, at pairs of points with equal q.
    It does not hold with a random first server: the weights of the two
    first servers given the score then carry a lone side-out factor q_a or
    q_b, and at s_a = .5 the laws of one end at (.9, .1) and (.1, .9) are
    nearly disjoint (an L1 gap of 1.0 with the tie-break)."""

    PAIRS = [((0.5, 0.5), (0.6, 0.375)), ((0.3, 0.8), (0.8, 0.3)), ((0.9, 0.1), (0.1, 0.9))]
    GAMES = [
        (GameConfig(n=15), regular_end_scores(15)),
        (GameConfig(n=9, tiebreak=3), [(11, 9, A), (9, 11, B), (11, 8, A), (9, 5, A)]),
    ]

    @pytest.mark.parametrize("s_a", [1.0, 0.0])
    @pytest.mark.parametrize("pair", PAIRS, ids=["q.25", "q.14", "q.09"])
    def test_same_law_at_equal_q(self, pair, s_a):
        one, two = (RallyProbs(*p) for p in pair)
        assert one.q == two.q
        for game, scores in self.GAMES:
            cfg = served_by(game, A if s_a else B)
            for alpha, beta, _ in scores:
                m1, m2 = (duration.score_moments(pr, cfg, (alpha, beta)) for pr in (one, two))
                assert m1.mean == pytest.approx(m2.mean, rel=1e-15, abs=0)
                assert m1.variance == pytest.approx(m2.variance, rel=1e-15, abs=0)
                p1, p2 = (duration.score_pmf(pr, cfg, (alpha, beta)) for pr in (one, two))
                assert np.abs(np.subtract(*aligned(p1, p2))).sum() <= 1e-15

    def test_not_with_a_random_first_server(self):
        cfg = GameConfig(n=9, tiebreak=3, s_a=0.5)
        p1, p2 = (duration.score_pmf(RallyProbs(*p), cfg, (11, 9)) for p in self.PAIRS[2])
        assert np.abs(np.subtract(*aligned(p1, p2))).sum() > 0.5


SCORE_PR = RallyProbs(0.6, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: duration.score_moments(SCORE_PR, GameConfig(n=3), (a, b)).mean,
        lambda a, b: duration.score_moments(SCORE_PR, GameConfig(n=3), (a, b)).variance,
        lambda a, b: duration.score_mgf(SCORE_PR, GameConfig(n=3), (a, b), 0.1),
        lambda a, b: duration.score_pmf(SCORE_PR, GameConfig(n=3, s_a=1.0), (a, b)),
        lambda a, b: duration.score_pmf(SCORE_PR, GameConfig(n=3, s_a=0.0), (a, b)),
        # the probability of an end score is keyed by its TerminalScore
        lambda a, b: sideout.score_distribution(SCORE_PR, GameConfig(n=3), A).entries[TerminalScore(a, b, A)],
        lambda a, b: sideout.score_distribution(SCORE_PR, GameConfig(n=3), B).entries[TerminalScore(a, b, A)],
    ],
    ids=["mean", "variance", "mgf", "pmf-server-A", "pmf-server-B", "score-server-A", "score-server-B"],
)
@pytest.mark.parametrize("score", [(3, 2.5), (3.0, 2), (3, 2.0), (3, "2"), (3, None)])
def test_non_integer_score_is_a_domain_error(call, score):
    call(3, 2)  # the integer tally, cached first, must not stand in for 2.0
    with pytest.raises(DomainError, match="non-integer score"):
        call(*score)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: duration.quantile(duration.duration_pmf_unconditional(SCORE_PR, GameConfig(n=3)), x),
        lambda x: duration.score_moments(SCORE_PR, GameConfig(n=3), x),
        lambda x: duration.score_pmf(SCORE_PR, GameConfig(n=3), x),
        lambda x: RallyProbs(x, 0.5),
        lambda x: RallyProbs(0.5, x),
        lambda x: duration.aggregate_moments(x, GameConfig(n=3)),
        lambda x: duration.aggregate_moments(SCORE_PR, x),
        lambda x: sideout.score_distribution(SCORE_PR, x),
        lambda x: matchlevel.match_win_prob(SCORE_PR, GameConfig(n=3), x),
        lambda x: simulate.sample_games(SCORE_PR, GameConfig(n=3), 10, x),
        lambda x: duration.quantile(x, 0.5),
    ],
    ids=["quantile-level", "score-moments", "score-pmf", "p-a", "p-b", "probs", "config", "score-distribution-config",
         "match-config", "seed", "pmf"],
)
@pytest.mark.parametrize("value", ["0.5", None, 5, (3,), (3, 2, 1)])
def test_argument_of_the_wrong_type_is_a_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("config", [GameConfig(n=5, s_a=0.5), GameConfig(n=5, tiebreak=3, s_a=0.3),
                                    GameConfig(n=7, system=ScoringSystem.RALLY_POINT, s_a=0.5)])
def test_score_laws_take_the_terminal_scores_of_the_score_distribution(config):
    # the keys of `score_distribution(...).entries` give the laws of their pairs
    for score in sideout.score_distribution(SCORE_PR, config).entries:
        pair = (score.alpha, score.beta)
        assert duration.score_moments(SCORE_PR, config, score) == duration.score_moments(SCORE_PR, config, pair)
        got, want = duration.score_pmf(SCORE_PR, config, score), duration.score_pmf(SCORE_PR, config, pair)
        assert (got.offset, got.truncation_bound) == (want.offset, want.truncation_bound)
        np.testing.assert_array_equal(got.masses, want.masses)
        # the last scorer of an end score has the more points
        if min(pair) > 0:
            with pytest.raises(ConfigError, match="not an end score"):
                duration.score_moments(SCORE_PR, config, TerminalScore(*pair, score.winner.other))


class TestGridMoments:
    CONFIGS = [
        GameConfig(n=15),
        GameConfig(n=15, s_a=0.5),
        GameConfig(n=9, tiebreak=3),
        GameConfig(n=9, tiebreak=3, s_a=0.5),
        GameConfig(n=21, system=ScoringSystem.RALLY_POINT),
        GameConfig(n=21, system=ScoringSystem.RALLY_POINT, s_a=0.5),
    ]
    P_A = [0.02, 0.3, 0.5, 0.55, 0.6, 0.9, 0.999, 1e-3]
    P_B = [0.5, 0.7, 0.5, 0.45, 0.6, 0.1, 0.2, 0.4]

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    def test_each_point_has_the_bits_of_aggregate_moments(self, config):
        grid = duration.grid_moments(config, self.P_A, self.P_B)
        assert set(grid) == {A, B, None}
        for i, (p_a, p_b) in enumerate(zip(self.P_A, self.P_B)):
            pr = RallyProbs(p_a, p_b)
            agg = duration.aggregate_moments(pr, config)
            for winner, want in [*agg.by_winner.items(), (None, agg.overall)]:
                prob, mean, sd = (column[i] for column in grid[winner])
                assert all(type(x) is float for x in (prob, mean, sd))
                assert (mean, sd) == (want.mean, want.sd), (winner, p_a, p_b)
                if winner is not None:
                    assert prob == sideout.game_win_prob(winner, None, pr, config)

    def test_the_first_server_is_a_at_s_a_one(self):
        # compare's grid: weights (1, 0) give the bits of first server A
        config, (p_a, p_b) = GameConfig(n=15), (self.P_A[:6], self.P_B[:6])
        events = duration._event_moments(config, np.array(p_a), np.array(p_b), [(A, w) for w in (A, B, None)])
        grid = duration.grid_moments(config, p_a, p_b)
        for (_, w), (prob, mean, var) in events.items():
            assert grid[w] == (tuple(prob.tolist()), tuple(mean.tolist()), tuple(np.sqrt(var).tolist()))

    def test_empty_grid(self):
        assert duration.grid_moments(GameConfig(n=15), [], []) == {w: ((), (), ()) for w in (A, B, None)}

    def test_vanished_event_is_a_conditioning_error(self):
        # at p = 1e-20 in the no-server model A takes an A-game with
        # probability 1e-420, below the least double
        with pytest.raises(ConditioningError, match="^conditioning event has vanished$"):
            duration.grid_moments(GameConfig(n=21), [0.5, 1e-20], [0.5, 1.0 - 1e-20])

    @pytest.mark.parametrize(
        "p_a, p_b",
        [
            ([0.5, 1.5], [0.5, 0.5]), ([0.5], [-0.1]), ([0.5, math.nan], [0.5, 0.5]),
            ([0.0], [0.0]), ([0.5], [0.5, 0.5]), (0.5, 0.5),
        ],
        ids=["above-one", "negative", "nan", "q-one", "lengths", "scalars"],
    )
    def test_bad_points_are_domain_errors(self, p_a, p_b):
        with pytest.raises(DomainError):
            duration.grid_moments(GameConfig(n=15), p_a, p_b)


class TestVanishedEvent:
    """An event of probability at most 1e-300 counts as vanished, in
    `grid_moments` and `aggregate_moments` alike: A, serving first in a
    game to 15, wins at p_b = .9 with probability (from mpmath) 1.14e-300
    at p_a = 6e-21, 8.8e-301 at 5.9e-21 and 2.4e-312 at 1e-21."""

    CONFIG = GameConfig(n=15)

    @pytest.mark.parametrize("p_a", [5.9e-21, 1e-21])
    def test_below_1e_300_has_no_moments(self, p_a):
        want = float(mp_sideout_win_prob(p_a, 0.9, 15))
        assert 0.0 < want <= 1e-300
        agg = duration.aggregate_moments(RallyProbs(p_a, 0.9), self.CONFIG)
        assert agg.win_probs[(A, A)] == pytest.approx(want, rel=1e-9)
        assert A not in agg.by_winner and (A, A) not in agg.by_server_winner
        with pytest.raises(ConditioningError, match="^conditioning event has vanished$"):
            duration.grid_moments(self.CONFIG, [0.5, p_a], [0.5, 0.9])

    def test_above_1e_300_has_moments(self):
        want = float(mp_sideout_win_prob(6e-21, 0.9, 15))
        assert 1e-300 < want < 1.2e-300
        agg = duration.aggregate_moments(RallyProbs(6e-21, 0.9), self.CONFIG)
        moments = agg.by_winner[A]
        assert agg.by_server_winner[(A, A)] == moments
        mean, var = mp_sideout_duration_moments(6e-21, 0.9, 15, 1.0)[A]
        assert (moments.mean, moments.variance) == pytest.approx((float(mean), float(var)), rel=1e-12)
        prob, mean, sd = (column[1] for column in duration.grid_moments(self.CONFIG, [0.5, 6e-21], [0.5, 0.9])[A])
        assert prob == pytest.approx(want, rel=1e-9) and (mean, sd) == (moments.mean, moments.sd)


def probability_corpus():
    """312 seeded (config, probs): side-out games, side-out games with a
    tie-break and rally-point games to 2..12, each with s_a in {0, .3, .5,
    1}, at rally probabilities drawn from [.02, .98]."""
    rng, out = np.random.default_rng(38), []
    for i in range(312):
        kind, s_a = (i // 4) % 3, (0.0, 0.3, 0.5, 1.0)[i % 4]
        system = ScoringSystem.RALLY_POINT if kind == 2 else ScoringSystem.SIDE_OUT
        tiebreak = int(rng.integers(2, 4)) if kind == 1 else None
        config = GameConfig(n=int(rng.integers(2, 13)), system=system, tiebreak=tiebreak, s_a=s_a)
        out.append((config, RallyProbs(*(float(p) for p in rng.uniform(0.02, 0.98, 2)))))
    return out


class TestOneProbabilityPerEvent:
    """The probability of an event has one set of bits, the kernel's
    running sum of its component weights (`kernel.total`).  P[winner] is
    the same from `sideout.game_win_probs`, from the duration moments
    (`aggregate_moments` for a stated first server, `grid_moments` for the
    s_a mixture, both from one mixture of the game table) and as the
    probability `duration_pmf_winner` divides its law by; P[score] is what
    the laws given an end score divide by.  The weights of the law before
    exchanges and of the score law are recorded as the engines form them,
    and the exchange law is not applied."""

    CORPUS = probability_corpus()

    @pytest.fixture
    def recorded(self, monkeypatch):
        raw, passed, scored = [], [], []
        pre_exchange, score_law = duration._pre_exchange, duration._score_law

        def recording_pre_exchange(*args):
            law = pre_exchange(*args)
            return lambda c: raw.append(law(c)) or raw[-1]

        monkeypatch.setattr(duration, "_pre_exchange", recording_pre_exchange)
        monkeypatch.setattr(duration, "_score_law", lambda *args: scored.append(score_law(*args)) or scored[-1])
        monkeypatch.setattr(duration, "exchange_mixture", lambda points, law, *rest: passed.append(law))
        return raw, passed, scored

    def test_winner(self, recorded):
        raw, passed, _ = recorded
        for config, probs in self.CORPUS:
            mixed = sideout.game_win_probs(None, probs, config)
            grid = duration.grid_moments(config, [probs.p_a], [probs.p_b])
            stated = duration.aggregate_moments(probs, config).win_probs
            for i, winner in enumerate(Player):
                assert grid[winner][0] == (mixed[i],)
                assert all(sideout.game_win_probs(s, probs, config)[i] == stated[(s, winner)] for s in Player)
                duration.duration_pmf_winner(probs, config, winner)
                assert np.array_equal(passed[-1], raw[-1] / mixed[i]), (config, probs, winner)

    def test_score(self, recorded):
        # every end score through score_moments, the first also through the
        # PMF and the MGF: the three read one `_score_law`
        *_, scored = recorded
        laws = (duration.score_moments, duration.score_pmf, functools.partial(duration.score_mgf, t=0.0))
        for config, probs in self.CORPUS:
            game, servers = kernel.game(config, probs.p_a, probs.p_b), kernel.servers(config)
            for i, (alpha, beta) in enumerate(sorted(set(zip(game.alpha.tolist(), game.beta.tolist())))):
                keep = functools.partial(lambda alpha, beta, a, b: (a == alpha) & (b == beta), alpha, beta)
                total = float(kernel.total(game.event(servers, keep))[0])
                for law in laws if i == 0 else laws[:1]:
                    law(probs, config, (alpha, beta))
                    assert np.array_equal(scored[-1][1], game.event(servers, keep)[:, 0] / total), (config, probs)


class TestDurationPMFProb:
    def test_bins_at_both_ends_and_past_them(self):
        pmf = duration.DurationPMF(3, np.array([0.25, 0.0, 0.75]), 0.0)
        assert [pmf.prob(d) for d in range(0, 8)] == [0.0, 0.0, 0.0, 0.25, 0.0, 0.75, 0.0, 0.0]

    def test_last_bin_of_a_game_pmf(self):
        # a rally-point game to 21 ends within 41 rallies, and its PMF is exact
        pmf = duration.duration_pmf_unconditional(RallyProbs(0.6, 0.5), GameConfig(n=21, system=ScoringSystem.RALLY_POINT))
        assert pmf.offset + len(pmf.masses) - 1 == 41
        assert pmf.prob(41) == float(pmf.masses[-1]) > 0.0
        assert pmf.prob(42) == 0.0


def test_numpy_integer_scores_are_scores():
    pr, cfg = RallyProbs(0.6, 0.5), GameConfig(n=3)
    assert duration.score_mgf(pr, cfg, (np.int64(3), np.int64(2)), 0.1) == duration.score_mgf(pr, cfg, (3, 2), 0.1)
    assert duration.score_moments(pr, cfg, (np.int64(3), np.int64(2))) == duration.score_moments(pr, cfg, (3, 2))


class TestExchangeSeries:
    @pytest.mark.parametrize("m0", [15, 29])
    def test_terms_against_mpmath(self, m0):
        # q = .99980001 needs the exact q in the powers q^l, l up to 4e5
        pr = RallyProbs(1e-4, 1e-4)
        terms, _ = exchange_pmf(m0, pr, 1e-12)
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(pr.p_a)) * (1 - mpmath.mpf(pr.p_b))
            for l in (0, int(m0 * q / (1 - q)), len(terms) - 1):
                exact = mpmath.binomial(m0 + l - 1, l) * q**l * (1 - q) ** m0
                assert terms[l] == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("p", [0.05, 0.01, 1e-3, 1e-4])
    @pytest.mark.parametrize("m0", [15, 29])
    def test_truncation_bound_covers_discarded_mass(self, p, m0):
        # P[J > L] = I_q(L + 1, m0), the regularized incomplete beta function
        terms, bound = exchange_pmf(m0, RallyProbs(p, p), 1e-12)
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(p)) ** 2
            exact = mpmath.betainc(len(terms), m0, 0, q, regularized=True)
        assert exact <= bound <= 1e-12

    def test_one_exchange_mixture_call_per_game_pmf(self, monkeypatch):
        calls = []
        mixture = duration.exchange_mixture
        monkeypatch.setattr(duration, "exchange_mixture", lambda *args: calls.append(args) or mixture(*args))
        pr, cfg = RallyProbs(0.3, 0.4), GameConfig(n=15, s_a=0.5)
        pmfs = [
            duration.duration_pmf_unconditional(pr, cfg),
            duration.duration_pmf_unconditional(pr, served_by(cfg, B)),
            duration.duration_pmf_winner(pr, cfg, A),
            duration.duration_pmf_winner(pr, served_by(cfg, A), B),
            duration.score_pmf(pr, served_by(GameConfig(n=15), A), (15, 9)),
        ]
        assert len(calls) == len(pmfs)

    @pytest.mark.parametrize(
        "m0, p",
        [(m0, p) for m0 in (0, 1, 15, 145) for p in (0.6, 0.05, 0.01, 1e-3, 1e-4)] + [(2320, 0.05), (2320, 1e-3)],
    )
    def test_cut_from_the_mode(self, m0, p):
        # the length of `exchange_pmf`'s series where its base (1-q)^m0 is a
        # double, and a certified tail also where it underflows (145 from
        # 1e-3 on, and 2320 points, the scale of `plan`)
        pr = RallyProbs(p, 0.9 * p)
        length, tail = duration._exchange_cut(m0, pr, 1e-12)
        if (pr.p_a + pr.q_a * pr.p_b) ** m0 > 0.0:
            assert length == len(exchange_pmf(m0, pr, 1e-12)[0])
        if m0 == 0:  # NB(0, q) is the point mass at 0
            assert (length, tail) == (1, 0.0)
            return
        with mpmath.workdps(40):
            q = (1 - mpmath.mpf(pr.p_a)) * (1 - mpmath.mpf(pr.p_b))
            exact = mpmath.betainc(length, m0, 0, q, regularized=True)
        assert exact <= tail <= 1e-12

    @pytest.mark.parametrize("epsilon", [0.5, 1e-3, 1e-12])
    def test_few_certified_tails_at_any_epsilon(self, monkeypatch, epsilon):
        # the Newton guess carries the slope of -log(1 - r), so a large
        # epsilon, whose stop lies near the mode, takes as few certified
        # tails as a small one (up to 39 did with the slope of log f alone)
        calls = []
        binom = kernel.log_exchange_binom
        monkeypatch.setattr(kernel, "log_exchange_binom", lambda points, l: calls.append(points) or binom(points, l))
        rng = np.random.default_rng(17)
        worst = 0
        for _ in range(1000):
            p_a, p_b = 10 ** rng.uniform(-3.5, 0.0, 2)
            m0 = int(10 ** rng.uniform(0.0, 3.4))
            calls.clear()
            duration._exchange_cut(m0, RallyProbs(p_a, p_b), epsilon)
            worst = max(worst, len(calls))
        assert worst <= 4

    @pytest.mark.parametrize("epsilon", [0.5, 1e-3, 1e-12])
    def test_cut_equals_the_walk(self, epsilon):
        rng = np.random.default_rng(18)
        cases = [(m0, RallyProbs(p, 0.9 * p)) for m0 in (1, 2, 15) for p in (0.9, 0.3, 0.05)]
        for _ in range(60):
            p_a, p_b = 10 ** rng.uniform(-1.5, 0.0, 2)
            cases.append((int(10 ** rng.uniform(0.0, 2.5)), RallyProbs(p_a, p_b)))
        for m0, pr in cases:
            assert duration._exchange_cut(m0, pr, epsilon) == exchange_cut_walk(m0, pr, epsilon), (m0, pr)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1e-12, "1e-12", None])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        # an infinite epsilon would keep the cut's bracket growing down
        # forever: every tail, even the inf of a point before the mode, is
        # at most epsilon
        pr = RallyProbs(0.6, 0.5)
        with pytest.raises(DomainError, match="epsilon must be finite and > 0"):
            duration.duration_pmf_unconditional(pr, GameConfig(n=15), epsilon)
        with pytest.raises(DomainError, match="epsilon must be finite and > 0"):
            duration.score_pmf(pr, GameConfig(n=15), (15, 3), epsilon)
        with pytest.raises(DomainError, match="epsilon must be finite and > 0"):
            matchlevel.match_duration_pmf(pr, GameConfig(n=9), matchlevel.MatchConfig(2), epsilon)

    def test_refused_past_the_term_guard(self):
        # modes of 1.4e7 (29 points at 1e-6) and 1.16e7 (2320 points at
        # 1e-4) exchanges pass the 1e7 terms a series may reach
        with pytest.raises(DomainError, match="failed to converge"):
            duration.duration_pmf_unconditional(RallyProbs(1e-6, 1e-6), LADDER)
        with pytest.raises(DomainError, match="failed to converge"):
            duration._exchange_cut(2320, RallyProbs(1e-4, 1e-4), 1e-12)


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
        assert pmf.offset == points
        check_against_reference(pmf, per_point_total_mixture(points, law, pr, 1e-16, len(pmf.masses)), 1e-12)
        assert 1.0 - pmf.total_mass <= pmf.truncation_bound + 1e-14

    @pytest.mark.parametrize("scale_range", [350.0, 2.0])
    @pytest.mark.parametrize("p", [0.999, 0.9, 1e-4])
    def test_scan_blocks_against_per_point_total(self, p, scale_range, monkeypatch):
        # a scale range of e^2 makes every t of the head of 22 t (r <= 43)
        # its own block at .999 and .9; at 1e-4 a block spans 10.5k t, and
        # the tail's 334 columns of 1332 t run in scale blocks of 7
        monkeypatch.setattr(duration._GeometricFilter, "_RANGE", scale_range)
        filters = built_filters(monkeypatch)
        pr = RallyProbs(p, 0.9 * p)
        pmf = duration.duration_pmf_unconditional(pr, LADDER)
        ((filt, (columns, width)),) = filters
        assert len(filt.acc) > 1 or columns > filt.reach // (width // 2) or scale_range == 350.0
        check_against_reference(pmf, per_point_total_pmf(pr, LADDER, None, None, 1e-16, len(pmf.masses)), 1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.05, 1e-3])
    def test_keep_power_folds_against_per_point_total(self, p, monkeypatch):
        # a headroom of e^5 over the scan's scale folds the power of 1 - q
        # into the head every sixth pass at .3, every second at .05 and
        # every pass at 1e-3 (-log(1-q) = .72, 2.4 and 6.3), and the values
        # the tail starts from were kept at every phase of the folds
        monkeypatch.setattr(duration._GeometricFilter, "_HEADROOM", duration._GeometricFilter._RANGE + 5.0)
        filters = built_filters(monkeypatch)
        pr = RallyProbs(p, 0.9 * p)
        pmf = duration.duration_pmf_unconditional(pr, LADDER)
        ((filt, _),) = filters
        assert filt.span == {0.3: 6, 0.05: 2, 1e-3: 1}[p] and filt.count == 29
        check_against_reference(pmf, per_point_total_pmf(pr, LADDER, None, None, 1e-16, len(pmf.masses)), 1e-12)

    @pytest.mark.parametrize("p", [0.6, 0.01, 1e-4])
    def test_tail_in_many_columns(self, p, monkeypatch):
        # columns of three t, in scale blocks of e^2: 13 columns in 13
        # blocks at .6, 1468 in 44 at .01 and 148k in 43 at 1e-4; each
        # block starts from the values the one before it leaves
        pr = RallyProbs(p, 0.9 * p)
        monkeypatch.setattr(duration._GeometricFilter, "_RANGE", 2.0)
        monkeypatch.setattr(duration._GeometricFilter, "columns", lambda self, length: max(1, min(3, length)))
        calls, filters = mixture_calls(monkeypatch), built_filters(monkeypatch)
        pmf = duration.duration_pmf_unconditional(pr, LADDER)
        ((filt, (columns, width)),) = filters
        assert width == 6 and columns > max(1, filt.reach // 3)
        check_against_full_window(pmf, reference_exchange_mixture(*calls[0]))
        check_against_reference(pmf, per_point_total_pmf(pr, LADDER, None, None, 1e-16, len(pmf.masses)), 1e-12)

    def test_mpmath_spot_checks_near_q_one(self, monkeypatch):
        # p = 1e-4: the mode and three tail bins of the benchmark's deepest
        # game law, and the seam of the engine: the last bin of the head the
        # passes run over and the first bins past it, and the bins on each
        # side of the first two column boundaries of the closed-form tail,
        # against the paper's elementary probabilities in mpmath
        calls, filters = mixture_calls(monkeypatch), built_filters(monkeypatch)
        pmf = duration.duration_pmf_unconditional(RallyProbs(1e-4, 1e-4), LADDER)
        ((points, law, *_),), ((_, (_, width)),) = calls, filters
        k, s = np.nonzero(law > 0.0)
        lo, head, c = int((k + s).min()), int((k + s).max()) // 2 + 1, width // 2
        assert c > 1
        seam = [2 * head - lo + e for e in (-2, -1, 0, 1)]
        columns = [2 * (head + b * c + i) - lo + e for b in (1, 2) for i in (-1, 0) for e in (0, 1)]
        tail = np.searchsorted(np.cumsum(pmf.masses), [1 - 1e-4, 1 - 1e-9])
        for i in [int(np.argmax(pmf.masses)), *tail, len(pmf.masses) - 1, *seam, *columns]:
            d = pmf.offset + int(i)
            want = sum(0.5 * mp_sideout_duration_prob(1e-4, 1e-4, 15, server, d) for server in Player)
            assert pmf.masses[i] == pytest.approx(float(want), rel=1e-12)

    def test_rally_point_and_q_zero_add_no_exchanges(self):
        law = np.array([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]])
        cases = ((ScoringSystem.RALLY_POINT, RallyProbs(0.3, 0.4)), (ScoringSystem.SIDE_OUT, RallyProbs(1.0, 0.4)))
        for system, pr in cases:
            pmf = duration.exchange_mixture(15, law, pr, system)
            assert (pmf.offset, pmf.masses.tolist(), pmf.truncation_bound) == (15, [0.25, 0.0, 0.75], 0.0)


class TestAgainstFullWindowEngine:
    """The engine, which runs the filter passes over the law's head and
    puts the rest of the window in closed form, against the same Horner
    pass over the whole window, bin by bin."""

    @staticmethod
    def check(monkeypatch, build):
        calls = mixture_calls(monkeypatch)
        pmf = build()
        ((points, law, probs, system, epsilon),) = calls
        check_against_full_window(pmf, reference_exchange_mixture(points, law, probs, system, epsilon))

    @pytest.mark.parametrize("p", [0.999, 0.9, 0.6, 0.3, 0.05, 0.01, 1e-3, 1e-4])
    def test_game(self, p, monkeypatch):
        self.check(monkeypatch, lambda: duration.duration_pmf_unconditional(RallyProbs(p, 0.9 * p), LADDER))

    @pytest.mark.parametrize("p", [0.999, 0.9, 0.6, 0.3, 0.05, 0.01, 1e-3, 1e-4])
    def test_score(self, p, monkeypatch):
        self.check(monkeypatch, lambda: duration.score_pmf(RallyProbs(p, 0.9 * p), GameConfig(n=15), (15, 9)))

    @pytest.mark.parametrize("p", [0.999, 0.9, 0.6, 0.3, 0.05, 0.01, 1e-3, 1e-4])
    def test_best_of_five(self, p, monkeypatch):
        # 2.3M bins at 1e-4, from 145 passes over a head of 123 t
        pr, cfg = RallyProbs(p, 0.9 * p), GameConfig(n=15, s_a=0.5)
        self.check(monkeypatch, lambda: matchlevel.match_duration_pmf(pr, cfg, MatchConfig(3)))

    def test_best_of_39(self, monkeypatch):
        pr, cfg = RallyProbs(0.05, 0.05), GameConfig(n=4, s_a=0.5)
        self.check(monkeypatch, lambda: matchlevel.match_duration_pmf(pr, cfg, MatchConfig(20)))

    def test_window_past_the_scale_of_one_block(self, monkeypatch):
        # 700 to 719 points at .3: q^t falls to e^-730 over the tail, whose
        # 16 columns of 64 t then run in three scale blocks
        pr, points = RallyProbs(0.3, 0.3), 700
        law = np.random.default_rng(8).random((20, 30))
        law /= law.sum()
        filters = built_filters(monkeypatch)
        pmf = duration.exchange_mixture(points, law, pr, ScoringSystem.SIDE_OUT)
        ((filt, (columns, width)),) = filters
        assert columns * width // 2 * -math.log(pr.q) > 2 * duration._GeometricFilter._RANGE
        check_against_full_window(pmf, reference_exchange_mixture(points, law, pr, ScoringSystem.SIDE_OUT))
        check_against_reference(pmf, per_point_total_mixture(points, law, pr, 1e-16, len(pmf.masses)), 1e-12)


class TestGroupedPMF:
    @pytest.mark.parametrize("system", list(ScoringSystem))
    @pytest.mark.parametrize("server", [None, A, B])
    @pytest.mark.parametrize("winner", [A, B, None])
    def test_matches_per_tally_mixture(self, system, server, winner):
        # against one exchange series per point total, and one law per
        # tally weighted by the closed-form score probabilities, both at
        # epsilon = 1e-16 with every series as long as the window
        pr = RallyProbs(0.3, 0.45)
        cfg = GameConfig(n=15, system=system, s_a=0.3)
        if winner is None:
            pmf = duration.duration_pmf_unconditional(pr, served_by(cfg, server))
        else:
            pmf = duration.duration_pmf_winner(pr, served_by(cfg, server), winner)
        terms = len(pmf.masses)
        check_against_reference(pmf, per_point_total_pmf(pr, cfg, server, winner, 1e-16, terms), 1e-12)
        winners = (A, B) if winner is None else (winner,)
        per_tally = duration.DurationPMF(*per_tally_duration_pmf(pr, cfg, winners, server, 1e-16, terms))
        check_against_reference(pmf, per_tally, 1e-12)

    def test_server_winner_pmfs_equal_single_calls(self):
        # joint (duration, winner) laws of mass P[winner | server] from one
        # series per point total, over the aggregates' win probabilities
        pr, cfg = RallyProbs(0.05, 0.1), GameConfig(n=15)
        win_probs = duration.aggregate_moments(pr, cfg).win_probs
        singles = {(s, w): duration.duration_pmf_winner(pr, served_by(cfg, s), w) for s, w in EVENTS}
        joint = duration_pmfs_by_server_winner(pr, cfg, 1e-16, max(len(pmf.masses) for pmf in singles.values()))
        assert list(joint) == EVENTS
        for (server, winner), ref in joint.items():
            single = singles[(server, winner)]
            total = win_probs[(server, winner)]
            ref = duration.DurationPMF(ref.offset, ref.masses / total, ref.truncation_bound / total)
            check_against_reference(single, ref, 1e-12)

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
            pmf = duration.duration_pmf_winner(pr, served_by(cfg, A), winner, epsilon=1e-14)
            assert pmf.moments().mean == pytest.approx(
                agg.by_server_winner[(A, winner)].mean, abs=1e-8
            )

    @pytest.mark.parametrize("p", [1e-6, 1e-4])
    def test_sideout_moments_against_mpmath_near_q_one(self, p):
        # 1 - q = 2e-6 and 2e-4: the mean is about 2.6e7 and 2.6e5 rallies,
        # and each moment rests on the exact 1 - q = p_a + q_a p_b
        agg = duration.aggregate_moments(RallyProbs(p, p), LADDER)
        ref = mp_sideout_duration_moments(p, p, LADDER.n, LADDER.s_a)
        for got, (mean, var) in [(agg.overall, ref[None])] + [(agg.by_winner[w], ref[w]) for w in Player]:
            assert got.mean == pytest.approx(float(mean), rel=1e-14, abs=0.0)
            assert got.variance == pytest.approx(float(var), rel=1e-13, abs=0.0)

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
            want = duration.duration_pmf_unconditional(pr, served_by(cfg, server), 1e-14).moments()
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


class TestWinnerPMF:
    def test_winner_given_as_its_string_value_is_a_domain_error(self):
        # not a ConditioningError: the event is possible, the argument is wrong
        with pytest.raises(DomainError, match="winner='A' must be a Player"):
            duration.duration_pmf_winner(RallyProbs(0.6, 0.5), GameConfig(n=5), "A")


@pytest.mark.parametrize(
    "law",
    [
        lambda last, pr: duration.score_mgf(pr, GameConfig(n=5), TerminalScore(5, 3, last), 0.1),
        lambda last, pr: TerminalScore(5, 3, last),
        lambda last, pr: sideout.score_distribution(pr, GameConfig(n=5), A).entries[TerminalScore(5, 3, last)],
        lambda last, pr: rallypoint.score_distribution(pr, GameConfig(n=5, system=ScoringSystem.RALLY_POINT), A).entries[
            TerminalScore(5, 3, last)
        ],
    ],
)
def test_tally_last_scorer_given_as_its_string_value_is_a_domain_error(law):
    # "A" was read as the receiver scoring last: a mean of 13.647, not 15.021
    with pytest.raises(DomainError, match="last_scorer='A' must be a Player"):
        law("A", RallyProbs(0.6, 0.5))


class TestUnconditionalPMF:
    def test_small_duration_closed_forms(self):
        pr = RallyProbs(0.6, 0.45)
        n = 5
        pmf = duration.duration_pmf_unconditional(pr, served_by(GameConfig(n=n), A), epsilon=1e-14)
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
        pa = duration.duration_pmf_unconditional(pr, served_by(cfg, A), epsilon=1e-13)
        pb = duration.duration_pmf_unconditional(pr, served_by(cfg, B), epsilon=1e-13)
        for d in range(7, 40):
            assert mixed.prob(d) == pytest.approx(0.3 * pa.prob(d) + 0.7 * pb.prob(d), abs=1e-13)

    def test_against_monte_carlo(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        pmf = duration.duration_pmf_unconditional(pr, served_by(cfg, A), epsilon=1e-12)
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
    def test_mode_given_as_its_string_value_is_a_domain_error(self):
        # the string once took the interpolated branch: 11.74 for 12
        pmf = duration.duration_pmf_unconditional(RallyProbs(0.6, 0.5), GameConfig(n=5))
        assert duration.quantile(pmf, 0.5, QuantileMode.STANDARD) == 12.0
        with pytest.raises(DomainError, match="mode='standard' must be a QuantileMode"):
            duration.quantile(pmf, 0.5, "standard")

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

    @pytest.mark.parametrize("p", [0.05, 0.01, 1e-3, 1e-4])
    def test_cached_cdf_gives_the_support_cdf_quantiles(self, p):
        # the benchmark ladder's PMFs: the CDF read through checkpoints
        # against the CDF over the support alone
        pmf = duration.duration_pmf_unconditional(RallyProbs(p, p), LADDER)
        for mode in QuantileMode:
            for level in (0.01, 0.5, 0.6321, 0.9, 0.99, 0.999, 1 - 1e-9):
                assert duration.quantile(pmf, level, mode) == reference_quantile(pmf, level, mode)

    def test_unreachable_level_keeps_its_message(self):
        pmf = duration.DurationPMF(offset=5, masses=np.array([0.6, 0.3]), truncation_bound=0.1)
        want = "level 0.95 unreachable: computed mass 0.89999999999999991 (truncation bound 0.1)"
        for mode in QuantileMode:
            with pytest.raises(DomainError) as got:
                duration.quantile(pmf, 0.95, mode)
            assert str(got.value) == want

    @pytest.mark.parametrize("masses", [np.zeros(3), np.zeros(0)], ids=["zeros", "empty"])
    def test_pmf_without_mass_keeps_its_message(self, masses):
        pmf = duration.DurationPMF(offset=5, masses=masses, truncation_bound=0.0)
        for mode in QuantileMode:
            with pytest.raises(ConditioningError) as got:
                duration.quantile(pmf, 0.5, mode)
            assert str(got.value) == "PMF carries no mass"

    def test_quantile_curves_monotone_in_k(self):
        # structural reading of the conditional-quantile figure
        pr = RallyProbs(0.6, 0.5)
        n = 15
        for mode in QuantileMode:
            for level in (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
                for family in ("win", "loss"):
                    values = []
                    for k in range(n):
                        pmf = duration.score_pmf(pr, GameConfig(n=n), (n, k) if family == "win" else (k, n))
                        values.append(duration.quantile(pmf, level, mode))
                    assert all(x <= y + 1e-9 for x, y in zip(values, values[1:]))


@functools.lru_cache(maxsize=None)
def ladder_pmf(kind, p):
    """The benchmark ladder's game, winner and best-of-5 match PMFs."""
    probs = RallyProbs(p, p)
    if kind == "game":
        return duration.duration_pmf_unconditional(probs, LADDER)
    if kind == "winner":
        return duration.duration_pmf_winner(probs, LADDER, B)
    return matchlevel.match_duration_pmf(probs, LADDER, MatchConfig(3))


def outcome(f, *args):
    """f's value, or its error's type and text."""
    try:
        return f(*args)
    except (ConditioningError, DomainError) as e:
        return type(e), str(e)


class TestCheckpointedQuantiles:
    """`quantile` searches CDF checkpoints and accumulates one chunk; it
    returns what the search of the whole CDF returned (`full_cdf_quantile`),
    bit for bit, errors included, whatever the chunk size."""

    @pytest.mark.parametrize("kind", ["game", "winner", "match"])
    @pytest.mark.parametrize("p", [0.3, 0.05, 1e-3, 1e-4])
    def test_equals_the_search_of_the_whole_cdf(self, monkeypatch, kind, p):
        pmf = ladder_pmf(kind, p)
        cdf, reference = np.cumsum(pmf.masses), full_cdf_quantile(pmf)
        rng = np.random.default_rng(27)
        # random levels, CDF values at random bins, the far tail and levels
        # past the computed mass
        levels = [*rng.uniform(0.0, 1.0, 40), *cdf[rng.integers(0, len(cdf), 40)], *(1 - 10.0 ** -rng.uniform(6, 12, 10))]
        levels = [x for x in map(float, levels) if 0.0 < x < 1.0] + [1 - 1e-13, 1 - 1e-15]
        for chunk in (duration._CHUNK, 1, 2, 7):
            monkeypatch.setattr(duration, "_CHUNK", chunk)
            fresh = duration.DurationPMF(pmf.offset, pmf.masses, pmf.truncation_bound)
            assert np.array_equal(fresh.checkpoints, np.append(cdf[chunk - 1 :: chunk], cdf[-1])[: -(-len(cdf) // chunk)])
            # and levels on the CDF at chunk ends and just past them
            ends = fresh.checkpoints[rng.integers(0, len(fresh.checkpoints), 20)].tolist()
            for x in levels + ends + np.nextafter(ends, 1.0).tolist():
                for mode in QuantileMode:
                    assert outcome(duration.quantile, fresh, x, mode) == outcome(reference, x, mode), (chunk, x, mode)

    def test_support_is_the_bins_with_mass(self):
        pmf = ladder_pmf("game", 0.05)
        assert np.array_equal(pmf.support(), pmf.offset + np.nonzero(pmf.masses > 0.0)[0])


# (n, l, p_a, p_b) of tie-break games
TIEBREAK_GAMES = [(2, 2, 0.6, 0.5), (4, 2, 0.6, 0.5), (5, 3, 0.3, 0.45), (6, 4, 0.55, 0.7), (9, 3, 0.6, 0.5)]


class TestTiebreakDurations:
    """Tie-break games, whose game table pairs a tie at n-1 all with an end
    of the extension, against exhaustive enumeration of their rallies."""

    @staticmethod
    def enumerated(pa, pb, n, ell, weights, winner=None):
        """{rallies: probability} jointly with `winner` (None: either), the
        first servers mixed with `weights` {server: weight}."""
        law = defaultdict(float)
        for server, wt in weights.items():
            outcomes, leftover = enumerate_sideout(pa, pb, n, server=server, tol=1e-30, tiebreak=ell)
            assert leftover < 1e-25
            for (_, _, last, d), mass in outcomes.items():
                if winner in (None, last):
                    law[d] += wt * mass
        return law

    @pytest.mark.parametrize("n, ell, pa, pb", TIEBREAK_GAMES)
    def test_game_pmfs_against_enumeration(self, n, ell, pa, pb):
        pr, cfg = RallyProbs(pa, pb), GameConfig(n=n, tiebreak=ell, s_a=0.3)
        for server in (A, B, None):
            weights = {A: 0.3, B: 0.7} if server is None else {server: 1.0}
            for winner in (A, B, None):
                want = self.enumerated(pa, pb, n, ell, weights, winner)
                if winner is None:
                    pmf = duration.duration_pmf_unconditional(pr, served_by(cfg, server))
                else:
                    pmf = duration.duration_pmf_winner(pr, served_by(cfg, server), winner)
                    total = sum(want.values())
                    want = {d: mass / total for d, mass in want.items()}
                l1 = sum(abs(pmf.prob(d) - want.get(d, 0.0)) for d in set(want) | set(pmf.support().tolist()))
                assert l1 <= pmf.truncation_bound + 1e-14, (server, winner)

    @pytest.mark.parametrize("n, ell, pa, pb", TIEBREAK_GAMES)
    def test_aggregate_moments_against_enumeration(self, n, ell, pa, pb):
        pr, cfg = RallyProbs(pa, pb), GameConfig(n=n, tiebreak=ell, s_a=0.3)
        agg = duration.aggregate_moments(pr, cfg)
        mixed = {A: 0.3, B: 0.7}
        cases = [(agg.by_server_winner[(s, w)], {s: 1.0}, w) for s, w in EVENTS]
        cases += [(agg.by_server[s], {s: 1.0}, None) for s in Player]
        cases += [(agg.by_winner[w], mixed, w) for w in Player] + [(agg.overall, mixed, None)]
        for got, weights, winner in cases:
            law = self.enumerated(pa, pb, n, ell, weights, winner)
            total = sum(law.values())
            mean = sum(d * mass for d, mass in law.items()) / total
            var = sum((d - mean) ** 2 * mass for d, mass in law.items()) / total
            assert got.mean == pytest.approx(mean, rel=1e-12, abs=0)
            assert got.variance == pytest.approx(var, rel=1e-12, abs=0)
            if len(weights) == 1 and winner is not None:
                assert agg.win_probs[(next(iter(weights)), winner)] == pytest.approx(total, rel=1e-12, abs=0)

    def test_score_pmfs_sum_to_the_game_pmf(self):
        # an end of the extension is reached by either tying scorer: its
        # law mixes two components of the game table
        pr, cfg = RallyProbs(0.6, 0.5), GameConfig(n=9, tiebreak=3, s_a=1.0)
        dist = sideout.score_distribution(pr, cfg, server=A)
        game = duration.duration_pmf_unconditional(pr, served_by(cfg, A), 1e-14)
        total = np.zeros(len(game.masses) + 200)
        for score, prob in dist.entries.items():
            pmf = duration.score_pmf(pr, cfg, (score.alpha, score.beta), 1e-14)
            i = pmf.offset - game.offset
            total[i : i + len(pmf.masses)] += prob * pmf.masses
        assert np.abs(total[: len(game.masses)] - game.masses).sum() + total[len(game.masses) :].sum() <= 1e-13
