import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rallystats import ConfigError, DomainError, GameConfig, MatchConfig, Player, RallyProbs, ScoringSystem, SeedSpec, TerminalScore
from rallystats import duration, kernel, matchlevel, sideout, simulate

from oracles import ORACLE_PROBS, enumerate_sideout, prob_score_r_j, score_marginal, swapped, tally_prob

A, B = Player.A, Player.B


class TestLemmaLevel:
    def test_single_rally_game(self):
        assert prob_score_r_j(1, 0, A, 0, 0, RallyProbs(0.5, 0.5)) == pytest.approx(0.5)

    def test_two_one_with_one_interruption(self):
        # C(2,0)=1 exchange placements, C(2,1)C(0,0)=2 interruption placements,
        # p_a^2 p_b q = .25 * .5 * .25
        val = prob_score_r_j(2, 1, A, 1, 0, RallyProbs(0.5, 0.5))
        assert val == pytest.approx(0.0625, abs=1e-15)

    def test_exchanges_impossible_when_q_zero(self):
        assert prob_score_r_j(5, 2, A, 1, 1, RallyProbs(1.0, 0.5)) == 0.0
        assert prob_score_r_j(5, 2, A, 1, 3, RallyProbs(0.5, 1.0)) == 0.0

    def test_out_of_range_r_is_zero(self):
        pr = RallyProbs(0.5, 0.5)
        assert prob_score_r_j(3, 2, A, 0, 0, pr) == 0.0  # below gamma0
        assert prob_score_r_j(3, 2, A, 3, 0, pr) == 0.0  # above gamma1
        assert prob_score_r_j(3, 2, B, 0, 0, pr) == 0.0
        assert prob_score_r_j(3, 2, B, 4, 0, pr) == 0.0

    def test_sums_to_closed_form(self):
        # summing the (r, j) grid reproduces the closed-form score probability
        pr = RallyProbs(0.6, 0.45)
        for alpha in range(0, 7):
            for beta in range(0, 7):
                for last in (A, B):
                    if (last is A and alpha < 1) or (last is B and beta < 1):
                        continue
                    total = 0.0
                    for r in range(0, max(alpha, beta) + 2):
                        j = 0
                        while True:
                            term = prob_score_r_j(alpha, beta, last, r, j, pr)
                            total += term
                            j += 1
                            if j > 20 and (term == 0.0 or term < 1e-16 * total):
                                break
                    assert total == pytest.approx(tally_prob(alpha, beta, last, pr), abs=1e-14)


class TestScoreProb:
    def test_shutout_closed_form(self):
        # beta = 0 collapses the r-sum to its r=0 term via binom(-1,-1) = 1
        pr = RallyProbs(0.5, 0.5)
        assert tally_prob(2, 0, A, pr) == pytest.approx(0.25 / 0.5625, abs=1e-15)
        for n in (1, 5, 15):
            pr2 = RallyProbs(0.63, 0.41)
            expect = (pr2.p_a / (1.0 - pr2.q)) ** n
            assert tally_prob(n, 0, A, pr2) == pytest.approx(expect, rel=1e-13)

    def test_two_one_value(self):
        # brute-force enumeration of n=2 games gives exactly 4/27
        assert tally_prob(2, 1, A, RallyProbs(0.5, 0.5)) == pytest.approx(
            4.0 / 27.0, abs=1e-14
        )

    def test_matches_enumeration_n3(self):
        # (1, .3): the certain server, q = 0
        for pr in (RallyProbs(0.6, 0.45), RallyProbs(1.0, 0.3)):
            outcomes, leftover = enumerate_sideout(pr.p_a, pr.p_b, 3, server=A, tol=1e-15)
            assert leftover < 1e-14
            marg = score_marginal(outcomes)
            for (a, b, last), mass in marg.items():
                assert tally_prob(a, b, last, pr) == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 15, 30])
    @pytest.mark.parametrize("pa,pb", [(0.5, 0.5), (0.9, 0.05), (0.2, 0.7), (0.99, 0.99)])
    def test_normalization(self, n, pa, pb):
        dist = sideout.score_distribution(RallyProbs(pa, pb), GameConfig(n=n), server=A)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in dist.entries.values())
        assert len(dist.entries) == 2 * n

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.integers(1, 7),
        st.integers(0, 6),
        st.sampled_from([A, B]),
    )
    @settings(max_examples=200)
    def test_role_symmetry(self, pa, pb, n, k, last):
        k = min(k, n - 1)
        alpha, beta = (n, k) if last is A else (k, n)
        pr, cfg = RallyProbs(pa, pb), GameConfig(n=n)
        lhs = sideout.score_distribution(pr, cfg, server=B).entries[TerminalScore(alpha, beta, last)]
        rhs = sideout.score_distribution(swapped(pr), cfg, server=A).entries[TerminalScore(beta, alpha, last.other)]
        assert lhs == rhs  # exact: both first servers read one polynomial


class TestGameWinProb:
    def test_paper_values_n15(self):
        cfg = GameConfig(n=15)
        assert sideout.game_win_prob(A, A, RallyProbs(0.5, 0.5), cfg) == pytest.approx(0.53, abs=0.005)
        assert sideout.game_win_prob(A, A, RallyProbs(0.7, 0.5), cfg) == pytest.approx(0.94, abs=0.005)
        assert sideout.game_win_prob(A, A, RallyProbs(0.4, 0.5), cfg) == pytest.approx(0.22, abs=0.005)

    def test_first_server_advantage_at_even_strength(self):
        cfg = GameConfig(n=15)
        p_aa = sideout.game_win_prob(A, A, RallyProbs(0.5, 0.5), cfg)
        p_ab = sideout.game_win_prob(A, B, RallyProbs(0.5, 0.5), cfg)
        assert p_aa > 0.5 > p_ab
        assert p_aa + p_ab == pytest.approx(1.0, abs=1e-12)  # symmetry at (.5,.5)

    def test_certain_server(self):
        cfg = GameConfig(n=15)
        assert sideout.game_win_prob(A, A, RallyProbs(1.0, 0.5), cfg) == pytest.approx(1.0, abs=1e-15)

    def test_winners_sum_to_one(self):
        cfg = GameConfig(n=9)
        pr = RallyProbs(0.62, 0.37)
        for server in (A, B):
            total = sideout.game_win_prob(A, server, pr, cfg) + sideout.game_win_prob(
                B, server, pr, cfg
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "system, tiebreak", [(ScoringSystem.SIDE_OUT, None), (ScoringSystem.SIDE_OUT, 3), (ScoringSystem.RALLY_POINT, None)]
    )
    @pytest.mark.parametrize("n", [5, 9, 15, 21])
    def test_equals_the_aggregate_win_probs_bit_for_bit(self, n, system, tiebreak):
        # both are running sums of the game table's event weights
        rng = np.random.default_rng(2300 + n)
        cfg = GameConfig(n=n, system=system, tiebreak=tiebreak)
        for pa, pb in rng.uniform(0.02, 0.98, (20, 2)):
            pr = RallyProbs(pa, pb)
            win_probs = duration.aggregate_moments(pr, cfg).win_probs
            for server in Player:
                assert sideout.game_win_probs(server, pr, cfg) == tuple(win_probs[(server, w)] for w in Player)

    def test_player_given_as_its_string_value_is_a_domain_error(self):
        pr, cfg = RallyProbs(0.6, 0.5), GameConfig(n=5)
        with pytest.raises(DomainError, match="winner='B' must be a Player"):
            sideout.game_win_prob("B", A, pr, cfg)
        with pytest.raises(DomainError, match="server='B' must be a Player"):
            sideout.game_win_probs("B", pr, cfg)
        with pytest.raises(DomainError, match="server='B' must be a Player"):
            sideout.score_distribution(pr, cfg, server="B")

    @staticmethod
    def score_prob_of(system):
        def score_prob(alpha, beta, last, server, probs):
            # the entry of the end score in the score law of a game to 5
            law = sideout.score_distribution(probs, GameConfig(n=5, system=system), server)
            return law.entries[TerminalScore(alpha, beta, last)]

        return score_prob

    @pytest.mark.parametrize("score_prob", [score_prob_of(ScoringSystem.SIDE_OUT), score_prob_of(ScoringSystem.RALLY_POINT)])
    def test_tally_player_given_as_its_string_value_is_a_domain_error(self, score_prob):
        # "A" must not be read as server B: 0.12027 where server=A gives 0.10892
        pr = RallyProbs(0.6, 0.5)
        assert score_prob(5, 3, A, A, pr) > 0.0
        with pytest.raises(DomainError, match="server='A' must be a Player"):
            score_prob(5, 3, A, "A", pr)
        with pytest.raises(DomainError, match="last_scorer='A' must be a Player"):
            score_prob(5, 3, "A", A, pr)


class TestMixedServer:
    def test_degenerate_mixture_equals_fixed_server(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=1.0)
        dist_mixed = sideout.score_distribution(pr, cfg, server=None)
        dist_a = sideout.score_distribution(pr, cfg, server=A)
        for score, p in dist_a.entries.items():
            assert dist_mixed.entries[score] == pytest.approx(p, abs=1e-15)
        assert dist_mixed.win_prob(A) == pytest.approx(dist_a.win_prob(A), abs=1e-15)

    def test_even_mixture_is_average(self):
        pr = RallyProbs(0.55, 0.55)
        cfg = GameConfig(n=11, s_a=0.5)
        win_a = sideout.score_distribution(pr, cfg, server=None).win_prob(A)
        p_aa = sideout.game_win_prob(A, A, pr, cfg)
        p_ba = sideout.game_win_prob(A, B, pr, cfg)
        assert win_a == pytest.approx((p_aa + p_ba) / 2.0, abs=1e-14)

    def test_against_monte_carlo(self):
        pr = RallyProbs(0.6, 0.5)
        cfg = GameConfig(n=15, s_a=0.5)
        win_a = sideout.score_distribution(pr, cfg, server=None).win_prob(A)
        sample = simulate.sample_games(pr, cfg, 200_000, SeedSpec(11, 0))
        p_hat = sample.winner_a.mean()
        sd = np.sqrt(win_a * (1 - win_a) / len(sample.winner_a))
        assert abs(p_hat - win_a) < 3 * sd


class TestTiebreak:
    def test_mass_conservation(self):
        pr = RallyProbs(0.5, 0.5)
        cfg = GameConfig(n=9, tiebreak=2)
        dist = sideout.score_distribution(pr, cfg, server=A)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-12)
        tie_mass = tally_prob(8, 8, A, pr) + tally_prob(8, 8, B, pr)
        ext_mass = sum(p for s, p in dist.entries.items() if max(s.alpha, s.beta) > 9)
        assert ext_mass == pytest.approx(tie_mass, abs=1e-13)

    def test_squash_english_value_cross_checked(self):
        # frozen exact value; Monte Carlo with the set-to-l rule hard-coded
        # at the rally level agrees within 3 sigma
        pr = RallyProbs(0.5, 0.5)
        cfg = GameConfig(n=9, tiebreak=2)
        exact = sideout.score_distribution(pr, cfg, server=A).entries[TerminalScore(10, 9, A)]
        assert exact == pytest.approx(0.023111787461504107, abs=1e-14)
        sample = simulate.sample_games(pr, cfg, 200_000, SeedSpec(2024, 7))
        hits = ((sample.alpha == 10) & (sample.beta == 9)).mean()
        sd = np.sqrt(exact * (1 - exact) / len(sample.alpha))
        assert abs(hits - exact) < 3 * sd

    def test_tie_impossible_when_server_perfect(self):
        pr = RallyProbs(1.0, 0.5)
        cfg = GameConfig(n=9, tiebreak=2)
        entries = sideout.score_distribution(pr, cfg, server=A).entries
        for k in range(2):
            assert entries[TerminalScore(10, 8 + k, A)] == 0.0
            assert entries[TerminalScore(8 + k, 10, B)] == 0.0

    def test_requires_tiebreak_config(self):
        # an end of the extension is no end of a game without a tie-break
        for law in (duration.score_moments, duration.score_pmf):
            with pytest.raises(ConfigError, match="not an end score"):
                law(RallyProbs(0.5, 0.5), GameConfig(n=9), (10, 8))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("pa, pb", ORACLE_PROBS)
def test_tiebreak_against_enumeration(n, ell, pa, pb):
    """Every terminal score and the win probabilities of a set-to-l game
    against rally-by-rally enumeration of the game; the scores past n are
    the ends of the extension."""
    pr, cfg = RallyProbs(pa, pb), GameConfig(n=n, tiebreak=ell, s_a=0.3)
    laws = {}
    for server in Player:
        outcomes, leftover = enumerate_sideout(pa, pb, n, server=server, tol=1e-30, tiebreak=ell)
        assert leftover < 1e-30
        laws[server] = score_marginal(outcomes)
    laws[None] = {
        key: 0.3 * laws[A].get(key, 0.0) + 0.7 * laws[B].get(key, 0.0) for key in {*laws[A], *laws[B]}
    }
    for server, law in laws.items():
        entries = sideout.score_distribution(pr, cfg, server).entries
        assert {key for key, mass in law.items() if mass > 0.0} <= {(s.alpha, s.beta, s.last_scorer) for s in entries}
        for score, p in entries.items():
            want = law.get((score.alpha, score.beta, score.last_scorer), 0.0)
            assert p == pytest.approx(want, rel=1e-13, abs=0), (server, score)
        if server is None:
            continue
        wins = sideout.game_win_probs(server, pr, cfg)
        for winner, got in zip(Player, wins):
            want = sum(mass for (_, _, last), mass in law.items() if last is winner)
            assert got == pytest.approx(want, rel=1e-13, abs=0), (server, winner)
        extension = {(s.alpha, s.beta, s.last_scorer) for s in entries if max(s.alpha, s.beta) > n}
        hi = n + ell - 1
        assert extension == {(hi, n + k - 1, A) for k in range(ell)} | {(n + k - 1, hi, B) for k in range(ell)}


class TestKernelEvaluations:
    """A game's terminal-score table takes one kernel evaluation per table
    (the game's, and with a tie-break the tie's and the extension's), each
    covering both first servers with one evaluation of the interruption
    polynomial."""

    @pytest.fixture
    def calls(self, monkeypatch):
        kernel._point_game.cache_clear()  # count points not seen yet
        calls = []
        polynomial = kernel._polynomial

        def counting(*args):
            calls.append(args)
            return polynomial(*args)

        monkeypatch.setattr(kernel, "_polynomial", counting)
        return calls

    @pytest.mark.parametrize("system", list(ScoringSystem))
    def test_plain_score_distribution_takes_one(self, calls, system):
        # match_win_prob: test_matchlevel.py::TestMatchWinProb::test_one_kernel_evaluation_per_first_server
        sideout.score_distribution(RallyProbs(0.6, 0.5), GameConfig(n=15, system=system, s_a=0.5), server=None)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda pr, cfg: sideout.score_distribution(pr, cfg, server=None),
            lambda pr, cfg: sideout.game_win_probs(B, pr, cfg),
            lambda pr, cfg: matchlevel.match_win_prob(pr, cfg, MatchConfig(3)),
        ],
        ids=["score_distribution", "game_win_probs", "match_win_prob"],
    )
    def test_tiebreak_game_takes_at_most_four(self, calls, call):
        call(RallyProbs(0.6, 0.5), GameConfig(n=15, tiebreak=3, s_a=0.5))
        assert len(calls) <= 4
