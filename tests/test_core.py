import math

import pytest
from hypothesis import given, strategies as st

from rallystats import (
    ConfigError,
    DomainError,
    GameConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    TerminalScore,
    validate,
)

from oracles import binom, swapped


class TestBinom:
    def test_negative_one_convention(self):
        assert binom(-1, -1) == 1.0

    def test_basic_values(self):
        assert binom(5, 2) == 10.0
        assert binom(0, 0) == 1.0
        assert binom(7, 0) == 1.0
        assert binom(7, 7) == 1.0

    def test_out_of_range_is_zero(self):
        assert binom(3, 5) == 0.0
        assert binom(3, -1) == 0.0
        assert binom(-1, 0) == 0.0
        assert binom(-2, -2) == 0.0
        assert binom(0, -1) == 0.0

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_pascal_rule(self, m, k):
        assert binom(m, k) == pytest.approx(binom(m - 1, k - 1) + binom(m - 1, k), rel=1e-12)

    def test_matches_exact_integers(self):
        for m in range(0, 40):
            for k in range(0, m + 1):
                assert binom(m, k) == pytest.approx(math.comb(m, k), rel=1e-12)


class TestRallyProbs:
    def test_derived_quantities(self):
        pr = RallyProbs(0.3, 0.8)
        assert pr.q_a + pr.p_a == pytest.approx(1.0, abs=1e-15)
        assert pr.q_b + pr.p_b == pytest.approx(1.0, abs=1e-15)
        assert pr.q == pytest.approx(pr.q_a * pr.q_b, abs=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_invariants_hold_everywhere(self, p_a, p_b):
        pr = RallyProbs(p_a, p_b)
        assert abs(pr.q_a + pr.p_a - 1.0) <= 1e-15
        assert abs(pr.q_b + pr.p_b - 1.0) <= 1e-15
        assert abs(pr.q - pr.q_a * pr.q_b) <= 1e-15

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            RallyProbs(1.2, 0.5)
        with pytest.raises(DomainError):
            RallyProbs(0.5, -0.1)

    def test_swapped(self):
        pr = swapped(RallyProbs(0.3, 0.8))
        assert (pr.p_a, pr.p_b) == (0.8, 0.3)

    def test_no_server(self):
        pr = RallyProbs.no_server(0.3)
        assert pr.p_a == 0.3
        assert pr.p_b == 0.7


class TestValidate:
    def test_interior_point_ok(self):
        validate(RallyProbs(0.5, 0.5), GameConfig(n=15))

    def test_q_equal_one_rejected_for_exact(self):
        with pytest.raises(DomainError, match="never terminates"):
            validate(RallyProbs(0.0, 0.0), GameConfig(n=15))

    @pytest.mark.parametrize("config", [None, 15, "15"])
    def test_config_is_required_and_checked(self, config):
        with pytest.raises(DomainError, match="config=.* must be a GameConfig"):
            validate(RallyProbs(0.5, 0.5), config)


class TestConfigs:
    def test_game_config_validation(self):
        with pytest.raises(ConfigError):
            GameConfig(n=0)
        with pytest.raises(ConfigError):
            GameConfig(n=9, tiebreak=1)
        with pytest.raises(ConfigError):
            GameConfig(n=9, s_a=1.5)
        with pytest.raises(ConfigError):
            GameConfig(n=21, system=ScoringSystem.RALLY_POINT, tiebreak=2)

    @pytest.mark.parametrize("s_a", ["x", None, (0.5,)])
    def test_non_real_first_server_share_rejected(self, s_a):
        with pytest.raises(ConfigError, match="s_a=.* must be a Real"):
            GameConfig(n=15, s_a=s_a)

    def test_non_integer_target_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            GameConfig(n=15.5)

    @pytest.mark.parametrize("tiebreak", [2, 3])
    def test_tiebreak_on_a_game_to_one_rejected(self, tiebreak):
        # a game to 1 has no n-1 all to extend
        with pytest.raises(ConfigError, match="n >= 2"):
            GameConfig(n=1, tiebreak=tiebreak)
        assert GameConfig(n=2, tiebreak=tiebreak).tiebreak == tiebreak

    def test_non_integer_tiebreak_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            GameConfig(n=9, tiebreak=2.5)

    @pytest.mark.parametrize("count", [True, False, 9.0, "9"])
    def test_bool_or_non_integer_counts_rejected(self, count):
        # True is not a game to 1, nor a tie-break of 1 point
        with pytest.raises(ConfigError, match="target score n=.* must be an integer"):
            GameConfig(n=count)
        with pytest.raises(ConfigError, match="tie-break extension l=.* must be an integer"):
            GameConfig(n=9, tiebreak=count)

    @pytest.mark.parametrize("tiebreak", [None, 3])
    def test_system_given_as_its_string_value_rejected(self, tiebreak):
        # "sideout" is the value of ScoringSystem.SIDE_OUT, not the member: it
        # must neither compute rally-point laws nor fail the tie-break check
        with pytest.raises(ConfigError, match="system='sideout' must be a ScoringSystem"):
            GameConfig(n=15, system="sideout", tiebreak=tiebreak)

    def test_last_scorer_given_as_its_string_value_rejected(self):
        with pytest.raises(DomainError, match="last_scorer='A' must be a Player"):
            TerminalScore(3, 2, "A")

    def test_non_integer_score_rejected(self):
        with pytest.raises(DomainError, match="integer"):
            TerminalScore(15.0, 7, Player.A)
        with pytest.raises(DomainError, match="integer"):
            TerminalScore(15, 7.5, Player.A)

    def test_terminal_score_invariants(self):
        with pytest.raises(DomainError):
            TerminalScore(0, 3, Player.A)
        with pytest.raises(DomainError):
            TerminalScore(3, 0, Player.B)
        score = TerminalScore(15, 7, Player.A)
        assert score.winner is Player.A
        assert score.points(Player.B) == 7
