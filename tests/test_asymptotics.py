from fractions import Fraction
from math import comb

import numpy as np
import pytest

from rallystats import ConditioningError, ConfigError, DomainError, GameConfig, Player, RallyProbs, ScoringSystem
from rallystats import asymptotics, duration
from rallystats.asymptotics import Direction

from oracles import convergence_check

A, B = Player.A, Player.B
SO, RP = ScoringSystem.SIDE_OUT, ScoringSystem.RALLY_POINT
TO0, TO1 = Direction.P_TO_0, Direction.P_TO_1


class TestLimitMoments:
    def test_degenerate_cases(self):
        n = 15
        assert asymptotics.limit_moments(SO, A, TO1, n) == duration.Moments(15.0, 0.0)
        assert asymptotics.limit_moments(SO, A, TO0, n) == duration.Moments(15.0, 0.0)
        assert asymptotics.limit_moments(SO, B, TO0, n) == duration.Moments(16.0, 0.0)
        assert asymptotics.limit_moments(RP, A, TO1, n) == duration.Moments(15.0, 0.0)
        assert asymptotics.limit_moments(RP, B, TO0, n) == duration.Moments(15.0, 0.0)

    def test_sideout_receiver_win_limit(self):
        n = 15
        m = asymptotics.limit_moments(SO, B, TO1, n)
        assert m.mean == pytest.approx((3 * n + 1) / 2, abs=1e-12)
        # variance of the uniform law on n consecutive integers
        assert m.variance == pytest.approx((n * n - 1) / 12, abs=1e-12)

    def test_rallypoint_upset_limits(self):
        for n in (5, 15, 21):
            expected_mean = 2 * n * n / (n + 1)
            expected_var = 2 * n * n * (n - 1) / ((n + 1) ** 2 * (n + 2))
            for winner, direction in ((A, TO0), (B, TO1)):
                m = asymptotics.limit_moments(RP, winner, direction, n)
                assert m.mean == pytest.approx(expected_mean, abs=1e-12)
                assert m.variance == pytest.approx(expected_var, abs=1e-12)


class TestLimitPMF:
    def test_uniform_over_tail_scores(self):
        pmf = asymptotics.limit_pmf(SO, B, TO1, 15)
        support = pmf.support()
        assert list(support) == list(range(16, 31))
        np.testing.assert_allclose(pmf.masses, 1.0 / 15.0, atol=1e-15)

    def test_point_mass_cases(self):
        pmf = asymptotics.limit_pmf(SO, A, TO0, 15)
        assert pmf.offset == 15 and list(pmf.masses) == [1.0]
        pmf = asymptotics.limit_pmf(SO, B, TO0, 15)
        assert pmf.offset == 16 and list(pmf.masses) == [1.0]

    def test_all_pmfs_sum_to_one(self):
        for system in (SO, RP):
            for winner in (A, B):
                for direction in (TO0, TO1):
                    pmf = asymptotics.limit_pmf(system, winner, direction, 15)
                    assert pmf.total_mass == pytest.approx(1.0, abs=1e-14)
                    assert pmf.truncation_bound == 0.0

    def test_moments_consistent_with_pmf(self):
        for system in (SO, RP):
            for winner in (A, B):
                for direction in (TO0, TO1):
                    for n in (1, 7, 15):
                        pmf = asymptotics.limit_pmf(system, winner, direction, n)
                        mom = asymptotics.limit_moments(system, winner, direction, n)
                        got = pmf.moments()
                        assert got.mean == pytest.approx(mom.mean, abs=1e-12)
                        assert got.variance == pytest.approx(mom.variance, abs=1e-11)

    def test_uniform_variance_disambiguation(self):
        # the uniform {n+1..2n} law has variance (n^2-1)/12; the exact
        # engine converges to that value, not to (n-1)^2/12
        n = 15
        pmf = asymptotics.limit_pmf(SO, B, TO1, n)
        v = pmf.moments().variance
        assert v == pytest.approx((n * n - 1) / 12, abs=1e-12)
        assert abs(v - (n - 1) ** 2 / 12) > 2.0
        engine_v = duration.aggregate_moments(
            RallyProbs.no_server(1 - 1e-4), GameConfig(n=n)
        ).by_server_winner[(A, B)].variance
        assert abs(engine_v - (n * n - 1) / 12) < abs(engine_v - (n - 1) ** 2 / 12)


def rational_law(system, winner, direction, n):
    """Offset, masses, mean and variance of a limit law in rationals, the
    moments from their definition."""
    if system is SO:
        weights = [1] if winner is A or direction is TO0 else [1] * n
        offset = n if winner is A else n + 1
    else:
        weights = [1] if (winner is A) == (direction is TO1) else [comb(n + k - 1, k) for k in range(n)]
        offset = n
    masses = [Fraction(w, sum(weights)) for w in weights]
    mean = sum((offset + i) * m for i, m in enumerate(masses))
    var = sum((offset + i - mean) ** 2 * m for i, m in enumerate(masses))
    return offset, masses, mean, var


@pytest.mark.parametrize("direction", [TO0, TO1])
@pytest.mark.parametrize("winner", [A, B])
@pytest.mark.parametrize("system", [SO, RP])
def test_limits_are_rounded_rationals(system, winner, direction):
    # each mass and moment is its rational rounded once to the nearest double
    for n in range(1, 61):
        offset, masses, mean, var = rational_law(system, winner, direction, n)
        pmf = asymptotics.limit_pmf(system, winner, direction, n)
        assert pmf.offset == offset
        assert pmf.masses.tolist() == [float(m) for m in masses]
        assert asymptotics.limit_moments(system, winner, direction, n) == duration.Moments(float(mean), float(var))


class TestConvergence:
    def test_sideout_receiver_win_tv_decreasing_to_uniform(self):
        tv = convergence_check(SO, B, TO1, 15, [0.9, 0.99, 0.999, 0.9999])
        assert all(x > y for x, y in zip(tv, tv[1:]))
        assert tv[-1] < 0.01

    def test_sideout_server_win_tv_to_point_mass(self):
        tv = convergence_check(SO, A, TO1, 15, [0.99, 0.999, 0.9999])
        assert all(x > y for x, y in zip(tv, tv[1:]))
        assert tv[-1] < 0.01

    def test_rallypoint_upset_tv(self):
        tv = convergence_check(RP, A, TO0, 21, [0.01, 0.001, 0.0001])
        assert all(x > y for x, y in zip(tv, tv[1:]))
        assert tv[-1] < 0.01

    def test_underflowed_conditioning_raises(self):
        with pytest.raises(ConditioningError):
            convergence_check(SO, B, TO1, 15, [1.0])

    @pytest.mark.parametrize("system", [SO, RP])
    def test_target_below_one_raises_config_error(self, system):
        with pytest.raises(ConfigError, match="n=0"):
            asymptotics.limit_moments(system, A, TO1, 0)
        with pytest.raises(ConfigError, match="n=0"):
            asymptotics.limit_pmf(system, B, TO0, 0)

    @pytest.mark.parametrize("limit", [asymptotics.limit_moments, asymptotics.limit_pmf])
    def test_enum_given_as_its_string_value_is_a_domain_error(self, limit):
        # "sideout" took the rally-point branch: a mean of 8.333, not 8.0
        with pytest.raises(DomainError, match="system='sideout' must be a ScoringSystem"):
            limit("sideout", B, TO1, 5)
        with pytest.raises(DomainError, match="winner='B' must be a Player"):
            limit(SO, "B", TO1, 5)
        with pytest.raises(DomainError, match="direction='p->1' must be a Direction"):
            limit(SO, B, "p->1", 5)
