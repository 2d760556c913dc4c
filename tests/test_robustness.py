"""Public engine functions return finite, non-negative values or raise one
of the package's typed errors, never NaN or inf: edge rally probabilities
(0 and 1) and interior ones, both scoring systems, every first-server mix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rallystats import (
    ConditioningError,
    ConfigError,
    DomainError,
    GameConfig,
    MatchConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    duration,
    matchlevel,
    sideout,
    validate,
)

TYPED = (DomainError, ConfigError, ConditioningError)
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.02, 0.98))


def finite_non_negative(values):
    values = np.asarray(list(values), dtype=float)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0))


def pmf_values(pmf):
    return [*pmf.masses, pmf.truncation_bound]


@settings(max_examples=400, deadline=None)
@given(
    p_a=probability,
    p_b=probability,
    n=st.integers(1, 7),
    s_a=st.sampled_from([0.0, 0.5, 1.0]),
    system=st.sampled_from(list(ScoringSystem)),
    winner=st.sampled_from(list(Player)),
    games_to_win=st.integers(1, 2),
)
def test_finite_values_or_typed_errors(p_a, p_b, n, s_a, system, winner, games_to_win):
    probs, config = RallyProbs(p_a, p_b), GameConfig(n=n, system=system, s_a=s_a)
    match = MatchConfig(games_to_win)
    try:
        validate(probs, config)
    except DomainError:
        # q = 1: the game never ends, and every engine says so
        calls = [
            lambda: sideout.score_distribution(probs, config),
            lambda: sideout.game_win_prob(winner, Player.A, probs, config),
            lambda: duration.aggregate_moments(probs, config),
            lambda: duration.duration_pmf_unconditional(probs, config),
            lambda: duration.duration_pmf_winner(probs, config, winner),
            lambda: matchlevel.match_win_prob(probs, config, match, winner),
            lambda: matchlevel.match_duration_pmf(probs, config, match),
        ]
        for call in calls:
            with pytest.raises(TYPED):
                call()
        return
    assert finite_non_negative(sideout.score_distribution(probs, config).entries.values())
    assert finite_non_negative(sideout.game_win_prob(winner, server, probs, config) for server in Player)
    agg = duration.aggregate_moments(probs, config)
    moments = [agg.overall, *agg.by_server.values(), *agg.by_server_winner.values(), *agg.by_winner.values()]
    assert finite_non_negative([x for m in moments for x in (m.mean, m.variance)])
    assert finite_non_negative(agg.win_probs.values())
    assert finite_non_negative(pmf_values(duration.duration_pmf_unconditional(probs, config)))
    try:
        assert finite_non_negative(pmf_values(duration.duration_pmf_winner(probs, config, winner)))
    except ConditioningError:
        # only a winner who cannot win the game has no conditional law
        assert s_a * agg.win_probs[(Player.A, winner)] + (1 - s_a) * agg.win_probs[(Player.B, winner)] <= 1e-300
    win = matchlevel.match_win_prob(probs, config, match, winner)
    assert math.isfinite(win) and 0.0 <= win <= 1.0 + 1e-12
    assert finite_non_negative(pmf_values(matchlevel.match_duration_pmf(probs, config, match)))
