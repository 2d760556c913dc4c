"""Public engine functions return finite, non-negative values or raise one
of the package's typed errors, never NaN or inf: edge rally probabilities
(0 and 1) and interior ones, both scoring systems, every first-server mix,
tie-break configurations, the simulator and the estimators fitted to its
samples."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rallystats import (
    ConditioningError,
    ConfigError,
    DomainError,
    GameConfig,
    InfeasibleData,
    MatchConfig,
    NonConvergence,
    Player,
    RallyProbs,
    ScoringSystem,
    SeedSpec,
    duration,
    estimate,
    matchlevel,
    sideout,
    simulate,
    validate,
)
from rallystats.duration import QuantileMode

from oracles import sample_matches

TYPED = (DomainError, ConfigError, ConditioningError, InfeasibleData, NonConvergence)
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.02, 0.98))


def finite_non_negative(values):
    values = np.asarray(list(values), dtype=float)
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0))


def pmf_values(pmf):
    """Masses, truncation bound and quantiles of a PMF; a quantile level
    beyond the computed mass raises DomainError and is left out."""
    values = [*pmf.masses, pmf.truncation_bound]
    for level in (0.05, 0.5, 0.95):
        for mode in QuantileMode:
            try:
                values.append(duration.quantile(pmf, level, mode))
            except DomainError:
                assert level > pmf.total_mass
    return values


def check_simulator_and_fits(probs, config, match, seed):
    """Finite, non-negative simulated games and matches; finite estimates
    in [0, 1] from both fit modes and both models."""
    games = simulate.sample_games(probs, config, 30, seed)
    assert finite_non_negative(np.concatenate([games.alpha, games.beta, games.duration]))
    assert np.all(games.alpha + games.beta <= games.duration)
    assert np.all(np.where(games.winner_a, games.alpha, games.beta) >= config.n)
    matches = sample_matches(probs, config, match, 30, seed)
    assert finite_non_negative(np.concatenate([matches.total_rallies, matches.games_played]))
    m = match.games_to_win
    assert np.all((m <= matches.games_played) & (matches.games_played <= 2 * m - 1))
    assert np.all(matches.total_rallies >= matches.games_played * config.n)
    records = estimate.records_from_sample(games)
    for mode in estimate.FitMode:
        for model in estimate.FitModel:
            try:
                fit = estimate.fit(records, mode, model)
            except TYPED:
                continue
            assert 0.0 <= fit.p_a <= 1.0 and 0.0 <= fit.p_b <= 1.0
            assert math.isfinite(fit.log_likelihood) and fit.log_likelihood <= 0.0


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
    check_exact_engines(RallyProbs(p_a, p_b), GameConfig(n=n, system=system, s_a=s_a), winner, MatchConfig(games_to_win))


def check_exact_engines(probs, config, winner, match):
    """Finite, non-negative values from every exact engine, the laws given
    each end score and the MGF of single tallies included, or a typed error
    from each when q = 1; returns whether q < 1."""
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
            lambda: simulate.sample_games(probs, config, 1, SeedSpec(0)),
            lambda: sample_matches(probs, config, match, 1, SeedSpec(0)),
            lambda: duration.score_moments(probs, config, (config.n, 0)),
            lambda: duration.score_pmf(probs, config, (config.n, 0)),
            *mgf_calls(probs, config.n),
        ]
        for call in calls:
            with pytest.raises(TYPED):
                call()
        return False
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
        s_a = config.s_a
        assert s_a * agg.win_probs[(Player.A, winner)] + (1 - s_a) * agg.win_probs[(Player.B, winner)] <= 1e-300
    win = matchlevel.match_win_prob(probs, config, match, winner)
    assert math.isfinite(win) and 0.0 <= win <= 1.0 + 1e-12
    assert finite_non_negative(pmf_values(matchlevel.match_duration_pmf(probs, config, match)))
    assert finite_non_negative(call() for call in mgf_calls(probs, config.n))
    for score, p in sideout.score_distribution(probs, config).entries.items():
        try:
            m = duration.score_moments(probs, config, (score.alpha, score.beta))
            values = pmf_values(duration.score_pmf(probs, config, (score.alpha, score.beta)))
        except ConditioningError:
            # only an end no game reaches has no conditional law
            assert p <= 1e-300
            continue
        assert finite_non_negative([m.mean, m.variance, *values])
    return True


def mgf_calls(probs, n):
    """Calls of the MGF of D given a side-out A-game tally, at a shutout, a
    close end and a receiver's win of a game to n, each at three points of
    the domain q e^(2t) < 1."""
    q, one_minus_q = probs.q, probs.p_a + probs.q_a * probs.p_b
    ts = (-0.5, 0.0, -math.log(q) / 4 if q > 0.0 else 1.0)
    tallies = dict.fromkeys([(n, 0, Player.A), (n, n - 1, Player.A), (n - 1, n, Player.B)])
    return [partial(duration.mgf_conditional, *tally, q, one_minus_q, t) for tally in tallies for t in ts]


@settings(max_examples=150, deadline=None)
@given(
    p_a=probability,
    p_b=probability,
    n=st.integers(1, 7),
    s_a=st.sampled_from([0.0, 0.5, 1.0]),
    system=st.sampled_from(list(ScoringSystem)),
    games_to_win=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulator_and_fits(p_a, p_b, n, s_a, system, games_to_win, seed):
    probs, config = RallyProbs(p_a, p_b), GameConfig(n=n, system=system, s_a=s_a)
    assume(probs.q < 1.0)
    check_simulator_and_fits(probs, config, MatchConfig(games_to_win), SeedSpec(seed))


@settings(max_examples=150, deadline=None)
@given(
    p_a=probability,
    p_b=probability,
    n=st.integers(1, 7),
    tiebreak=st.integers(2, 3),
    s_a=st.sampled_from([0.0, 0.5, 1.0]),
    winner=st.sampled_from(list(Player)),
    games_to_win=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiebreak_configurations(p_a, p_b, n, tiebreak, s_a, winner, games_to_win, seed):
    if n == 1:
        # a game to 1 has no n-1 all to extend: the exact engines and the
        # simulator all take their configuration from GameConfig, which refuses it
        with pytest.raises(ConfigError):
            GameConfig(n=n, tiebreak=tiebreak, s_a=s_a)
        return
    probs, config = RallyProbs(p_a, p_b), GameConfig(n=n, tiebreak=tiebreak, s_a=s_a)
    match = MatchConfig(games_to_win)
    if check_exact_engines(probs, config, winner, match):
        check_simulator_and_fits(probs, config, match, SeedSpec(seed))


def _expected_match_rallies(probs, config, m):
    """Mean rally count of a winner-serves-next match to m games by the law
    of total expectation over the match tree, from per-(first server,
    winner) game means."""
    agg = duration.aggregate_moments(probs, config)

    def expected(a, b, server):
        if a == m or b == m:
            return 0.0
        out = 0.0
        for w in Player:
            p = agg.win_probs[(server, w)]
            if p > 0.0:
                rest = expected(a + (w is Player.A), b + (w is Player.B), w)
                out += p * (agg.by_server_winner[(server, w)].mean + rest)
        return out

    return config.s_a * expected(0, 0, Player.A) + config.s_b * expected(0, 0, Player.B)


@pytest.mark.parametrize("p", [0.05, 0.01, 1e-3])
def test_match_duration_pmf_near_q_one(p):
    # at 1e-3 the exchange series of a best-of-5 match starts near
    # (1-q)^145 ~ 1e-391, below the smallest double
    probs, config = RallyProbs(p, p), GameConfig(n=15, s_a=0.5)
    pmf = matchlevel.match_duration_pmf(probs, config, MatchConfig(3), epsilon=1e-12)
    assert pmf.truncation_bound <= 1e-12
    assert abs(1.0 - pmf.total_mass) <= pmf.truncation_bound + 1e-13
    assert finite_non_negative(pmf.masses)
    if p == 1e-3:
        assert pmf.mean == pytest.approx(_expected_match_rallies(probs, config, 3), rel=1e-10, abs=0)
