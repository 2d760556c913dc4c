"""Public engine functions return finite, non-negative values or raise one
of the package's typed errors, never NaN or inf: edge rally probabilities
(0 and 1) and interior ones, both scoring systems, every first-server mix,
tie-break configurations, the simulator and the estimators fitted to its
samples.  A bad argument of a public function, or a bad field of a config
class, raises one of those typed errors."""

import dataclasses
import inspect
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
    ServerRule,
    TerminalScore,
    asymptotics,
    duration,
    estimate,
    matchlevel,
    sideout,
    simulate,
    validate,
)
from rallystats.asymptotics import Direction
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
    """Finite, non-negative values from every exact engine, the laws and
    the MGF given each end score included, or a typed error from each when
    q = 1; returns whether q < 1."""
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
            lambda: duration.score_mgf(probs, config, (config.n, 0), 0.0),
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
    for score, p in sideout.score_distribution(probs, config).entries.items():
        try:
            m = duration.score_moments(probs, config, (score.alpha, score.beta))
            values = pmf_values(duration.score_pmf(probs, config, (score.alpha, score.beta)))
            values += [call() for call in mgf_calls(probs, config, (score.alpha, score.beta))]
        except ConditioningError:
            # only an end no game reaches has no conditional law
            assert p <= 1e-300
            continue
        assert finite_non_negative([m.mean, m.variance, *values])
    return True


def mgf_calls(probs, config, score):
    """Calls of the MGF of D given an end score at three points of its
    domain, q e^(2t) < 1 under side-out scoring."""
    q = probs.q if config.system is ScoringSystem.SIDE_OUT else 0.0
    ts = (-0.5, 0.0, -math.log(q) / 4 if q > 0.0 else 1.0)
    return [partial(duration.score_mgf, probs, config, score, t) for t in ts]


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


def _public_functions():
    """Every public function of the engine modules, by name."""
    for module in (duration, sideout, matchlevel, simulate, estimate, asymptotics):
        for name, f in vars(module).items():
            if inspect.isfunction(f) and not name.startswith("_") and f.__module__ == module.__name__:
                yield f"{module.__name__.rpartition('.')[2]}.{name}", f


WALK_PROBS, WALK_CONFIG = RallyProbs(0.6, 0.5), GameConfig(n=5, s_a=0.5)
WALK_SAMPLE = simulate.sample_games(WALK_PROBS, WALK_CONFIG, 20, SeedSpec(7))
WALK_RECORDS = estimate.records_from_sample(WALK_SAMPLE)
# a valid value of every parameter of the walked functions, by name
WALK_ARGS = {
    "probs": WALK_PROBS, "config": WALK_CONFIG, "game_config": WALK_CONFIG, "match_config": MatchConfig(2),
    "winner": Player.A, "server": Player.B, "score": (5, 3), "t": 0.1, "epsilon": 1e-9, "level": 0.5,
    "replications": 20, "seed": SeedSpec(7), "matches": 2, "system": ScoringSystem.SIDE_OUT,
    "direction": Direction.P_TO_1, "n": 5, "sample": WALK_SAMPLE, "records": WALK_RECORDS,
    "lines": estimate.records_to_json_lines(WALK_RECORDS).splitlines(), "p_a": 0.6, "p_b": 0.5,
    "points": 5, "law": duration.pre_exchange_laws(WALK_PROBS, WALK_CONFIG)[(Player.A, Player.A)],
    "pmf": duration.duration_pmf_unconditional(WALK_PROBS, WALK_CONFIG),
}
WALK_OVERRIDES = {
    "duration.grid_moments": {"p_a": np.array([0.6, 0.4]), "p_b": np.array([0.5, 0.5])},
    "duration.quantile": {"mode": QuantileMode.STANDARD},
    "estimate.fit": {"mode": estimate.FitMode.SCORE_ONLY, "model": estimate.FitModel.SERVER},
}
WALKED = dict(_public_functions())


@pytest.mark.parametrize("bad", [None, "x", (1,), object(), math.nan], ids=["None", "str", "tuple", "object", "nan"])
@pytest.mark.parametrize("name", sorted(WALKED))
def test_public_functions_refuse_bad_arguments_with_typed_errors(name, bad):
    # one argument at a time: a typed error, or the documented value of a
    # None where the signature admits it (`server`, for both first servers)
    f = WALKED[name]
    params = inspect.signature(f).parameters
    valid = {**WALK_ARGS, **WALK_OVERRIDES.get(name, {})}
    args = {p: valid[p] for p in params}
    f(**args)  # the valid arguments are accepted
    wrong = []
    for p in params:
        try:
            f(**{**args, p: bad})
        except TYPED:
            continue
        except Exception as exc:
            wrong.append(f"{p}: {type(exc).__name__}: {exc}")
            continue
        if not (bad is None and "None" in str(params[p].annotation)):
            wrong.append(f"{p}: returned")
    assert not wrong, f"{name} with {bad!r}: {wrong}"


# a valid value of every field of the config classes, by class
FIELD_ARGS = {
    GameConfig: {"n": 5, "system": ScoringSystem.SIDE_OUT, "tiebreak": 2, "s_a": 0.5},
    RallyProbs: {"p_a": 0.6, "p_b": 0.5},
    TerminalScore: {"alpha": 5, "beta": 3, "last_scorer": Player.A},
    MatchConfig: {"games_to_win": 2, "server_rule": ServerRule.ALTERNATE},
    SeedSpec: {"master": 7, "stream": 1},
    estimate.RecordBatch: {
        "first_server_a": [True], "alpha": [5], "beta": [3], "last_scorer_a": [True], "duration": [9.0],
    },
}
# (1,) is a valid one-game column of a batch of one game: an integer score
# or rally count, though not a bool column
ACCEPTED = {(estimate.RecordBatch, name, (1,)) for name in ("alpha", "beta", "duration")}


@pytest.mark.parametrize("bad", [None, "x", (1,), object(), math.nan], ids=["None", "str", "tuple", "object", "nan"])
@pytest.mark.parametrize("cls", list(FIELD_ARGS), ids=[cls.__name__ for cls in FIELD_ARGS])
def test_config_classes_refuse_bad_fields_with_typed_errors(cls, bad):
    # one field at a time: a typed error, or acceptance of a None where the
    # field's type admits it (a tie-break) and of the listed valid values
    valid = FIELD_ARGS[cls]
    cls(**valid)  # the valid fields are accepted
    wrong = []
    for field in dataclasses.fields(cls):
        try:
            cls(**{**valid, field.name: bad})
        except TYPED:
            continue
        except Exception as exc:
            wrong.append(f"{field.name}: {type(exc).__name__}: {exc}")
            continue
        listed = isinstance(bad, tuple) and (cls, field.name, bad) in ACCEPTED
        if not (listed or (bad is None and "None" in str(field.type))):
            wrong.append(f"{field.name}: accepted")
    assert not wrong, f"{cls.__name__} with {bad!r}: {wrong}"
