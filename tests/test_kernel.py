"""The shared interruption-polynomial kernel: whole-grid evaluation against
the per-point public functions, against the term-by-term loop it replaced,
against backward induction where that loop overflows (n = 1000), and
against 40-digit references at extreme parameters."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rallystats import (
    DomainError,
    GameConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    TerminalScore,
    duration,
    estimate,
    kernel,
    sideout,
)

from oracles import (
    backward_induction_win_prob,
    closed_form_score_prob,
    mp_rallypoint_win_prob,
    mp_sideout_win_prob,
)

A, B = Player.A, Player.B
EPS = np.finfo(float).eps
# p_a = 1 (q = 0), p_b = 0, and the rare-event point p = .0085 of the
# no-server model, where an A-game to 15 is won by A with probability 3.5e-31
EDGES = [(1.0, 0.5), (0.5, 0.0), (0.0085, 0.9915)]

probability = st.floats(0.0, 1.0)


def close(got, want):
    """Agreement of two evaluations of one probability.  Scaled evaluation
    exponentiates sums of logarithms, so an ulp in a logarithm moves the
    result by |log w| ulps; below 1e-300 (where the engines treat an event
    as vanished) the direct product of powers underflows."""
    want = np.asarray(want, dtype=float)
    log_w = np.abs(np.log(np.where(want > 0.0, want, 1.0)))
    return np.all(np.abs(np.asarray(got) - want) <= 64 * EPS * (1.0 + log_w) * want + 1e-300)

interior = st.tuples(probability, probability).filter(lambda p: (1.0 - p[0]) * (1.0 - p[1]) < 1.0)


def aggregate_entry(agg, server, winner):
    """The moments `aggregate_moments` gives for the event (first server,
    winner), None mixing either out; None where the event vanished."""
    if server is None:
        return agg.overall if winner is None else agg.by_winner.get(winner)
    return agg.by_server[server] if winner is None else agg.by_server_winner.get((server, winner))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 25),
    system=st.sampled_from(list(ScoringSystem)),
    s_a=st.sampled_from([1.0, 0.3]),
    points=st.lists(interior, min_size=1, max_size=5),
)
# libm's pow squares this 1 - q one ulp away from a product: the variance
# must not take it as keep**2 at a point and keep * keep in a grid
@example(n=1, system=ScoringSystem.SIDE_OUT, s_a=1.0, points=[(0.0, 0.5721815203784216)])
def test_grid_evaluation_matches_per_point_functions(n, system, s_a, points):
    points = EDGES + points
    p_a = np.array([pa for pa, _ in points])
    p_b = np.array([pb for _, pb in points])
    config = GameConfig(n=n, system=system, s_a=s_a)
    weights = kernel.game(config, p_a, p_b).weight[:, 0]
    events = duration._event_moments(config, p_a, p_b)
    for i, (pa, pb) in enumerate(points):
        probs = RallyProbs(pa, pb)
        dist = sideout.score_distribution(probs, config, server=A)
        expected = [dist.entries[TerminalScore(n, k, A)] for k in range(n)]
        expected += [dist.entries[TerminalScore(k, n, B)] for k in range(n)]
        assert close(weights[:, i], expected)
        agg = duration.aggregate_moments(probs, config)
        for (server, winner), (prob, mean, var) in events.items():
            if server is not None and winner is not None:
                assert prob[i] == agg.win_probs[(server, winner)]
                assert close(prob[i], sideout.game_win_prob(winner, server, probs, config))
            moments = aggregate_entry(agg, server, winner)
            if np.isnan(mean[i]):
                # an impossible (or underflowed) event has no moments
                assert prob[i] <= 1e-300 and moments is None
                continue
            # the same bits at one point as in the grid
            assert (mean[i], var[i]) == (moments.mean, moments.variance)


@pytest.mark.parametrize("s_a", [1.0, 0.4])
@pytest.mark.parametrize("system", list(ScoringSystem))
@pytest.mark.parametrize("n", [9, 15, 21])
def test_aggregates_have_the_bits_of_the_grid_at_their_point(n, system, s_a):
    # the no-server grid of `compare`, and a grid of the two-parameter model
    p = 0.01 + np.arange(99) * 0.01
    config = GameConfig(n=n, system=system, s_a=s_a)
    for p_a, p_b in [(p, 1.0 - p), (p, 0.9 - 0.8 * p)]:
        events = duration._event_moments(config, p_a, p_b)
        for i in range(p.size):
            agg = duration.aggregate_moments(RallyProbs(p_a[i], p_b[i]), config)
            for (server, winner), (prob, mean, var) in events.items():
                moments = aggregate_entry(agg, server, winner)
                assert (mean[i], var[i]) == (moments.mean, moments.variance), (server, winner, i)
                if server is not None and winner is not None:
                    assert prob[i] == agg.win_probs[(server, winner)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 25), rally_point=st.booleans(), point=interior)
def test_kernel_matches_term_by_term_loop(n, rally_point, point):
    pa, pb = point
    system = ScoringSystem.RALLY_POINT if rally_point else ScoringSystem.SIDE_OUT
    weights = kernel.game(GameConfig(n=n, system=system), pa, pb).weight[:, 0, 0]
    expected = [closed_form_score_prob(n, k, A, pa, pb, rally_point) for k in range(n)]
    expected += [closed_form_score_prob(k, n, B, pa, pb, rally_point) for k in range(n)]
    assert close(weights, expected)


def test_rare_event_value_against_backward_induction():
    value = sideout.game_win_prob(A, A, RallyProbs.no_server(0.0085), GameConfig(n=15))
    expected = backward_induction_win_prob(0.0085, 1.0 - 0.0085, 15)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(3.5e-31, rel=0.01)


def test_log_weight_finite_where_weight_underflows():
    # the 40-0 shutout by a server at 1e-9 against .999 has probability
    # (p_a / (1 - q))^40, about 1e-360: its weight underflows to 0, and its
    # logarithm, the score-only likelihood of one such game, stays finite
    p_a, p_b = 1e-9, 0.999
    want = 40 * mpmath.log(mpmath.mpf(p_a) / (p_a + (1 - mpmath.mpf(p_a)) * p_b))
    assert kernel.game(GameConfig(n=40), p_a, p_b).weight[0, 0, 0] == 0.0
    records = estimate.RecordBatch(np.array([True]), np.array([40]), np.array([0]), np.array([True]), np.array([math.nan]))
    assert estimate.loglik_score(records, p_a, p_b) == pytest.approx(float(want), rel=1e-14)


@pytest.mark.parametrize("system", list(ScoringSystem))
def test_game_win_prob_at_n_1000(system):
    probs = RallyProbs(0.55, 0.5)
    config = GameConfig(n=1000, system=system)
    rally_point = system is ScoringSystem.RALLY_POINT
    for server in Player:
        value = sideout.game_win_prob(A, server, probs, config)
        assert math.isfinite(value)
        expected = backward_induction_win_prob(0.55, 0.5, 1000, server=server, rally_point=rally_point)
        assert value == pytest.approx(expected, abs=1e-10)
        assert sideout.game_win_prob(B, server, probs, config) == pytest.approx(1.0 - expected, abs=1e-10)


def test_tally_past_the_coefficient_table_is_a_domain_error():
    # refused before the (m + 1)^2 table is sized, for a config's tables
    # and a record's tally alike
    m = kernel._MAX_POINTS + 1
    for tables in (lambda: kernel.game(GameConfig(n=m), 0.6, 0.5), lambda: kernel.tallies([(3, m, False)])):
        with pytest.raises(DomainError, match=f"^a tally of {m} points is more than the {m - 1} the coefficient table holds$"):
            tables()


# q -> 1 with one side certain to lose its serve (0, 1e-7) or both nearly
# so (1e-9, 1e-7), (1e-4, 1e-4); a side that never wins on serve (0.2, 0);
# the rare-event point
MP_POINTS = [(0.0, 1e-7), (1e-9, 1e-7), (0.2, 0.0), (1e-4, 1e-4), (0.0085, 0.9915)]
MP_REFERENCE = {ScoringSystem.SIDE_OUT: mp_sideout_win_prob, ScoringSystem.RALLY_POINT: mp_rallypoint_win_prob}


@pytest.mark.parametrize("system", list(ScoringSystem))
@pytest.mark.parametrize("n", [1, 15])
@pytest.mark.parametrize("point", MP_POINTS, ids=str)
def test_win_probs_against_mpmath(point, n, system):
    reference = MP_REFERENCE[system]
    probs, config = RallyProbs(*point), GameConfig(n=n, system=system)
    for server in Player:
        # B wins the game as the A of the game with roles swapped
        want = [float(reference(*point, n, server)), float(reference(*point[::-1], n, server.other))]
        assert abs(want[0] + want[1] - 1.0) <= 2 * EPS  # the references themselves
        got = [sideout.game_win_prob(winner, server, probs, config) for winner in Player]
        assert close(got, want), (server, got, want)
        assert got[0] + got[1] <= 1.0 + 2 * EPS


def test_table_is_cached_and_read_only():
    assert kernel.table(7) is kernel.table(7)
    with pytest.raises(ValueError):
        kernel.table(7).logc[0, 0] = 1.0


def test_table_starts_at_smallest_feasible_power():
    rows = kernel.table(3)
    # (3, 0) shutout: q^0 only; (3, k >= 1) won by the server: j from 1
    assert list(rows.j0[:3]) == [0, 1, 1]
    # (k, 3) won by the receiver: j from 0
    assert list(rows.j0[3:]) == [0, 0, 0]
    # (3, 2) server last: C(3, j) C(1, j - 1) for j = 1, 2 -> 3, 3
    assert np.exp(rows.logc[2, :2]) == pytest.approx([3.0, 3.0], rel=1e-15)


LOGIT_GRID = 1.0 / (1.0 + np.exp(-np.linspace(-8.0, 8.0, 17)))


@pytest.mark.parametrize("system", list(ScoringSystem))
@pytest.mark.parametrize("n", [5, 15, 21])
def test_a_point_gets_the_same_bits_alone_in_a_pair_and_in_a_grid(n, system):
    # row sums run in one order whatever the number of points, so no last
    # bit depends on the company a point keeps
    rows, config = kernel.table(n), GameConfig(n=n, system=system)
    grid = np.meshgrid(LOGIT_GRID, LOGIT_GRID)
    p_a, p_b = grid[0].ravel(), grid[1].ravel()
    whole = kernel.game(config, p_a, p_b)
    for i in (0, 7, 100, 144, 288):
        pair = [i, (i + 1) % p_a.size]
        in_pair = kernel.game(config, p_a[pair], p_b[pair])
        alone = kernel.game(config, p_a[i], p_b[i])
        for field in ("weight", "shift_mean", "shift_var"):
            want = getattr(whole, field)[..., i]
            assert np.array_equal(getattr(in_pair, field)[..., 0], want), (field, i)
            assert np.array_equal(getattr(alone, field)[..., 0], want), (field, i)
    if system is ScoringSystem.SIDE_OUT:
        q = np.asarray(1.0 - p_a, dtype=np.longdouble) * np.asarray(1.0 - p_b, dtype=np.longdouble)
        poly = kernel.interruption_polynomial(rows, q)
        for i in (0, 7, 100, 144, 288):
            # a one-point array takes the grid's path, a scalar the one-q path
            in_array, alone = kernel.interruption_polynomial(rows, q[i : i + 1]), kernel.interruption_polynomial(rows, q[i])
            for one, got, want in zip(in_array, alone, poly):
                assert np.array_equal(one[:, 0], want[:, i])
                assert np.array_equal(got, want[:, i])


@pytest.mark.parametrize(
    "shape", [(1,), (40,), (40, 1), (40, 2), (40, 153), (29, 3, 153), (40, 1, 1), (7, 2, 1)], ids=str
)
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["double", "longdouble"])
def test_total_adds_the_rows_in_order(shape, dtype):
    # one row at a time, whichever path the shape takes, on weights whose
    # magnitudes differ enough that a pairwise sum rounds differently
    weights = np.random.default_rng(sum(shape)).lognormal(0.0, 8.0, shape).astype(dtype)
    want = weights[0].copy()
    for row in weights[1:]:
        want = want + row
    assert np.array_equal(kernel.total(weights), want)
    columns = weights.reshape(len(weights), -1)
    if columns.shape[1] > 1:  # a column alone, and columns not C-contiguous, keep the bits
        assert np.array_equal(kernel.total(columns[:, ::-1])[::-1], want.ravel())
        assert all(np.array_equal(kernel.total(columns[:, j]), want.ravel()[j]) for j in range(columns.shape[1]))


def test_one_q_path_has_the_grid_bits():
    # q = 0 (a probability of 1) and q = 1 (both 0) included, on tallies
    # of both last scorers with up to 21 points
    tallies = [(a, b, last) for a in range(0, 22, 3) for b in range(1, 22, 4) for last in (False, True)]
    rows = kernel.tallies([(a, b, last) for a, b, last in tallies if a or not last])
    q = np.array([0.0, 1e-18, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0], dtype=np.longdouble)
    grid = kernel.interruption_polynomial(rows, q)
    for i, v in enumerate(q):
        for got, want in zip(kernel.interruption_polynomial(rows, v), grid):
            assert got.shape == (len(rows.alpha),)
            assert np.array_equal(got.view(np.int64), want[:, i].view(np.int64)), v


@pytest.mark.parametrize(
    "q",
    [
        math.nan, -0.1, 1.5, -math.inf, np.longdouble(1.5), "0.3", None, True, 0.5j, np.complex128(0.5),
        np.array(0.5 + 0.5j), np.array([0.2, math.nan]), np.array([0.2, 1.5]), [0.2, -1e-300], np.array(["0.3"]),
        np.array([True]),
    ],
    ids=repr,
)
def test_a_q_that_is_not_a_probability_is_a_domain_error(q):
    # no NaN arrays, RuntimeWarning or finite nonsense: q is checked first
    with pytest.raises(DomainError):
        kernel.interruption_polynomial(kernel.table(5), q)


def test_a_row_without_mass_has_a_sum_and_moments_of_0():
    # (0, 3) with the first server scoring last is unreachable, so every term
    # of its row is -inf: at a scalar log v, on a grid with v = 0 and with
    # rally-point bases with u = 0 it keeps 0s, with no floating-point warning
    rows = kernel.tallies([(0, 3, True), (4, 2, True)])
    for log_v, log_u in [
        (np.float64(np.log(0.3)), None),
        (kernel._FLOOR, None),
        (np.array([-np.inf, -0.5]), None),
        (np.array([0.0, -0.7]), np.array([-np.inf, -0.7])),
    ]:
        _, terms, total, s_mean, s_var = kernel._polynomial(rows, log_v, log_u)
        assert not (terms[0].any() or total[0].any() or s_mean[0].any() or s_var[0].any())
        assert (total[1] >= 1.0).all() and np.isfinite([s_mean[1], s_var[1]]).all()


def test_every_real_form_of_q_takes_its_path():
    # a float, an extended-precision scalar, an integer and a 0-d array give
    # the one-q arrays; a list gives a grid
    rows = kernel.table(7)
    grid = kernel.interruption_polynomial(rows, np.array([0.0, 0.3, 1.0]))
    for i, forms in enumerate([(0.0, 0, np.array(0.0)), (0.3, np.float64(0.3), np.array(0.3)), (1.0, 1, np.longdouble(1))]):
        for q in forms:
            for got, want in zip(kernel.interruption_polynomial(rows, q), grid):
                assert got.shape == (len(rows.alpha),) and np.array_equal(got, want[:, i]), q
    for got, want in zip(kernel.interruption_polynomial(rows, [0.0, 0.3, 1]), grid):
        assert np.array_equal(got, want)


# the game configs of `tools/bits.py`
BITS_CONFIGS = {
    "sideout-15": GameConfig(n=15),
    "rallypoint-21": GameConfig(n=21, system=ScoringSystem.RALLY_POINT),
    "sideout-9-tiebreak-3": GameConfig(n=9, tiebreak=3),
    "sideout-5-tiebreak-2": GameConfig(n=5, tiebreak=2),
}


@pytest.mark.parametrize("config", BITS_CONFIGS.values(), ids=BITS_CONFIGS.keys())
def test_both_first_servers_share_one_polynomial(config):
    # B-first games are A-first games with the players swapped, to the last
    # bit, and the law of R given a tally is the same for both first
    # servers: four points and a seeded sample of 2000, a fifth of whose
    # coordinates lie within 1e-8 of 0 or of 1
    rng = np.random.default_rng(41)
    p, u, edge = rng.uniform(0.0, 1.0, (2, 2000)), rng.uniform(0.0, 1.0, (2, 2000)), rng.uniform(0.0, 1e-8, (2, 2000))
    p = np.where(u < 0.1, edge, np.where(u < 0.2, 1.0 - edge, p))
    p_a, p_b = np.concatenate([[1e-9, 0.3, 0.6, 1 - 1e-9], p[0]]), np.concatenate([[0.5, 1 - 1e-9, 0.45, 1e-9], p[1]])
    both = kernel.game(config, p_a, p_b)
    swapped = kernel.game(config, p_b, p_a)
    assert np.array_equal(both.weight[:, ::-1], swapped.weight)
    assert np.array_equal(both.shift_mean, swapped.shift_mean)
    assert np.array_equal(both.shift_var, swapped.shift_var)


@pytest.mark.parametrize("n", [5, 15, 21])
def test_side_out_weight_is_closed_form_times_polynomial_in_q(n):
    rows = kernel.table(n)
    for p_a, p_b in [(1e-9, 0.4), (0.6, 0.5), (0.3, 1 - 1e-9), (1 - 1e-9, 1 - 1e-9)]:
        game = kernel.game(GameConfig(n=n), p_a, p_b)
        q_a, q_b = 1 - mpmath.mpf(p_a), 1 - mpmath.mpf(p_b)
        q = q_a * q_b
        log_p, s_mean, s_var = kernel.interruption_polynomial(rows, np.longdouble(1 - p_a) * np.longdouble(1 - p_b))
        receiver_last = ~rows.server_last
        closed = [
            float(
                a * mpmath.log(p_a / (1 - q)) + b * mpmath.log(p_b / (1 - q))
                + d * mpmath.log(q_a) + j0 * mpmath.log(q)
            )
            for a, b, d, j0 in zip(rows.alpha, rows.beta, receiver_last, rows.j0)
        ]
        # log-weights near 0 (a near-certain tally) are sums of terms of size 20
        np.testing.assert_allclose(np.log(game.weight[:, 0, 0]), np.array(closed) + log_p, rtol=1e-13, atol=1e-13)
        # the shift s = 2R - delta, from the interruption count R = j0 + delta + s
        r_mean = rows.j0 + receiver_last + s_mean
        assert np.array_equal(game.shift_mean[:, 0], 2.0 * r_mean - receiver_last)
        assert np.array_equal(game.shift_var[:, 0], 4.0 * s_var)


EXCHANGES = np.array([0, 1, 2, 7, 100, 12_345, 10**6, 123_456_789, 10**9, 2**53])


def test_exchange_binom_column_has_the_bits_of_its_own_total():
    # column t - 1 is a running sum, so a table formed for a larger total,
    # or at other l, leaves its bits as they are
    wide = kernel.log_exchange_binom(400, EXCHANGES)
    assert wide.shape == (EXCHANGES.size, 400)
    assert not wide[:, 0].any()
    for t in [*range(1, 40), 41, 128, 399, 400]:
        assert np.array_equal(kernel.log_exchange_binom(t, EXCHANGES)[:, -1], wide[:, t - 1])
        for i in (0, 4, 8):
            assert kernel.log_exchange_binom(t, EXCHANGES[i : i + 1])[0, -1] == wide[i, t - 1]


def test_exchange_binom_refuses_an_l_that_is_not_finite():
    for l in ([np.inf], [3.0, np.inf], [-np.inf]):
        with pytest.raises(DomainError, match="^l must be a 1-d array of finite reals >= 0"):
            kernel.log_exchange_binom(5, l)


def test_exchange_binom_against_mpmath():
    # each of the t - 1 terms errs by at most two ulps and their sum by at
    # most t - 2 more
    table = kernel.log_exchange_binom(400, EXCHANGES)
    with mpmath.workdps(60):
        for t in [2, 3, 4, 15, 29, 41, 100, 400]:
            for l, got in zip(EXCHANGES.tolist(), table[:, t - 1].tolist()):
                exact = float(mpmath.log(mpmath.binomial(t - 1 + l, l)))
                assert abs(got - exact) <= (3 * t - 4) * np.spacing(exact), (t, l)


@pytest.mark.parametrize(
    "config",
    [GameConfig(n=9), GameConfig(n=9, system=ScoringSystem.RALLY_POINT), GameConfig(n=2, tiebreak=2), GameConfig(n=9, tiebreak=3)],
    ids=["to-9", "rally-point", "to-2-tiebreak", "to-9-tiebreak"],
)
@pytest.mark.parametrize("point", [(0.6, 0.5), (0.3, 0.45), (1.0, 0.5)])
def test_game_table_is_consistent(config, point):
    # every component is an end score; its shift law sums to 1, has the
    # parity of [the receiver wins] under side-out scoring, and the table's
    # shift moments; for either first server the weights sum to 1 and
    # give the game-winning probabilities
    probs = RallyProbs(*point)
    game = kernel.game(config, *point)
    winner, loser = np.maximum(game.alpha, game.beta), np.minimum(game.alpha, game.beta)
    regular = winner == config.n
    if config.tiebreak is None:
        assert np.all(regular & (loser < config.n))
    else:
        # below n-1 points of the loser, or l points past n-1 all
        assert np.all(regular | (winner == config.n - 1 + config.tiebreak))
        assert np.all(np.where(regular, loser < config.n - 1, (config.n - 1 <= loser) & (loser < winner)))
    laws = game.shift_laws(probs.q)
    s = np.arange(laws.shape[1])
    np.testing.assert_allclose(laws.sum(axis=1), 1.0, rtol=1e-14)
    mean = laws @ s
    np.testing.assert_allclose(mean, game.shift_mean[:, 0], rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(laws @ s**2 - mean**2, game.shift_var[:, 0], rtol=1e-11, atol=1e-11)
    if config.system is ScoringSystem.SIDE_OUT:
        receiver_wins = game.alpha < game.beta
        assert not laws[np.not_equal.outer(receiver_wins, s % 2 == 1)].any()
    for i, server in enumerate(Player):
        weight = game.weight[:, i, 0]
        assert weight.sum() == pytest.approx(1.0, abs=1e-14)
        a_wins = weight[(game.alpha > game.beta) == (server is A)].sum()
        assert a_wins == pytest.approx(sideout.game_win_prob(A, server, probs, config), abs=1e-15)


GAME_CONFIGS = [GameConfig(n=15, s_a=0.5), GameConfig(n=21, system=ScoringSystem.RALLY_POINT), GameConfig(n=9, tiebreak=3)]
GAME_IDS = ["sideout", "rally-point", "tiebreak"]
FIELDS = ("alpha", "beta", "weight", "shift_mean", "shift_var")


class TestGameCache:
    """`kernel.game` keeps the table of a single point in a bounded cache:
    one evaluation per matchup, read-only, bit for bit the fresh table."""

    @pytest.fixture
    def calls(self, monkeypatch):
        kernel._point_game.cache_clear()
        calls = []
        polynomial = kernel._polynomial
        monkeypatch.setattr(kernel, "_polynomial", lambda *args: calls.append(args) or polynomial(*args))
        return calls

    @pytest.mark.parametrize("config", GAME_CONFIGS, ids=GAME_IDS)
    def test_repeated_call_makes_no_evaluation(self, calls, config):
        first = kernel.game(config, 0.6, 0.5)
        evaluations = len(calls)
        assert evaluations == (1 if config.tiebreak is None else 3)
        assert kernel.game(config, 0.6, 0.5) is first
        assert kernel.game(config, np.float64(0.6), 0.5) is first
        assert len(calls) == evaluations

    @pytest.mark.parametrize("config", GAME_CONFIGS, ids=GAME_IDS)
    def test_cached_arrays_are_read_only(self, config):
        game = kernel.game(config, 0.45, 0.7)
        for name in FIELDS:
            arr = getattr(game, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        # the shift laws are built on each call, not kept
        assert game.shift_laws(0.2) is not game.shift_laws(0.2)

    @pytest.mark.parametrize("config", GAME_CONFIGS, ids=GAME_IDS)
    @pytest.mark.parametrize("point", [(0.6, 0.5), (0.05, 0.07), (1e-4, 1e-4), (1.0, 0.5)])
    def test_cached_table_equals_a_fresh_one(self, config, point):
        kernel._point_game.cache_clear()
        cached = kernel.game(config, *point)
        fresh = kernel._game(config.system, config.n, config.tiebreak, *point)
        grid = kernel.game(config, np.array([point[0]]), np.array([point[1]]))
        q = RallyProbs(*point).q
        for other in (fresh, grid):
            for name in FIELDS:
                assert np.array_equal(getattr(cached, name), getattr(other, name)), name
            assert np.array_equal(cached.shift_laws(q), other.shift_laws(q))

    def test_configs_differing_only_in_s_a_share_one_entry(self, calls):
        tables = [kernel.game(GameConfig(n=15, s_a=s_a), 0.6, 0.5) for s_a in (1.0, 0.5, 0.0)]
        assert all(t is tables[0] for t in tables)
        assert kernel._point_game.cache_info().currsize == 1
        assert len(calls) == 1

    def test_grids_never_enter_the_cache(self, calls):
        p = np.array([0.3, 0.6, 0.9])
        kernel.game(GameConfig(n=15), p, p[::-1])
        kernel.game(GameConfig(n=9, tiebreak=3), p[:1], p[:1])
        assert kernel._point_game.cache_info().currsize == 0
        assert len(calls) == 4

    def test_entries_are_bounded(self, calls):
        bound = kernel._point_game.cache_info().maxsize
        assert bound == 16
        points = [0.01 * i for i in range(1, 2 * bound + 1)]
        for p in points:
            kernel.game(GameConfig(n=5), p, 0.5)
        assert kernel._point_game.cache_info().currsize == bound
        # the oldest points were evicted, the newest are kept
        kernel.game(GameConfig(n=5), points[-1], 0.5)
        assert len(calls) == len(points)
        kernel.game(GameConfig(n=5), points[0], 0.5)
        assert len(calls) == len(points) + 1

    @pytest.mark.parametrize(
        "p_a, p_b",
        [
            (1.5, 0.5), (-0.1, 0.5), (math.nan, 0.5), (0.5, math.nan), (0.0, 0.0), (0, 0), (1e-20, 1e-20),
            (None, 0.5), ("x", 0.5), (object(), 0.5), (True, 0.5), (0.5, "0.5"),
            (np.array([0.5, 1.5]), np.array([0.5, 0.5])), ([0.5, math.nan], [0.5, 0.5]), (np.array([0.0, 0.5]), 0.0),
            (np.array([[0.5]]), 0.5), (np.array(["x"]), 0.5), (np.array([0.5, 0.4]), np.array([0.5])),
        ],
    )
    def test_refused_points_make_no_evaluation_or_entry(self, calls, p_a, p_b):
        # a point outside [0, 1], NaN, q = 1 or not a real is refused before
        # its table is formed: no NaN weights, no cache entry
        for config in GAME_CONFIGS:
            with pytest.raises(DomainError):
                kernel.game(config, p_a, p_b)
        assert kernel._point_game.cache_info().currsize == 0
        assert calls == []
