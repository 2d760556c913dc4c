"""The shared interruption-polynomial kernel: whole-grid evaluation against
the per-point public functions, against the term-by-term loop it replaced,
against backward induction where that loop overflows (n = 1000), and
against 40-digit references at extreme parameters."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rallystats import (
    GameConfig,
    Player,
    RallyProbs,
    ScoringSystem,
    TerminalScore,
    duration,
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
def test_grid_evaluation_matches_per_point_functions(n, system, s_a, points):
    points = EDGES + points
    p_a = np.array([pa for pa, _ in points])
    p_b = np.array([pb for _, pb in points])
    config = GameConfig(n=n, system=system, s_a=s_a)
    weights = kernel.evaluate_servers(system, kernel.table(n), p_a, p_b).weight[:, 0]
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
    weights = kernel.evaluate_servers(system, kernel.table(n), pa, pb).weight[:, 0, 0]
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
    # (p_a / (1 - q))^40, about 1e-360
    p_a, p_b = 1e-9, 0.999
    ev = kernel.evaluate_servers(ScoringSystem.SIDE_OUT, kernel.table(40), p_a, p_b)
    want = 40 * mpmath.log(mpmath.mpf(p_a) / (p_a + (1 - mpmath.mpf(p_a)) * p_b))
    assert ev.weight[0, 0, 0] == 0.0
    assert ev.log_weight[0, 0, 0] == pytest.approx(float(want), rel=1e-14)


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
    rows = kernel.table(n)
    grid = np.meshgrid(LOGIT_GRID, LOGIT_GRID)
    p_a, p_b = grid[0].ravel(), grid[1].ravel()
    whole = kernel.evaluate_servers(system, rows, p_a, p_b)
    for i in (0, 7, 100, 144, 288):
        pair = [i, (i + 1) % p_a.size]
        ev_pair = kernel.evaluate_servers(system, rows, p_a[pair], p_b[pair])
        ev_alone = kernel.evaluate_servers(system, rows, p_a[i], p_b[i])
        for field in ("log_weight", "r_mean", "r_var"):
            want = getattr(whole, field)[..., i]
            assert np.array_equal(getattr(ev_pair, field)[..., 0], want), (field, i)
            assert np.array_equal(getattr(ev_alone, field)[..., 0], want), (field, i)
    if system is ScoringSystem.SIDE_OUT:
        q = np.asarray(1.0 - p_a, dtype=np.longdouble) * np.asarray(1.0 - p_b, dtype=np.longdouble)
        poly = kernel.interruption_polynomial(rows, q)
        for i in (0, 7, 100, 144, 288):
            for got, want in zip(kernel.interruption_polynomial(rows, q[i]), poly):
                assert np.array_equal(got[:, 0], want[:, i])


@pytest.mark.parametrize("system", list(ScoringSystem))
def test_both_first_servers_share_one_polynomial(system):
    # B-first games are A-first games with the players swapped, and the law
    # of R given a tally is the same for both first servers
    rows = kernel.table(15)
    p_a, p_b = np.array([1e-9, 0.3, 0.6, 1 - 1e-9]), np.array([0.5, 1 - 1e-9, 0.45, 1e-9])
    both = kernel.evaluate_servers(system, rows, p_a, p_b)
    swapped = kernel.evaluate_servers(system, rows, p_b, p_a)
    assert np.array_equal(both.log_weight[:, ::-1], swapped.log_weight)
    assert np.array_equal(both.r_mean, swapped.r_mean)
    assert np.array_equal(both.r_var, swapped.r_var)


@pytest.mark.parametrize("n", [5, 15, 21])
def test_side_out_weight_is_closed_form_times_polynomial_in_q(n):
    rows = kernel.table(n)
    for p_a, p_b in [(1e-9, 0.4), (0.6, 0.5), (0.3, 1 - 1e-9), (1 - 1e-9, 1 - 1e-9)]:
        ev = kernel.evaluate_servers(ScoringSystem.SIDE_OUT, rows, p_a, p_b)
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
        np.testing.assert_allclose(ev.log_weight[:, 0, 0], np.array(closed) + log_p[:, 0], rtol=1e-13, atol=1e-13)
        assert np.array_equal(ev.r_mean[:, 0], rows.j0 + receiver_last + s_mean[:, 0])
        assert np.array_equal(ev.r_var[:, 0], s_var[:, 0])


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
