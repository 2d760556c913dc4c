import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rallystats import (
    DomainError,
    GameConfig,
    InfeasibleData,
    Player,
    RallyProbs,
    SeedSpec,
    TerminalScore,
)
from rallystats import estimate, kernel, sideout, simulate
from rallystats.estimate import FitMode, FitModel

from oracles import (
    RecordLikelihood,
    enumerate_sideout,
    exact_h_count,
    log_h,
    multistart_score_fit,
    per_server_e_step,
    record_rows,
    reference_newton,
    reference_score_information,
    score_loglik,
    score_marginal,
    start_grid_probs,
)

A, B = Player.A, Player.B


COLUMNS = ("first_server_a", "alpha", "beta", "last_scorer_a", "duration")


def make_batch(*rows):
    """The `RecordBatch` of rows (first server, alpha, beta, last scorer[,
    duration]), with NaN for a row without a duration."""
    cols = ([], [], [], [], [])
    for first, alpha, beta, last, *duration in rows:
        row = (first is A, alpha, beta, last is A, duration[0] if duration else math.nan)
        for col, value in zip(cols, row):
            col.append(value)
    return estimate.RecordBatch(*(np.array(c, dtype=t) for c, t in zip(cols, estimate._DTYPES)))


def assert_same_records(got, want):
    for name in COLUMNS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), strict=True)


def same_bits(a, b):
    """Whether two floats are the same double, signed zeros and NaN told apart by their bits."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def clear_caches():
    """Empty the estimator's per-tally and log H(m) caches."""
    estimate._tallies.clear()
    estimate._log_h_cache.clear()


def simulated_records(pa, pb, n, count, seed, s_a=0.5):
    sample = simulate.sample_games(
        RallyProbs(pa, pb), GameConfig(n=n, s_a=s_a), count, seed
    )
    return estimate.records_from_sample(sample)


class TestScoreLikelihood:
    def test_shutout_closed_form(self):
        # at (1e-9, 1e-7), q is within 1.01e-7 of 1, where 1 - q cancels;
        # at (1e-9, .999) the 40-0 tally's probability underflows to 0
        for n, p_a, p_b in [(7, 0.62, 0.47), (15, 1e-9, 1e-7), (40, 1e-9, 0.999)]:
            one_minus_q = p_a + (1 - p_a) * p_b
            got = estimate.loglik_score(make_batch((A, n, 0, A)), p_a, p_b)
            assert got == pytest.approx(n * math.log(p_a) - n * math.log(one_minus_q), abs=1e-12)

    def test_permutation_invariance(self):
        records = simulated_records(0.6, 0.5, 9, 40, SeedSpec(21, 0))
        lik = estimate.loglik_score(records, 0.57, 0.44)
        reversed_records = estimate.RecordBatch(*(getattr(records, name)[::-1] for name in COLUMNS))
        lik_rev = estimate.loglik_score(reversed_records, 0.57, 0.44)
        assert lik == pytest.approx(lik_rev, abs=1e-12)

    def test_matches_enumeration_probabilities(self):
        p_a, p_b = 0.6, 0.45
        outcomes, _ = enumerate_sideout(p_a, p_b, 3, server=A, tol=1e-16)
        marg = score_marginal(outcomes)
        rows = [(A, 3, 0, A), (A, 3, 2, A), (A, 1, 3, B), (A, 3, 2, A)]
        expected = sum(math.log(marg[(alpha, beta, last)]) for _, alpha, beta, last in rows)
        assert estimate.loglik_score(make_batch(*rows), p_a, p_b) == pytest.approx(expected, abs=1e-10)

    def test_matches_reference_polynomials(self):
        parts = simulated_records(0.6, 0.5, 15, 200, SeedSpec(110, 0)), simulated_records(0.4, 0.7, 9, 30, SeedSpec(110, 1))
        records = estimate.RecordBatch(*(np.concatenate([getattr(b, name) for b in parts]) for name in COLUMNS))
        reference = score_loglik(records)
        for p_a, p_b in [(0.6, 0.5), (0.05, 0.9), (0.97, 0.01)]:
            assert estimate.loglik_score(records, p_a, p_b) == pytest.approx(reference(p_a, p_b), rel=1e-13)

    def test_malformed_record_rejected(self):
        with pytest.raises(InfeasibleData, match="record 0"):
            estimate.loglik_score(make_batch((A, 3, 5, A)), 0.5, 0.5)

    @pytest.mark.parametrize("model", list(FitModel))
    def test_score_and_information_match_finite_differences(self, model):
        # logit coordinates; central differences of the reference
        # likelihood, away from the optimum so the score is not small
        records = simulated_records(0.6, 0.5, 15, 100, SeedSpec(111, 0))
        reference = score_loglik(records)
        lik = estimate._Likelihood(records, FitMode.SCORE_ONLY)
        x = np.array([0.55, 0.4] if model is FitModel.SERVER else [0.45])

        def ll(theta):
            return reference(*estimate._probs(1.0 / (1.0 + np.exp(-theta)), model))

        _, mean, var = lik.e_step(*estimate._probs(x, model))
        score, info = estimate._score_information(lik.k, x.tolist(), float(mean), float(var), model)
        theta, h = np.log(x / (1.0 - x)), 1e-4
        eye = np.eye(len(x)) * h
        fd_score = [(ll(theta + e) - ll(theta - e)) / (2 * h) for e in eye]
        fd_info = [
            [(ll(theta + e - f) + ll(theta - e + f) - ll(theta + e + f) - ll(theta - e - f)) / (4 * h * h) for f in eye]
            for e in eye
        ]
        np.testing.assert_allclose(score, fd_score, rtol=1e-6)
        np.testing.assert_allclose(info, fd_info, rtol=1e-5)


    @pytest.mark.parametrize("model", list(FitModel))
    @pytest.mark.parametrize("n", [5, 15, 21])
    def test_e_step_matches_per_server_oracle(self, n, model):
        # the q-only E-step against whole-table evaluations per first server,
        # also where one side is nearly certain to win or lose a rally
        edges = [1e-9, 0.3, 0.7, 1 - 1e-9]
        for i, truth in enumerate([(0.6, 0.5), (0.2, 0.9), (0.05, 0.05)]):
            records = simulated_records(*truth, n, 150, SeedSpec(130 + n, i))
            if model is FitModel.SERVER:
                p_a, p_b = (g.ravel() for g in np.meshgrid(edges, edges))
            else:
                p_a = np.array(edges)
                p_b = 1.0 - p_a
            lik = estimate._Likelihood(records, FitMode.SCORE_ONLY)
            got = np.array([lik.e_step(float(a), float(b)) for a, b in zip(p_a, p_b)]).T
            want = per_server_e_step(records)(p_a, p_b)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)

    def test_e_step_point_gets_the_same_bits_alone_and_in_the_grid(self):
        # two floats take the kernel's one-q path, the start grid its cached rows
        records = simulated_records(0.6, 0.5, 15, 200, SeedSpec(131, 0))
        lik = estimate._Likelihood(records, FitMode.SCORE_ONLY)
        for model in FitModel:
            grid = lik.grid_e_step(model)
            p_a, p_b = start_grid_probs(model)
            assert len(p_a) == (289 if model is FitModel.SERVER else 17)
            for i in range(len(p_a)):
                alone = lik.e_step(float(p_a[i]), float(p_b[i]))
                assert all(same_bits(a, g[i]) for a, g in zip(alone, grid)), (model, i)

    @pytest.mark.parametrize("model", list(FitModel))
    def test_one_point_e_step_has_the_grid_bits_at_the_clip_bounds(self, model):
        # the box a fit keeps to, its corners included, and points inside,
        # against the reference's E-step over all of them as arrays
        lo, hi = estimate._BOUND_DELTA, 1.0 - estimate._BOUND_DELTA
        edges = np.array([lo, 2 * lo, 0.3, 0.5, 0.7, 1.0 - 2 * lo, hi])
        dims = 2 if model is FitModel.SERVER else 1
        p_a, p_b = estimate._probs(np.stack([g.ravel() for g in np.meshgrid(*[edges] * dims)]), model)
        for seed in (73, 74, 75):
            batch = random_batch(seed)
            lik = estimate._Likelihood(batch, FitMode.SCORE_ONLY)
            grid = RecordLikelihood(batch, FitMode.SCORE_ONLY).e_step(p_a, p_b)
            assert all(np.isfinite(g).all() for g in grid)
            for i in range(len(p_a)):
                alone = lik.e_step(float(p_a[i]), float(p_b[i]))
                assert all(same_bits(a, g[i]) for a, g in zip(alone, grid)), (seed, p_a[i], p_b[i])


# points on the edge of the unit square; at (0, 0) no rally is ever won
EDGE_POINTS = [(1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.0, 0.5), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 1.0)]


class TestLikelihoodOnTheEdge:
    def test_shutout_at_a_probability_of_one(self):
        # A serving first at p_a = 1 wins 5-0 in 5 rallies, and no other way
        for call in (estimate.loglik_score, estimate.loglik_score_duration):
            assert call(make_batch((A, 5, 0, A, 5)), 1.0, 0.5) == 0.0
            assert call(make_batch((A, 5, 0, A, 5), (A, 5, 3, A, 10)), 1.0, 0.5) == -math.inf
            assert call(make_batch((A, 5, 0, A, 5)), 0.0, 0.0) == -math.inf

    @pytest.mark.parametrize("p_a, p_b", EDGE_POINTS)
    def test_score_likelihood_equals_the_score_distribution(self, p_a, p_b):
        for server in (A, B):
            dist = sideout.score_distribution(RallyProbs(p_a, p_b), GameConfig(n=5), server=server)
            assert dist.total_mass == pytest.approx(1.0, abs=1e-14)
            for score, prob in dist.entries.items():
                got = estimate.loglik_score(make_batch((server, score.alpha, score.beta, score.winner)), p_a, p_b)
                if prob == 0.0:
                    assert got == -math.inf, (server, score)
                else:
                    assert got == pytest.approx(math.log(prob), rel=1e-13, abs=1e-15), (server, score)

    @pytest.mark.parametrize("p_a, p_b", EDGE_POINTS)
    def test_likelihoods_equal_enumeration(self, p_a, p_b):
        for server in (A, B):
            outcomes, _ = enumerate_sideout(p_a, p_b, 3, server=server, tol=1e-18)
            marginal = score_marginal(outcomes)
            for (alpha, beta, last, d), mass in outcomes.items():
                if mass < 1e-12:
                    continue  # enumeration sums many rounded masses
                record = make_batch((server, alpha, beta, last, d))
                for got, want in [
                    (estimate.loglik_score_duration(record, p_a, p_b), mass),
                    (estimate.loglik_score(record, p_a, p_b), marginal[alpha, beta, last]),
                ]:
                    assert got == pytest.approx(math.log(want), rel=1e-12, abs=1e-14), (server, alpha, beta, last, d)
            # a record the enumeration never reaches has probability 0
            for alpha, beta, last in [(3, 1, A), (1, 3, B), (3, 2, A), (2, 3, B)]:
                for d in range(alpha + beta, alpha + beta + 8):
                    if outcomes.get((alpha, beta, last, d), 0.0) == 0.0:
                        try:
                            got = estimate.loglik_score_duration(make_batch((server, alpha, beta, last, d)), p_a, p_b)
                        except InfeasibleData:
                            continue  # refused whatever (p_a, p_b): wrong parity or too short
                        assert got == -math.inf, (server, alpha, beta, last, d)

    def test_continuous_at_the_edge(self):
        # records that stay possible at p_a = 1: the likelihoods there are
        # the limits of those just inside
        rows = [(A, 5, 0, A, 5), (B, 5, 2, A, 8), (B, 0, 5, B, 5), (B, 5, 4, A, 10)]
        records = make_batch(*rows)
        # the same games with the players' names swapped, possible at p_b = 1
        swapped = make_batch(*((B if f is A else A, beta, alpha, B if w is A else A, d) for f, alpha, beta, w, d in rows))
        for call in (estimate.loglik_score, estimate.loglik_score_duration):
            for p in (1e-9, 0.5, 1.0 - 1e-9):
                edge, inside = call(records, 1.0, p), call(records, 1.0 - 1e-9, p)
                assert np.isfinite(edge) and edge == pytest.approx(inside, abs=1e-7), (call, p)
                assert call(swapped, p, 1.0) == pytest.approx(edge, rel=1e-14, abs=1e-14), (call, p)


class TestJointLikelihood:
    def test_minimum_duration_single_term(self):
        # D = alpha + beta means no interruptions are possible: shutout term
        n, p_a, p_b = 5, 0.6, 0.45
        got = estimate.loglik_score_duration(make_batch((A, n, 0, A, n)), p_a, p_b)
        assert got == pytest.approx(n * math.log(p_a), abs=1e-12)

    def test_matches_enumeration_joint(self):
        p_a, p_b = 0.6, 0.45
        outcomes, _ = enumerate_sideout(p_a, p_b, 3, server=A, tol=1e-16)
        rows = [(A, 3, 0, A, 3), (A, 3, 2, A, 9), (A, 1, 3, B, 7)]
        expected = sum(math.log(outcomes[(alpha, beta, last, d)]) for _, alpha, beta, last, d in rows)
        got = estimate.loglik_score_duration(make_batch(*rows), p_a, p_b)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_log_h_matches_exact_integers(self):
        # long durations (q near 1) give large m, where a difference of
        # lgamma values would lose ulps of lgamma(m)
        ms = [*range(12), 1_000, 100_000]
        for a in range(16):
            for b in range(16):
                for last in (A, B):
                    win, lose = (a, b) if last is A else (b, a)
                    if win <= lose:
                        continue
                    got = estimate._log_h(kernel.tallies([(a, b, last is A)]), ms)
                    for m, value in zip(ms, got):
                        exact = exact_h_count(a, b, last, m)
                        if exact == 0:
                            assert value == -math.inf
                        else:
                            assert value == pytest.approx(math.log(exact), rel=1e-14, abs=1e-14)

    def test_log_h_per_tally_equals_per_record_oracle(self):
        # one (records, j) array per tally gives each record the bits of its
        # own reduction, and the batch total (read from the cached blocks)
        # adds them in record order
        for n, (p_a, p_b) in [(5, (0.6, 0.5)), (15, (0.6, 0.5)), (21, (0.05, 0.05)), (15, (0.97, 0.3))]:
            records = simulated_records(p_a, p_b, n, 200, SeedSpec(132, n))
            rows, ms, total = [], [], 0.0
            for first, alpha, beta, last, d in record_rows(records):
                a, b = (beta, alpha) if first is B else (alpha, beta)
                server_last = last is first
                rows.append(kernel.tallies([(a, b, server_last)]))
                ms.append((d - a - b - (0 if server_last else 1)) // 2)
            want = np.array([log_h(t, m) for t, m in zip(rows, ms)])
            got = np.array([estimate._log_h(t, [m])[0] for t, m in zip(rows, ms)])
            assert np.array_equal(got, want)
            for t in {id(t): t for t in rows}.values():  # every record of a tally at once
                which = [i for i, u in enumerate(rows) if u is t]
                assert np.array_equal(estimate._log_h(t, np.array(ms)[which]), want[which])
            for value in want:
                total += value
            assert estimate._Likelihood(records, FitMode.SCORE_DURATION).log_h_total == total

    def test_long_record_fits_in_constant_memory(self, monkeypatch):
        # one game of 10^9 rallies: the exchange binomials are formed at the
        # few l its block's terms need, whatever the duration
        record = make_batch((A, 15, 7, A, 10**9))
        clear_caches()  # the fit computes its block
        tracemalloc.start()
        try:
            got = estimate.fit(record, FitMode.SCORE_DURATION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # the same fit with the block's entries from the per-record oracle
        calls = []

        def oracle(rows, m, tally):
            calls.append((len(rows.j0), len(m)))
            return np.array([log_h(rows, int(v)) for v in m])

        monkeypatch.setattr(estimate, "_log_h", oracle)
        estimate._log_h_cache.clear()
        try:
            assert got == estimate.fit(record, FitMode.SCORE_DURATION)
        finally:
            estimate._log_h_cache.clear()  # no oracle row outlives the patch
        assert calls == [(1, estimate._H_BLOCK)]

    def test_zero_probability_duration_names_the_record(self):
        # a server winning 5-2 must have lost the serve at least once
        records = make_batch((A, 5, 2, A, 9), (B, 2, 5, B, 7))
        with pytest.raises(InfeasibleData, match="record 1: duration 7 carries zero probability"):
            estimate.loglik_score_duration(records, 0.6, 0.5)

    def test_wrong_parity_infeasible(self):
        # first server A, A wins: the rally count must share the parity of
        # alpha + beta (the server-effect)
        with pytest.raises(InfeasibleData, match="parity or too short"):
            estimate.loglik_score_duration(make_batch((A, 5, 2, A, 8)), 0.6, 0.5)

    def test_too_short_infeasible(self):
        with pytest.raises(InfeasibleData):
            estimate.loglik_score_duration(make_batch((A, 5, 2, A, 5)), 0.6, 0.5)

    def test_missing_duration_infeasible(self):
        with pytest.raises(InfeasibleData, match="duration required"):
            estimate.loglik_score_duration(make_batch((A, 5, 2, A)), 0.6, 0.5)

    def test_b_game_swaps_roles(self):
        lik_b = estimate.loglik_score_duration(make_batch((B, 2, 5, B, 9)), 0.6, 0.45)
        lik_a = estimate.loglik_score_duration(make_batch((A, 5, 2, A, 9)), 0.45, 0.6)
        assert lik_b == pytest.approx(lik_a, abs=1e-12)


def _joint_argmax(records):
    """Analytic maximizer of the joint likelihood: the exponents of p_a,
    1-p_a, p_b, 1-p_b are separable, so each coordinate is a beta-style
    fraction; in the no-server model (p_b = 1 - p_a) the fraction pools
    both players.  Returns (p_a, p_b, p).  Counts the exponents from the
    records directly, independently of the estimator."""
    k_pa = k_qa = k_pb = k_qb = 0.0
    for first, alpha, beta, last, d in record_rows(records):
        delta = 1 if last is not first else 0
        m = (d - alpha - beta - delta) // 2
        k_pa += alpha
        k_pb += beta
        k_qa += m + (1 if (first is A and delta) else 0)
        k_qb += m + (1 if (first is B and delta) else 0)
    return k_pa / (k_pa + k_qa), k_pb / (k_pb + k_qb), (k_pa + k_qb) / (k_pa + k_qa + k_pb + k_qb)


class TestFit:
    def test_mode_given_as_its_string_value_is_a_domain_error(self):
        # the string once ran the score-only fit and was labelled "score-duration"
        with pytest.raises(DomainError, match="mode='score-duration' must be a FitMode"):
            estimate.fit(make_batch((A, 5, 3, A, 12)), "score-duration")

    def test_model_given_as_its_string_value_is_a_domain_error(self):
        # the string once fitted the no-server model
        with pytest.raises(DomainError, match="model='server' must be a FitModel"):
            estimate.fit(make_batch((A, 5, 3, A, 12)), model="server")

    @pytest.mark.parametrize(
        "call",
        [
            estimate.fit,
            lambda records: estimate.loglik_score(records, 0.6, 0.5),
            lambda records: estimate.loglik_score_duration(records, 0.6, 0.5),
            estimate.records_to_json_lines,
        ],
        ids=["fit", "loglik-score", "loglik-score-duration", "records-to-json-lines"],
    )
    @pytest.mark.parametrize("records", [None, [1, 2], [(True, 5, 3, True, 12.0)], []])
    def test_records_that_are_not_a_batch_are_a_domain_error(self, call, records):
        with pytest.raises(DomainError, match="must be a RecordBatch"):
            call(records)

    def test_recovers_truth_with_durations(self):
        records = simulated_records(0.6, 0.5, 15, 200, SeedSpec(100, 1))
        res = estimate.fit(records, FitMode.SCORE_DURATION, FitModel.SERVER)
        assert res.converged
        assert res.p_a == pytest.approx(0.6, abs=0.03)
        assert res.p_b == pytest.approx(0.5, abs=0.03)

    def test_score_only_recovers_truth(self):
        # score-only estimates are noisy (sd ~ .037 at m = 400), so this
        # consistency check needs a larger sample than the duration one
        records = simulated_records(0.6, 0.5, 15, 2000, SeedSpec(101, 2))
        res = estimate.fit(records, FitMode.SCORE_ONLY, FitModel.SERVER)
        assert res.p_a == pytest.approx(0.6, abs=0.03)
        assert res.p_b == pytest.approx(0.5, abs=0.03)

    def test_matches_analytic_joint_argmax(self):
        records = simulated_records(0.63, 0.41, 11, 60, SeedSpec(102, 3))
        res = estimate.fit(records, FitMode.SCORE_DURATION, FitModel.SERVER)
        pa_star, pb_star, p_star = _joint_argmax(records)
        assert res.p_a == pytest.approx(pa_star, abs=1e-12)
        assert res.p_b == pytest.approx(pb_star, abs=1e-12)
        res = estimate.fit(records, FitMode.SCORE_DURATION, FitModel.NO_SERVER)
        assert res.p == pytest.approx(p_star, abs=1e-12)
        assert res.p_b == pytest.approx(1 - p_star, abs=1e-12)

    def test_fits_leave_scipy_unloaded(self):
        # a fresh process: the test session itself has scipy loaded
        code = (
            "import sys\n"
            "from rallystats import GameConfig, RallyProbs, SeedSpec, estimate, simulate\n"
            "sample = simulate.sample_games(RallyProbs(0.6, 0.5), GameConfig(n=9, s_a=0.5), 40, SeedSpec(109, 9))\n"
            "records = estimate.records_from_sample(sample)\n"
            "for mode in estimate.FitMode:\n"
            "    for model in estimate.FitModel:\n"
            "        res = estimate.fit(records, mode, model)\n"
            "        assert res.converged and 0.0 < res.p_a < 1.0, res\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "[]"

    def test_no_server_model(self):
        records = simulated_records(0.58, 0.42, 15, 300, SeedSpec(103, 4))
        res = estimate.fit(records, FitMode.SCORE_DURATION, FitModel.NO_SERVER)
        assert res.p_a == pytest.approx(0.58, abs=0.03)
        assert res.p_b == pytest.approx(1 - res.p_a, abs=1e-12)

    def test_all_shutouts_pin_boundary(self):
        records = make_batch(*[(A, 15, 0, A, 15)] * 5)
        res = estimate.fit(records, FitMode.SCORE_DURATION, FitModel.SERVER)
        assert res.boundary
        assert res.p_a > 1 - 1e-6
        # B never serves, so the likelihood is flat in p_b
        assert res.p_b == 0.5

    def test_label_symmetry(self):
        records = simulated_records(0.6, 0.45, 9, 80, SeedSpec(104, 5))
        swapped = estimate.RecordBatch(
            ~records.first_server_a, records.beta, records.alpha, ~records.last_scorer_a, records.duration
        )
        res = estimate.fit(records, FitMode.SCORE_DURATION, FitModel.SERVER)
        res_swapped = estimate.fit(swapped, FitMode.SCORE_DURATION, FitModel.SERVER)
        assert res.p_a == pytest.approx(res_swapped.p_b, abs=1e-5)
        assert res.p_b == pytest.approx(res_swapped.p_a, abs=1e-5)

    @pytest.mark.parametrize("mode", [FitMode.SCORE_ONLY, FitMode.SCORE_DURATION])
    def test_likelihood_dominance_at_optimum(self, mode):
        lik = estimate.loglik_score if mode is FitMode.SCORE_ONLY else estimate.loglik_score_duration
        for seed in range(4):
            records = simulated_records(0.6, 0.5, 9, 50, SeedSpec(105, seed))
            res = estimate.fit(records, mode, FitModel.SERVER)
            assert res.log_likelihood >= lik(records, 0.6, 0.5) - 1e-9

    def test_ray_batch_ends_on_the_boundary(self):
        # the likelihood rises along a ray towards (0, 0); L-BFGS-B stopped
        # inside at -135.02029 and reported no boundary
        records = simulated_records(0.3, 0.2, 15, 50, SeedSpec(43, 0))
        res = estimate.fit(records, FitMode.SCORE_ONLY, FitModel.SERVER)
        assert res.boundary
        assert res.log_likelihood >= -135.01836
        assert min(res.p_a, res.p_b) == pytest.approx(1e-9, rel=1e-12)

    def test_two_maxima_batch_reaches_the_interior_optimum(self):
        # Newton started at (.5, .5) climbs a ray to (0, 0) and stops at
        # -455.2; the interior maximum is higher
        records = simulated_records(0.5, 0.9, 15, 200, SeedSpec(77, 200))
        res = estimate.fit(records, FitMode.SCORE_ONLY, FitModel.SERVER)
        p_a, p_b, ll = multistart_score_fit(records)
        assert not res.boundary
        assert res.log_likelihood == pytest.approx(ll, abs=1e-9)
        assert (res.p_a, res.p_b) == pytest.approx((0.4962, 0.8944), abs=1e-4)

    def test_score_only_matches_multistart_oracle(self):
        # 120 batches of 1 to 200 games, both models: the Newton fit is
        # never worse than L-BFGS-B, stationary where it is interior, and
        # equal to it where both are accurate
        worst_gap = worst_score = 0.0
        for p_a, p_b in [(0.05, 0.05), (0.2, 0.6), (0.6, 0.5), (0.9, 0.1), (0.5, 0.9), (0.99, 0.98)]:
            for games in (1, 5, 20, 50, 200):
                for seed in range(4):
                    records = simulated_records(p_a, p_b, 15, games, SeedSpec(120 + seed, games))
                    lik = estimate._Likelihood(records, FitMode.SCORE_ONLY)
                    for model in FitModel:
                        res = estimate.fit(records, FitMode.SCORE_ONLY, model)
                        ref = multistart_score_fit(records, model is FitModel.SERVER)
                        worst_gap = max(worst_gap, ref[2] - res.log_likelihood)
                        x = np.array([res.p_a, res.p_b][: 2 if model is FitModel.SERVER else 1])
                        _, mean, var = lik.e_step(res.p_a, res.p_b)
                        score = estimate._score_information(lik.k, x, mean, var, model)[0]
                        if not res.boundary:
                            worst_score = max(worst_score, float(np.abs(score).max()))
                        if (p_a, p_b, games) == (0.6, 0.5, 200):
                            assert (res.p_a, res.p_b) == pytest.approx(ref[:2], abs=1e-6)
        assert worst_gap <= 1e-9
        assert worst_score <= 1e-6

    @pytest.mark.parametrize("model", list(FitModel))
    @pytest.mark.parametrize("n", [5, 15, 21])
    def test_fit_matches_fit_on_per_server_oracle(self, monkeypatch, n, model):
        # the same Newton path on the old E-step: same estimates and steps
        for seed, truth in enumerate([(0.6, 0.5), (0.3, 0.2), (0.5, 0.9)]):
            records = simulated_records(*truth, n, 200, SeedSpec(133 + seed, n))
            res = estimate.fit(records, FitMode.SCORE_ONLY, model)
            ref_e_step = per_server_e_step(records)
            with monkeypatch.context() as m:
                m.setattr(estimate._Likelihood, "e_step", lambda self, p_a, p_b: [v[0] for v in ref_e_step(p_a, p_b)])
                m.setattr(estimate._Likelihood, "grid_e_step", lambda self, model: ref_e_step(*start_grid_probs(model)))
                ref = estimate.fit(records, FitMode.SCORE_ONLY, model)
            assert (res.p_a, res.p_b) == pytest.approx((ref.p_a, ref.p_b), abs=1e-10)
            assert res.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-13)
            assert res.newton_steps == ref.newton_steps
            assert res.evaluations == ref.evaluations
            assert res.boundary == ref.boundary

    @pytest.mark.parametrize("model", list(FitModel))
    def test_fit_reports_steps_and_evaluations(self, monkeypatch, model):
        records = simulated_records(0.6, 0.5, 15, 200, SeedSpec(134, 0))
        res = estimate.fit(records, FitMode.SCORE_DURATION, model)
        assert (res.newton_steps, res.evaluations) == (0, 1)
        points = []
        e_step, grid_e_step = estimate._Likelihood.e_step, estimate._Likelihood.grid_e_step

        def counting(self, p_a, p_b):
            points.append(np.size(p_a))
            return e_step(self, p_a, p_b)

        def counting_grid(self, model):
            out = grid_e_step(self, model)
            points.append(out[0].size)
            return out

        monkeypatch.setattr(estimate._Likelihood, "e_step", counting)
        monkeypatch.setattr(estimate._Likelihood, "grid_e_step", counting_grid)
        res = estimate.fit(records, FitMode.SCORE_ONLY, model)
        assert points[0] == (289 if model is FitModel.SERVER else 17)
        assert res.evaluations == sum(points)
        assert 1 <= res.newton_steps <= len(points) - 1
        # the reported log-likelihood is the last accepted point's, not a re-evaluation
        assert res.log_likelihood == estimate.loglik_score(records, res.p_a, res.p_b)

    def test_duration_information_shrinks_mse(self):
        # the duration-augmented estimator beats the score-only one in
        # empirical MSE for both coordinates (m = 10 games per replication)
        truth = (0.6, 0.5)
        reps = 500
        err = {FitMode.SCORE_ONLY: [], FitMode.SCORE_DURATION: []}
        for i in range(reps):
            records = simulated_records(*truth, 15, 10, SeedSpec(9_000, i))
            for mode in err:
                res = estimate.fit(records, mode, FitModel.SERVER)
                err[mode].append((res.p_a - truth[0], res.p_b - truth[1]))
        mse = {m: np.mean(np.array(v) ** 2, axis=0) for m, v in err.items()}
        assert mse[FitMode.SCORE_DURATION][0] < mse[FitMode.SCORE_ONLY][0]
        assert mse[FitMode.SCORE_DURATION][1] < mse[FitMode.SCORE_ONLY][1]


class TestNewtonAgainstReference:
    """The closed-form Newton on floats against the numpy form it replaced
    (`oracles.reference_newton`): 315 seeded score-only batches, games to
    n in {3, 5, 9, 15, 21}, 5, 20 or 200 games, s_a in {0, .5, 1}, each
    fitted in both models."""

    @staticmethod
    def corpus():
        for n in (3, 5, 9, 15, 21):
            for games in (5, 20, 200):
                for s_a in (0.0, 0.5, 1.0):
                    for seed in range(7):
                        rng = np.random.default_rng([n, games, int(2 * s_a), seed])
                        p_a, p_b = (float(v) for v in rng.uniform(0.02, 0.98, 2))
                        yield simulated_records(p_a, p_b, n, games, SeedSpec(150, seed), s_a)

    def test_fits_equal_the_reference(self, monkeypatch):
        fits = 0
        for records in self.corpus():
            lik = estimate._Likelihood(records, FitMode.SCORE_ONLY)
            for model in FitModel:
                got = estimate.fit(records, FitMode.SCORE_ONLY, model)
                with monkeypatch.context() as m:
                    m.setattr(estimate, "_newton", reference_newton)
                    want = estimate.fit(records, FitMode.SCORE_ONLY, model)
                case = (records, model, got, want)
                assert (got.newton_steps, got.evaluations, got.boundary) == (
                    want.newton_steps, want.evaluations, want.boundary), case
                # the halving search resolves gains to _GAIN_TOL (1 + |ll|); a
                # pure relative bound is void where ray fits end at ll ~ -6e-14
                assert abs(got.log_likelihood - want.log_likelihood) <= 1e-14 * (1.0 + abs(want.log_likelihood)), case
                # the same score and information at the reference's estimate, to the bit
                x = np.array([want.p_a, want.p_b][: 2 if model is FitModel.SERVER else 1])
                _, mean, var = lik.e_step(*estimate._probs(x, model))
                score, info = estimate._score_information(lik.k, x.tolist(), float(mean), float(var), model)
                ref_score, ref_info = reference_score_information(lik.k, x, mean, var, model)
                assert np.array_equal(score, ref_score) and np.array_equal(info, ref_info), case
                if all(1e-6 <= v <= 1.0 - 1e-6 for v in (want.p_a, want.p_b)):
                    # rounding of the score moves the maximizer along the
                    # information's weakest direction as 1/lambda: 1e-12 down
                    # to lambda = 1e-3, proportionally more below it
                    low = np.linalg.eigvalsh(ref_info)[0]
                    tol = 1e-12 * max(1.0, 1e-3 / low)
                else:
                    tol = estimate._PARAM_TOL
                assert max(abs(got.p_a - want.p_a), abs(got.p_b - want.p_b)) <= tol, case
                fits += 1
        assert fits == 630

    def test_step_equals_the_reference_solve(self):
        # the closed-form 2 x 2 and 1 x 1 solves, shifts included, against
        # `np.linalg.solve` on the shifted block, to within its condition
        # number times rounding
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a, d = rng.uniform(-1.0, 5.0, 2) * 10.0 ** rng.integers(-6, 3, 2)
            b = rng.uniform(-1.0, 1.0) * math.sqrt(abs(a * d)) * rng.choice([0.5, 1.0, 1.5])
            score = rng.normal(size=2)
            info = ((a, b), (b, d))
            for free in ([True, True], [True, False], [False, True], [False, False]):
                got = estimate._newton_step(tuple(score), info, free)
                idx = np.flatnonzero(free)
                h = np.array(info)[np.ix_(idx, idx)]
                if idx.size:
                    floor, low = 1e-12 * (1.0 + np.trace(h)), np.linalg.eigvalsh(h)[0]
                    if low < floor:
                        h = h + (floor - 2.0 * min(low, 0.0)) * np.eye(len(h))
                want = np.zeros(2)
                if idx.size:
                    want[idx] = np.linalg.solve(h, score[idx])
                    cond = np.linalg.cond(h)
                    assert np.abs(np.subtract(got, want)).max() <= 1e-14 * cond * np.abs(want).max(), (info, free)
                else:
                    assert got == [0.0, 0.0]


class TestRecordsIO:
    def test_round_trip(self):
        records = simulated_records(0.6, 0.5, 9, 25, SeedSpec(106, 6))
        text = estimate.records_to_json_lines(records)
        back = estimate.records_from_json_lines(text.splitlines())
        assert_same_records(back, records)

    def test_optional_duration(self):
        r = make_batch((A, 9, 3, A))
        back = estimate.records_from_json_lines([estimate.records_to_json_lines(r).strip()])
        assert np.isnan(back.duration[0])

    def test_lines_written_for_both_first_servers_and_a_missing_duration(self):
        records = make_batch((B, 2, 9, B, 30), (A, 9, 0, A), (B, 9, 7, A, 25))
        text = estimate.records_to_json_lines(records)
        assert text == (
            '{"alpha": 2, "beta": 9, "duration": 30, "first_server": "B", "last_scorer": "B"}\n'
            '{"alpha": 9, "beta": 0, "first_server": "A", "last_scorer": "A"}\n'
            '{"alpha": 9, "beta": 7, "duration": 25, "first_server": "B", "last_scorer": "A"}\n'
        )
        assert_same_records(estimate.records_from_json_lines(text.splitlines()), records)

    def test_parse_error_names_record(self):
        with pytest.raises(InfeasibleData, match="record 1"):
            estimate.records_from_json_lines(['{"first_server": "A", "alpha": 3, "beta": 0, "last_scorer": "A"}', "{bad"])

    def test_text_that_is_not_utf8_says_where_reading_stopped(self):
        good = b'{"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A"}\n'

        def lines_read(data):
            with pytest.raises(InfeasibleData, match="not utf-8 text") as err:
                estimate.records_from_json_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            return int(re.match(r"reading stopped after (\d+) lines", str(err.value))[1])

        assert lines_read(good + b"\xff\n") == 0
        # a text file decodes a block at a time: 300 lines fill more than
        # one, and reading stops after the lines of the blocks before the bad byte
        assert 0 < lines_read(300 * good + b"caf\xe9\n") < 300

    def test_lines_parse_into_a_batch(self):
        # blank lines are skipped and not counted: a record is named by its
        # place in the batch, as the fit names it
        lines = ["", '{"first_server": "B", "alpha": 2, "beta": 9, "last_scorer": "B", "duration": 30}', "  ",
                 '{"first_server": "A", "alpha": 9, "beta": 0, "last_scorer": "A"}']
        batch = estimate.records_from_json_lines(lines)
        assert isinstance(batch, estimate.RecordBatch)
        assert_same_records(batch, make_batch((B, 2, 9, B, 30), (A, 9, 0, A)))
        assert np.isnan(batch.duration[1])
        assert len(estimate.records_from_json_lines(["", " "])) == 0
        with pytest.raises(InfeasibleData, match=r"^record 2: cannot parse"):
            estimate.records_from_json_lines([*lines, "", "{bad"])

    @pytest.mark.parametrize("alpha, beta, last", [(-1, 3, "B"), (0, 4, "A"), (4, 0, "B"), (0, 3, "A")])
    def test_bad_score_named_as_terminal_score_names_it(self, alpha, beta, last):
        with pytest.raises(DomainError) as want:
            TerminalScore(alpha, beta, Player(last))
        line = json.dumps({"first_server": "A", "alpha": alpha, "beta": beta, "last_scorer": last})
        with pytest.raises(InfeasibleData) as got:
            estimate.records_from_json_lines(["", line])
        assert str(got.value) == f"record 0: cannot parse ({want.value})"
        # a record batch checks its scores as this terminal score: the same error
        with pytest.raises(DomainError) as batch:
            make_batch((A, alpha, beta, Player(last)))
        assert str(batch.value) == f"record 0: {want.value}"

    @pytest.mark.parametrize("field, value", [("alpha", 15.9), ("beta", "3"), ("duration", 40.5), ("alpha", True)])
    def test_non_integral_count_rejected(self, field, value):
        d = {"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A", "duration": 40, field: value}
        with pytest.raises(InfeasibleData, match=f"record 0: .*{field}"):
            estimate.records_from_json_lines([json.dumps(d)])

    @pytest.mark.parametrize("field, value", [("alpha", 2**63), ("beta", -(2**63) - 1), ("alpha", 1e30)])
    def test_count_beyond_int64_rejected(self, field, value):
        d = {"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A", field: value}
        with pytest.raises(InfeasibleData, match=f"record 0: .*{field}=.* is out of range"):
            estimate.records_from_json_lines([json.dumps(d)])

    @pytest.mark.parametrize("value", [2**60 + 1, 2**53 + 1, -(2**53) - 1, 2.0**60])
    def test_duration_beyond_2_53_rejected(self, value):
        # a float column would round 2^60 + 1 (odd, so infeasible for a 15-7
        # game) to 2^60 (feasible), and the fit would take it
        d = {"first_server": "A", "alpha": 15, "beta": 7, "last_scorer": "A", "duration": value}
        with pytest.raises(InfeasibleData, match=r"^record 1: cannot parse \(duration=.* is out of range\)$"):
            estimate.records_from_json_lines(['{"first_server": "A", "alpha": 15, "beta": 7, "last_scorer": "A", "duration": 23}', json.dumps(d)])

    def test_duration_of_2_53_accepted_and_written_back(self):
        lines = [json.dumps({"alpha": 15, "beta": 7, "duration": d, "first_server": "A", "last_scorer": "A"}, sort_keys=True) + "\n"
                 for d in (2**53, 2**53 - 2, 22)]
        batch = estimate.records_from_json_lines(lines)
        assert batch.duration.tolist() == [2.0**53, 2.0**53 - 2, 22.0]
        assert estimate.records_to_json_lines(batch) == "".join(lines)

    def test_integral_float_count_accepted(self):
        line = '{"first_server": "A", "alpha": 15.0, "beta": 3, "last_scorer": "A", "duration": 40}'
        assert estimate.records_from_json_lines([line]).alpha[0] == 15

    @pytest.mark.parametrize(
        "line",
        [
            '{"first_server": "A", "alpha": null, "beta": 3, "last_scorer": "A"}',
            '{"first_server": null, "alpha": 15, "beta": 3, "last_scorer": "A"}',
            "[15, 3]",
            "7",
            "null",
        ],
    )
    def test_null_field_or_non_object_rejected(self, line):
        good = '{"first_server": "A", "alpha": 15, "beta": 3, "last_scorer": "A"}'
        with pytest.raises(InfeasibleData, match="record 1"):
            estimate.records_from_json_lines([good, line])


def record_oracle_fit(records, mode, model):
    """`estimate.fit` on the per-record likelihood of a record batch."""
    saved = estimate._Likelihood
    estimate._Likelihood = RecordLikelihood
    try:
        return estimate.fit(records, mode, model)
    finally:
        estimate._Likelihood = saved


def random_batch(seed):
    """A seeded batch of 1 to 200 games to 5..21, some with a tie-break."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([5, 9, 15, 21]))
    tiebreak = int(rng.choice([2, 3])) if n > 5 and rng.random() < 0.25 else None
    config = GameConfig(n=n, s_a=float(rng.uniform(0.2, 0.8)), tiebreak=tiebreak)
    probs = RallyProbs(*(float(v) for v in rng.uniform(0.05, 0.95, 2)))
    games = int(rng.choice([1, 7, 50, 200]))
    return estimate.records_from_sample(simulate.sample_games(probs, config, games, SeedSpec(140, seed)))


class TestRecordBatch:
    def test_from_sample_column_for_column(self):
        sample = simulate.sample_games(RallyProbs(0.6, 0.5), GameConfig(n=9, s_a=0.5), 30, SeedSpec(141, 0))
        batch = estimate.records_from_sample(sample)
        assert isinstance(batch, estimate.RecordBatch) and len(batch) == 30
        for name, col in [("first_server_a", sample.first_server_a), ("alpha", sample.alpha), ("beta", sample.beta),
                          ("last_scorer_a", sample.winner_a), ("duration", sample.duration)]:
            assert np.array_equal(getattr(batch, name), col)
            assert not getattr(batch, name).flags.writeable
        assert sample.alpha.flags.writeable  # the sample's own arrays keep their flags
        with pytest.raises(ValueError):
            batch.alpha[0] = 3

    def test_columns_are_copies(self):
        # writes to the arrays a batch was made from, after its checks,
        # reach neither the batch nor its fits: a score it refuses and a
        # rally count past 2^53
        cols = [np.array(c) for c in ([True, False], [9, 3], [3, 9], [True, False], [20.0, 22.0])]
        batch = estimate.RecordBatch(*cols)
        fits = [estimate.fit(batch, mode) for mode in FitMode]
        cols[1][0], cols[4][1] = -7, 2.0**60
        assert (batch.alpha.tolist(), batch.duration.tolist()) == ([9, 3], [20.0, 22.0])
        assert not any(np.shares_memory(getattr(batch, name), col) for name, col in zip(COLUMNS, cols))
        fresh = make_batch((A, 9, 3, A, 20), (B, 3, 9, B, 22))
        assert [estimate.fit(batch, mode) for mode in FitMode] == fits == [estimate.fit(fresh, mode) for mode in FitMode]

    def test_reduction_is_shared_by_both_modes(self):
        # a batch is reduced once, and a score-only fit and then a
        # score-and-duration fit on it give the bits of each on a fresh copy
        for seed in range(84, 90):
            batch = random_batch(seed)
            for model in FitModel:
                got = [estimate.fit(batch, mode, model) for mode in FitMode]
                copies = [estimate.RecordBatch(*(getattr(batch, name) for name in COLUMNS)) for _ in FitMode]
                assert got == [estimate.fit(copy, mode, model) for copy, mode in zip(copies, FitMode)], (seed, model)
            assert batch._reduced is batch._reduced

    def test_ratio_exact_past_2_to_53(self):
        # three games of nearly 2^53 rallies: the pooled counts of the
        # no-server fit pass 2^53, where floats would be rounded before the
        # division; int / int rounds the ratio once
        rows = [(A, 15, 7, A, 2**53 - 40), (B, 7, 15, B, 2**53 - 40), (A, 15, 3, A, 2**53 - 38)]
        k_pa = k_qa = k_pb = k_qb = 0
        for first, alpha, beta, last, d in rows:
            delta = int(last is not first)
            m = (d - alpha - beta - delta) // 2
            k_pa, k_pb = k_pa + alpha, k_pb + beta
            k_qa, k_qb = k_qa + m + (first is A) * delta, k_qb + m + (first is B) * delta
        won, served = k_pa + k_qb, k_pa + k_qa + k_pb + k_qb
        want = float(Fraction(won, served))
        assert won > 2**53 and want != float(won) / float(served)  # the rounded counts give another double
        got = estimate.fit(make_batch(*[(f, a, b, last, float(d)) for f, a, b, last, d in rows]), FitMode.SCORE_DURATION, FitModel.NO_SERVER)
        assert (got.p_a, got.p_b) == (want, 1.0 - want)

    def test_json_round_trip(self):
        batch = simulated_records(0.6, 0.5, 9, 25, SeedSpec(141, 3))
        text = estimate.records_to_json_lines(batch)
        back = estimate.records_from_json_lines(text.splitlines())
        assert_same_records(back, batch)

    def test_out_of_range_duration_is_refused_before_a_fit(self):
        # such a count would wrap in the int64 extra pairs and give a silent p = (.5, .5)
        with pytest.raises(DomainError, match=r"^record 1: duration 1e\+20 is out of range"):
            make_batch((A, 15, 7, A, 41), (A, 15, 7, A, 1e20))
        # 2^53 + 2 is a double, but the column holds the counts below it
        # with gaps: refused, as the JSON reader refuses 2^53 + 1
        with pytest.raises(DomainError, match=r"^record 0: duration 9007199254740994\.0 is out of range"):
            make_batch((A, 15, 7, A, 2.0**53 + 2), (A, 15, 7, A, 41))
        # the largest count taken fits: both players lose nearly every
        # rally, so the estimate is the box's corner
        got = estimate.fit(make_batch((A, 15, 7, A, 2.0**53)), FitMode.SCORE_DURATION)
        assert np.isfinite(got.log_likelihood) and (got.p_a, got.p_b, got.boundary) == (1e-9, 1e-9, True)
        # 4096 such games hold more extra rally pairs than an int64 counts
        # (4096 * (2^52 - 11) > 2^63), and they are summed exactly
        many = make_batch(*[(A, 15, 7, A, 2.0**53)] * 4096)
        one = estimate._Likelihood(make_batch((A, 15, 7, A, 2.0**53)), FitMode.SCORE_DURATION).m
        total = estimate._Likelihood(many, FitMode.SCORE_DURATION).m
        assert one == 2**52 - 11 and total == 4096 * one and total > 2**63
        assert estimate.fit(many, FitMode.SCORE_DURATION).log_likelihood == pytest.approx(4096 * got.log_likelihood, rel=1e-12)

    def test_missing_durations(self):
        batch = make_batch((A, 9, 3, A, 20), (B, 4, 9, B), (B, 9, 7, A, 25))
        assert np.isnan(batch.duration[1])
        text = estimate.records_to_json_lines(batch)
        assert "duration" not in text.splitlines()[1]
        assert estimate.fit(batch, FitMode.SCORE_ONLY).converged
        with pytest.raises(InfeasibleData, match="^record 1: duration required"):
            estimate.fit(batch, FitMode.SCORE_DURATION)

    @pytest.mark.parametrize(
        "columns, match",
        [
            (([True, True], [9, 3], [3, 9], [True, False], [20.0, 21.0]), None),
            (([True, True], [9, -1], [3, 9], [True, False], [20, 21]), "record 1: negative score"),
            (([True, True], [9, 3], [3, 0], [True, False], [20, 21]), "record 1: last scorer B requires beta >= 1"),
            (([True, True], [9, 3], [3, 9], [True, False], [20, 21.5]), "record 1: duration 21.5 is not a whole"),
            (([True, True], [9, 3], [3, 9], [True, False], [np.inf, 21]), "record 0: duration inf is out of range"),
            # beyond the whole numbers the float column holds exactly
            (([True, True], [9, 3], [3, 9], [True, False], [20, 1e20]), r"record 1: duration 1e\+20 is out of range"),
            (([True, True], [9, 3], [3, 9], [True, False], [20, 2.0**53 + 2]), "record 1: duration .* is out of range"),
            (([True, True], [9, 3], [3, 9], [True, False], [-(2.0**53) - 2, 21]), "record 0: duration .* is out of range"),
            (([True, True], [9, 3], [3, 9], [True, False], [2.0**53, -(2.0**53)]), None),
            (([True, True], [9, 3], [3, 9], [True, False], [2.0**63, 21]), "record 0: duration .* is out of range"),
            (([True, True], [9, 3], [3, 9], [True, False], [20, -1e20]), "record 1: duration .* is out of range"),
            (([True, True], [9.0, 3], [3, 9], [True, False], [20, 21]), "alpha must be"),
            (([True], [9, 3], [3, 9], [True, False], [20, 21]), "unequal lengths"),
        ],
    )
    def test_columns_checked(self, columns, match):
        if match is None:
            assert len(estimate.RecordBatch(*(np.array(c) for c in columns))) == 2
            return
        with pytest.raises(DomainError, match=match):
            estimate.RecordBatch(*(np.array(c) for c in columns))


class TestBatchAgainstRecordOracle:
    def test_fits_equal_the_record_oracle(self):
        # 40 seeded batches, both modes and both models: the column set-up,
        # the grid cache and log H over all records at once give the
        # per-record likelihood's fits to the last bit
        for seed in range(40):
            batch = random_batch(seed)
            for mode in FitMode:
                for model in FitModel:
                    assert estimate.fit(batch, mode, model) == record_oracle_fit(batch, mode, model), (seed, mode, model)

    def test_likelihoods_equal_the_record_oracle(self):
        for seed in range(40, 50):
            batch = random_batch(seed)
            for mode in FitMode:
                lik, ref = estimate._Likelihood(batch, mode), RecordLikelihood(batch, mode)
                assert list(lik.k) == ref.k
                for p_a, p_b in [(0.6, 0.5), (1e-9, 0.3), (0.97, 1 - 1e-9)]:
                    assert lik(p_a, p_b) == ref(p_a, p_b)
                if mode is FitMode.SCORE_DURATION:
                    assert (lik.m, lik.log_h_total) == (ref.m, ref.log_h_total)

    @pytest.mark.parametrize(
        "records",
        [
            [(A, 5, 2, A, 9), (A, 5, 2, A, 8)],  # wrong parity
            [(A, 5, 2, A, 9), (B, 2, 5, B, 5)],  # too short
            [(A, 5, 2, A, 9), (B, 5, 2, B, -3)],  # negative, and the last scorer trails
            [(A, 5, 2, A, 9), (A, 2, 5, A, 9)],  # the last scorer trails
            [(A, 5, 2, A, 9), (B, 3, 3, B, 9)],  # a tie is not a completed game
            [(A, 5, 2, A, 9), (A, 5, 2, A), (A, 5, 2, A, 8)],  # no duration
            [(A, 5, 2, A, 9), (B, 2, 5, B, 7), (A, 5, 2, A, 8)],  # zero probability first
            [(A, 5, 2, A, 9)] * 3 + [(B, 2, 5, B, 8), (A, 2, 5, A, 9)],
        ],
    )
    def test_infeasible_data_names_the_first_record(self, records):
        records = make_batch(*records)
        for mode in FitMode:
            try:
                RecordLikelihood(records, mode)
            except InfeasibleData as exc:
                want = str(exc)
            else:
                want = None
            if want is None:
                estimate._Likelihood(records, mode)
                continue
            assert want.startswith("record ")
            with pytest.raises(InfeasibleData) as info:
                estimate._Likelihood(records, mode)
            assert str(info.value) == want

    def test_no_records(self):
        empty = make_batch()
        assert len(empty) == 0
        with pytest.raises(InfeasibleData, match="no records"):
            estimate.fit(empty, FitMode.SCORE_ONLY)


def fresh_process_output(code):
    """Stdout of `code` run in a new interpreter on this test's path."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout.strip()


def run_threads(run, count):
    """Run run(k) for k < count in threads that switch often, and their results."""
    results, interval = {}, sys.getswitchinterval()

    def call(k):
        try:
            results[k] = run(k)
        except Exception as exc:  # raised again below
            results[k] = exc

    threads = [threading.Thread(target=call, args=(k,)) for k in range(count)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == count
    for got in results.values():
        if isinstance(got, Exception):
            raise got
    return results


def mixed_tallies():
    """The distinct tallies of batches to 5..21, some with a tie-break, in
    first-seen order: rows of many widths, both j0 and both last scorers."""
    return list(dict.fromkeys(t for seed in (60, 61, 62, 66) for t in random_batch(seed)._reduced.tallies))


class TestStartGridCache:
    def test_cached_rows_equal_one_kernel_call(self):
        # rows filled in three batches (all misses, some, none) against one
        # kernel call over every tally, bit for bit
        estimate._tallies.clear()
        batches = [random_batch(seed) for seed in (60, 61, 62, 60)]
        for model in FitModel:
            seen = {}
            for batch in batches:
                lik = estimate._Likelihood(batch, FitMode.SCORE_ONLY)
                seen.update(dict.fromkeys(lik.tallies))
                lik.grid_e_step(model)
            grid = estimate._start_grid(model)
            tallies = list(seen)
            want = np.stack(kernel.interruption_polynomial(kernel.tallies(tallies), grid.q), axis=1)
            assert np.array_equal(np.stack([e.grid[model.value] for e in estimate._tallies.get(tallies)]), want)
        assert len(estimate._tallies) == len(tallies)  # one entry per tally, with both models' rows

    def test_batched_fill_equals_tally_by_tally_fills(self):
        # entries and start-grid rows filled by one kernel call each equal
        # those filled one tally at a time, and the rows assembled from the
        # entries equal `kernel.tallies`, padding and dtypes included
        tallies = mixed_tallies()
        batched = estimate._tally_entries(tallies)
        alone = [estimate._tally_entries([t])[0] for t in tallies]
        for model in FitModel:
            got = estimate._grid_rows(batched, model)
            assert np.array_equal(got, np.concatenate([estimate._grid_rows([e], model) for e in alone]))
        for e, f in zip(batched, alone):
            assert e.head == f.head and np.array_equal(e.logc, f.logc) and e.logc.size == e.head[4] - e.head[3] + 1
        for entries in (batched, batched[::-1]):
            rows, want = estimate._rows(entries), kernel.tallies([e.head[:3] for e in entries])
            for name in ("alpha", "beta", "server_last", "j0", "top", "logc"):
                np.testing.assert_array_equal(getattr(rows, name), getattr(want, name), strict=True)

    @pytest.mark.parametrize("model", list(FitModel))
    def test_grid_e_step_equals_e_step_on_the_grid(self, model):
        for seed in (63, 64):
            lik = estimate._Likelihood(random_batch(seed), FitMode.SCORE_ONLY)
            want = [lik.e_step(float(a), float(b)) for a, b in zip(*start_grid_probs(model))]
            for got, want in zip(lik.grid_e_step(model), np.array(want).T):
                assert np.array_equal(got, want)

    def test_cold_and_warm_fits_equal(self, monkeypatch):
        batches = [random_batch(seed) for seed in range(65, 71)]
        for model in FitModel:
            cold = []
            for batch in batches:
                estimate._tallies.clear()
                cold.append(estimate.fit(batch, FitMode.SCORE_ONLY, model))
            warm = [estimate.fit(batch, FitMode.SCORE_ONLY, model) for batch in batches]
            # a cache of 8 tallies evicts most of a batch's entries while it fits
            monkeypatch.setattr(estimate, "_tallies", estimate._Cache(8, estimate._tally_entries))
            small = [estimate.fit(batch, FitMode.SCORE_ONLY, model) for batch in batches]
            assert len(estimate._tallies) <= 8
            monkeypatch.undo()
            assert cold == warm == small

    def test_concurrent_fits_equal_serial_ones(self, monkeypatch):
        # four threads that fill and evict a small cache, and fill the
        # start-grid rows of shared entries, while switching often; an
        # entry evicted under a call would change its fit
        batches = [simulated_records(0.6, 0.5, n, 40, SeedSpec(153, n)) for n in range(7, 22)]
        serial = [estimate.fit(b, FitMode.SCORE_ONLY, model) for b in batches for model in FitModel]
        monkeypatch.setattr(estimate, "_tallies", estimate._Cache(40, estimate._tally_entries))

        def run(k):
            return [estimate.fit(batches[(k + i) % len(batches)], FitMode.SCORE_ONLY, model) for i in range(30) for model in FitModel]

        for k, got in run_threads(run, 4).items():
            assert got == [serial[2 * ((k + i) % len(batches)) + j] for i in range(30) for j in range(2)]

    def test_cached_arrays_are_read_only(self):
        batch = random_batch(72)
        estimate.fit(batch, FitMode.SCORE_ONLY)
        grid = estimate._start_grid(FitModel.SERVER)
        entries = estimate._tallies.get(batch._reduced.tallies)
        rows = [e.grid[FitModel.SERVER.value] for e in entries] + [e.logc for e in entries]
        arrays = [grid.theta, grid.q, grid.where, *grid.bases, *rows]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            rows[0][0, 0] = 0.0

    def test_cache_empty_after_import(self):
        # a fresh process: nothing is evaluated at import
        code = (
            "import rallystats\nfrom rallystats import estimate\n"
            "print(estimate._start_grid.cache_info().currsize, len(estimate._tallies), len(estimate._log_h_cache))\n"
        )
        assert fresh_process_output(code) == "0 0 0"


# m on both sides of the block edges, and far out
BLOCK_EDGE_M = [0, 1, 62, 63, 64, 65, 127, 128, 129, 10**9]


def long_batches():
    """Batches whose extra rally pairs cross several blocks of log H(m)."""
    return [simulated_records(p, p, n, 60, SeedSpec(154, n)) for p, n in [(0.05, 15), (0.1, 5), (0.03, 21)]]


def log_h_block(tally, block):
    """The cached row of log H(m) of a tally and a block."""
    return estimate._log_h_cache.get([(*tally, block)])[0]


class TestLogHBlockCache:
    def test_block_entries_equal_batched_log_h_and_oracle(self):
        estimate._log_h_cache.clear()
        tallies = [(15, 7, True), (7, 15, False), (15, 0, True), (0, 15, False), (21, 20, True), (3, 5, False)]
        for tally in tallies:
            rows = kernel.tallies([tally])
            batched = estimate._log_h(rows, np.array(BLOCK_EDGE_M))
            for m, value in zip(BLOCK_EDGE_M, batched):
                block = log_h_block(tally, m // estimate._H_BLOCK)
                assert block.shape == (estimate._H_BLOCK,) and not block.flags.writeable
                assert same_bits(block[m % estimate._H_BLOCK], value), (tally, m)
                assert same_bits(value, log_h(rows, m)), (tally, m)
        # the set-up reads each record's entry and adds them in record order
        for batch in long_batches():
            rows = record_rows(batch)
            want = 0.0
            for first, alpha, beta, last, d in rows:
                a, b = (beta, alpha) if first is B else (alpha, beta)
                want += log_h(kernel.tallies([(a, b, last is first)]), (d - a - b - (last is not first)) // 2)
            assert same_bits(estimate._Likelihood(batch, FitMode.SCORE_DURATION).log_h_total, want)

    @pytest.mark.parametrize("fill", [None, 1])
    def test_batched_fill_equals_tally_by_tally_fills(self, fill, monkeypatch):
        # one `_log_h` over the blocks of many tallies (of both j0, many
        # tops and points totals, the first of j0 = 0 and then of j0 = 1)
        # gives each block the bits of its tally's own call, and of the
        # oracle; also split into calls of one block each
        if fill is not None:
            monkeypatch.setattr(estimate, "_FILL", fill)
        tallies = [(7, 15, False), (15, 7, True), *mixed_tallies(), (21, 20, True), (15, 0, True)]
        pairs = [(*t, b) for i, t in enumerate(dict.fromkeys(tallies)) for b in ({0, i % 3, 10**9 // estimate._H_BLOCK} if i % 4 else {0})]
        got = estimate._log_h_blocks(pairs)
        assert len(got) == len(pairs)
        for pair, row in zip(pairs, got):
            m = pair[3] * estimate._H_BLOCK + np.arange(estimate._H_BLOCK)
            rows = kernel.tallies([pair[:3]])
            assert np.array_equal(row, estimate._log_h(rows, m)), pair
            assert np.array_equal(row, estimate._log_h_blocks([pair])[0]), pair
            if pair[3] == 0:
                assert np.array_equal(row[:12], [log_h(rows, v) for v in range(12)]), pair

    def test_cold_warm_and_small_cache_fits_equal(self, monkeypatch):
        batches = [random_batch(seed) for seed in range(76, 80)] + long_batches()
        for model in FitModel:
            cold = []
            for batch in batches:
                clear_caches()
                cold.append(estimate.fit(batch, FitMode.SCORE_DURATION, model))
            warm = [estimate.fit(batch, FitMode.SCORE_DURATION, model) for batch in batches]
            # caches of 8 blocks and 8 tallies evict most of a batch's rows while it is set up
            monkeypatch.setattr(estimate, "_log_h_cache", estimate._Cache(8, estimate._log_h_blocks))
            monkeypatch.setattr(estimate, "_tallies", estimate._Cache(8, estimate._tally_entries))
            small = [estimate.fit(batch, FitMode.SCORE_DURATION, model) for batch in batches]
            assert len(estimate._log_h_cache) <= 8 and len(estimate._tallies) <= 8
            monkeypatch.undo()
            assert cold == warm == small

    def test_concurrent_fits_equal_serial_ones(self, monkeypatch):
        # four threads that fill and evict a small cache while switching often
        batches = [simulated_records(0.1, 0.1, n, 40, SeedSpec(155, n)) for n in range(5, 22, 2)]
        serial = [estimate.fit(b, FitMode.SCORE_DURATION) for b in batches]
        monkeypatch.setattr(estimate, "_log_h_cache", estimate._Cache(16, estimate._log_h_blocks))

        def run(k):
            return [estimate.fit(batches[(k + i) % len(batches)], FitMode.SCORE_DURATION) for i in range(20)]

        for k, got in run_threads(run, 4).items():
            assert got == [serial[(k + i) % len(batches)] for i in range(20)]

    def test_cached_rows_are_read_only(self):
        batch = long_batches()[0]
        estimate.fit(batch, FitMode.SCORE_DURATION)
        lik = estimate._Likelihood(batch, FitMode.SCORE_DURATION)
        rows = [log_h_block(t, b) for t in lik.tallies for b in range(3)]
        assert rows and not any(r.flags.writeable for r in rows)
        with pytest.raises(ValueError):
            rows[0][0] = 0.0
