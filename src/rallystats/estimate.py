"""Likelihood evaluation and maximum-likelihood estimation of (p_a, p_b)
from observed side-out games.

Two likelihoods are offered: score-only (the final tally of each game) and
score-plus-duration (tally times the conditional probability of the
observed rally count).  The joint score/duration probability collapses to
p_a^alpha p_b^beta q_a^delta q^m H(m) with a parameter-free combinatorial
count H(m) of the m extra rally pairs, so with durations the
log-likelihood is k_pa log p_a + k_qa log q_a + k_pb log p_b + k_qb log q_b
+ const and its maximizer is a ratio of counts: rallies won on serve over
rallies served, for each player (one pooled ratio in the no-server model).
Score only, m is missing data.  Summed over a batch, the log-likelihood
is k_pa log(p_a/(1-q)) + k_pb log(p_b/(1-q)) + k_qa log q_a + k_qb log q_b
+ J0 log q + sum_r c_r log P_r(q), with c_r the count of distinct tally r
(first servers pooled), J0 the sum of c_r j0_r and P_r the tally's
interruption polynomial (`kernel.interruption_polynomial`).  Only the last
term needs the kernel, and it depends on (p_a, p_b) through q = q_a q_b
alone: it is evaluated once per distinct q over the observed tallies,
153 values for the 17 x 17 start grid (whose transposed points share q)
and one per Newton point.  The polynomials also give the mean and
variance of m, hence the exact score (Fisher's identity) and
information (Louis's formula) for grid-started projected Newton steps.
For 200 games to 15 on a shared 2-core machine, in-process, the grid
step takes 1.3-2.0 ms and a Newton point 0.07-0.15 ms, against 6.3-6.9
and 0.24-0.40 ms when each first server took a whole-table kernel
evaluation; the score-only fit takes 3.5-4.9 ms instead of 12.8-13.1.

Duration information enters the conditional duration law only through q,
so in the two-parameter server model the duration term mostly sharpens q;
identification of the pair still rests on the score component.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernel
from .core import (
    DomainError,
    InfeasibleData,
    NonConvergence,
    Player,
    RallyProbs,
    TerminalScore,
)
from .sideout import game_win_prob

_BOUND_DELTA = 1e-9
_PARAM_TOL = 1e-7
_GRID = np.linspace(-8.0, 8.0, 17)  # Newton starts, logit of each coordinate
_MAX_STEPS = 100
_STEP_TOL = 1e-10  # logit units
_GAIN_TOL = 1e-14  # relative to 1 + |log-likelihood|


class FitMode(enum.Enum):
    SCORE_ONLY = "score"
    SCORE_DURATION = "score-duration"


class FitModel(enum.Enum):
    SERVER = "server"
    NO_SERVER = "no-server"


def _count(d: dict, key: str) -> int:
    value = d[key]
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{key}={value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class GameRecord:
    """One observed game: who served first, the final tally, and
    optionally how many rallies it took."""

    first_server: Player
    score: TerminalScore
    duration: int | None = None

    def to_dict(self) -> dict:
        out = {
            "first_server": self.first_server.value,
            "alpha": self.score.alpha,
            "beta": self.score.beta,
            "last_scorer": self.score.last_scorer.value,
        }
        if self.duration is not None:
            out["duration"] = self.duration
        return out

    @staticmethod
    def from_dict(d: dict) -> "GameRecord":
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        return GameRecord(
            first_server=Player(d["first_server"]),
            score=TerminalScore(_count(d, "alpha"), _count(d, "beta"), Player(d["last_scorer"])),
            duration=_count(d, "duration") if d.get("duration") is not None else None,
        )


def records_to_json_lines(records) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)


def records_from_json_lines(lines) -> list[GameRecord]:
    out = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(GameRecord.from_dict(json.loads(line)))
        except (KeyError, ValueError) as exc:
            raise InfeasibleData(f"record {i}: cannot parse ({exc})") from exc
    return out


def records_from_sample(sample) -> list[GameRecord]:
    """Convert a simulate.GameSample batch into GameRecords."""
    out = []
    for server_a, alpha, beta, winner_a, dur in zip(
        sample.first_server_a, sample.alpha, sample.beta, sample.winner_a, sample.duration
    ):
        winner = Player.A if winner_a else Player.B
        out.append(
            GameRecord(
                first_server=Player.A if server_a else Player.B,
                score=TerminalScore(int(alpha), int(beta), winner),
                duration=int(dur),
            )
        )
    return out


def _log_h(rows: kernel.Rows, m) -> np.ndarray:
    """log H(m) of one tally (a one-row table) at each entry of the array m:
    the number-weight of trajectories with m extra rally pairs beyond the
    scored points, a convolution over the l exchanges of C(a+b+l-1, l)
    (`kernel.log_exchange_binom`) with the kernel coefficient of q^(m-l).
    The terms of all entries form one (entries, j) array, -inf past each
    entry's last j = min(top, m), reduced in the order of j."""
    m = np.atleast_1d(np.asarray(m))
    j0 = int(rows.j0[0])
    j = np.arange(j0, max(j0, min(int(rows.top[0]), int(m.max()))) + 1)
    l = m[:, None] - j
    # log C(a+b-1+l, l) once for each exchange count l
    log_exchanges = kernel.log_exchange_binom(int(rows.alpha[0] + rows.beta[0]), np.arange(max(l.max(), 0) + 1))
    terms = np.where(l >= 0, log_exchanges[np.maximum(l, 0)] + rows.logc[0, j - j0], -np.inf)
    return np.logaddexp.reduce(terms, axis=1)


class _Likelihood:
    """A record batch reduced to exponent totals, and either the extra rally
    pairs with log H(m) or the counts of its distinct tallies (in
    first-server coordinates, summed over first servers)."""

    def __init__(self, records, mode: FitMode):
        if not records:
            raise InfeasibleData("no records")
        self.mode = mode
        self.k = [0, 0, 0, 0]  # exponents of log p_a, log q_a, log p_b, log q_b, less m
        self.m, self.log_h_total = 0, 0.0  # extra rally pairs and log H(m), with durations
        tallies: dict[tuple[int, int, bool], list[int]] = {}  # tally -> its records
        spans = []
        for i, rec in enumerate(records):
            swap = rec.first_server is Player.B
            a, b = (rec.score.beta, rec.score.alpha) if swap else (rec.score.alpha, rec.score.beta)
            server_last = rec.score.last_scorer is rec.first_server
            win_pts, lose_pts = (a, b) if server_last else (b, a)
            if win_pts <= lose_pts:
                raise InfeasibleData(
                    f"record {i}: last scorer of a completed game must hold the higher tally "
                    f"({rec.score.alpha}, {rec.score.beta})"
                )
            delta = 0 if server_last else 1  # the receiving side scored last
            server, receiver = (2, 0) if swap else (0, 2)
            self.k[server] += a
            self.k[receiver] += b
            self.k[server + 1] += delta
            if mode is FitMode.SCORE_DURATION:
                if rec.duration is None:
                    raise InfeasibleData(f"record {i}: duration required for score-and-duration fit")
                span = rec.duration - a - b - delta
                if span < 0 or span % 2 != 0:
                    raise InfeasibleData(
                        f"record {i}: duration {rec.duration} infeasible for tally "
                        f"({rec.score.alpha}, {rec.score.beta}) with first server "
                        f"{rec.first_server.value} (wrong parity or too short)"
                    )
                # H(m) vanishes below the tally's fewest interruption pairs
                if span // 2 < kernel.tally(a, b, server_last).j0[0]:
                    raise InfeasibleData(f"record {i}: duration {rec.duration} carries zero probability")
                spans.append(span // 2)
            tallies.setdefault((a, b, server_last), []).append(i)
        if mode is FitMode.SCORE_DURATION:
            m = np.array(spans)
            log_h = np.empty(len(m))
            for key, which in tallies.items():
                log_h[which] = _log_h(kernel.tally(*key), m[which])
            self.m = int(m.sum())
            self.log_h_total = float(np.add.accumulate(log_h)[-1])  # in record order
        else:
            self.rows = kernel.tallies(list(tallies))
            self.counts = np.array([len(which) for which in tallies.values()], dtype=float)
            self.j0_total = float(self.counts @ self.rows.j0)

    def e_step(self, p_a, p_b):
        """Score-only log-likelihood at each point of the arrays (p_a, p_b), and
        the mean and variance of the extra rally pairs M given the tallies: per
        tally, the kernel's interruption count less [receiver scores last] plus
        NB(alpha + beta, q) exchanges (both totals are exponents in self.k).
        The kernel evaluates the tallies' polynomials once per distinct q (see
        the module notes), and rows add in a fixed order, so a point's
        results do not depend on the other points."""
        # exact bases in extended precision, as in the kernel
        x, y = np.asarray(p_a, dtype=np.longdouble), np.asarray(p_b, dtype=np.longdouble)
        q_a, q_b = 1.0 - x, 1.0 - y
        q = np.atleast_1d(q_a * q_b)
        one_minus_q = x + q_a * y  # does not cancel as q -> 1
        distinct, where = np.unique(q, return_inverse=True) if q.size > 1 else (q, slice(None))
        # rows first: axis 0 is not the fast axis, so rows add in order
        poly = np.stack(kernel.interruption_polynomial(self.rows, distinct), axis=1)
        sums = (self.counts[:, None, None] * poly).sum(axis=0)[:, where]  # log P, mean and variance of s
        k_pa, k_qa, k_pb, k_qb = self.k
        bases = (x / one_minus_q, y / one_minus_q, q_a, q_b, q)
        log_x, log_y, log_qa, log_qb, log_q = (np.log(v).astype(float) for v in bases)
        ll = k_pa * log_x + k_pb * log_y + k_qa * log_qa + k_qb * log_qb + self.j0_total * log_q + sums[0]
        odds = (q / one_minus_q).astype(float)
        mean = self.j0_total + sums[1] + (k_pa + k_pb) * odds
        return ll, mean, sums[2] + (k_pa + k_pb) * (odds / one_minus_q).astype(float)

    def __call__(self, p_a: float, p_b: float) -> float:
        if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
            return -np.inf
        if self.mode is FitMode.SCORE_ONLY:
            return float(self.e_step(p_a, p_b)[0][0])
        won, served = _serve_counts(self.k, self.m, FitModel.SERVER)
        return float(won @ np.log([p_a, p_b]) + (served - won) @ np.log1p([-p_a, -p_b])) + self.log_h_total


def loglik_score(records, p_a: float, p_b: float) -> float:
    """Log-likelihood of the final tallies alone."""
    return _Likelihood(records, FitMode.SCORE_ONLY)(p_a, p_b)


def loglik_score_duration(records, p_a: float, p_b: float) -> float:
    """Joint log-likelihood of tallies and observed rally counts."""
    return _Likelihood(records, FitMode.SCORE_DURATION)(p_a, p_b)


@dataclass(frozen=True)
class FitResult:
    """Estimates and their log-likelihood.  `converged` is always true: a
    fit that does not converge raises `NonConvergence` instead.
    `newton_steps` counts the Newton systems solved (0 for the closed-form
    score-and-duration fit) and `evaluations` the parameter points at which
    the log-likelihood was evaluated, start grid included."""

    p_a: float
    p_b: float
    log_likelihood: float
    converged: bool
    boundary: bool
    mode: FitMode
    model: FitModel
    newton_steps: int
    evaluations: int

    @property
    def p(self) -> float:
        """No-server parameter (meaningful when model is NO_SERVER)."""
        return self.p_a


def _serve_counts(k, m, model: FitModel) -> tuple[np.ndarray, np.ndarray]:
    """Rallies won on serve and rallies served per parameter, given m extra
    rally pairs: their ratio is the complete-data maximizer.  In the
    no-server model a rally lost on B's serve is won by A."""
    k_pa, k_qa, k_pb, k_qb = k
    if model is FitModel.SERVER:
        return np.array([k_pa, k_pb]), np.array([k_pa + k_qa + m, k_pb + k_qb + m])
    return np.array([k_pa + k_qb + m]), np.array([k_pa + k_qa + k_pb + k_qb + 2 * m])


def _probs(x, model: FitModel):
    """(p_a, p_b) of a parameter vector (or of its columns)."""
    return (x[0], x[1]) if model is FitModel.SERVER else (x[0], 1.0 - x[0])


def _score_information(k, x, mean, var, model: FitModel) -> tuple[np.ndarray, np.ndarray]:
    """Score-only logit score won - served p at E[M] (Fisher's identity) and
    observed information diag(served p (1 - p)) - Var[M] w w^T, w the
    derivative of that score in M (Louis's formula)."""
    won, served = _serve_counts(k, mean, model)
    w = -x if model is FitModel.SERVER else 1.0 - 2.0 * x
    return won - served * x, np.diag(served * x * (1.0 - x)) - var * np.outer(w, w)


def _newton(lik: _Likelihood, model: FitModel, lo: float, hi: float) -> tuple[np.ndarray, float, int, int]:
    """Projected Newton steps in logit coordinates on [lo, hi] from the best
    point of a grid (the likelihood can have a second maximum on a ray to a
    corner), holding a coordinate on a bound while its score points out.
    Returns the estimate, its log-likelihood, the steps taken and the
    points evaluated."""
    bounds = np.array([-1.0, 1.0]) * math.log(hi / lo)
    grid = np.stack([g.ravel() for g in np.meshgrid(*[_GRID] * (2 if model is FitModel.SERVER else 1))])
    ll, mean, var = lik.e_step(*_probs(1.0 / (1.0 + np.exp(-grid)), model))
    evaluations = grid.shape[1]
    best = np.argmax(ll)
    theta, ll, mean, var = grid[:, best], ll[best], mean[best], var[best]
    x = 1.0 / (1.0 + np.exp(-theta))
    for steps in range(1, _MAX_STEPS + 1):
        score, info = _score_information(lik.k, x, mean, var, model)
        free = ~((theta <= bounds[0]) & (score < 0.0) | (theta >= bounds[1]) & (score > 0.0))
        step = np.zeros_like(x)
        if free.any():
            h = info[np.ix_(free, free)]
            floor, low = 1e-12 * (1.0 + np.trace(h)), np.linalg.eigvalsh(h)[0]
            if low < floor:  # not positive definite: shift it
                h = h + (floor - 2.0 * min(low, 0.0)) * np.eye(len(h))
            step[free] = np.linalg.solve(h, score[free])
        # end the step just past the first bound it meets, where the clip holds that coordinate
        inside = (step != 0.0) & (theta > bounds[0]) & (theta < bounds[1])
        room = (np.where(step < 0.0, bounds[0], bounds[1]) - theta)[inside] / step[inside]
        t = min(1.0, 1.000001 * room.min(initial=np.inf))
        # gains below the rounding of the log-likelihood cannot be resolved
        tol = _GAIN_TOL * (1.0 + abs(ll))
        while True:
            theta_new = np.clip(theta + t * step, *bounds)
            x_new = 1.0 / (1.0 + np.exp(-theta_new))
            ll_new, mean_new, var_new = (v[0] for v in lik.e_step(*_probs(x_new, model)))
            evaluations += 1
            if ll_new >= ll - tol:
                break
            t /= 2.0  # the likelihood dropped
            if t * np.abs(step).max() < _STEP_TOL:
                return x, ll, steps, evaluations
        gain, moved = ll_new - ll, np.abs(theta_new - theta).max()
        theta, x, ll, mean, var = theta_new, x_new, ll_new, mean_new, var_new
        if moved < _STEP_TOL or gain <= tol:
            return x, ll, steps, evaluations
    raise NonConvergence(f"no convergence within {_MAX_STEPS} Newton steps")


def fit(records, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER) -> FitResult:
    """Maximize the selected log-likelihood over [delta, 1-delta]^2 (or the
    no-server diagonal p_a = 1 - p_b).  Score and duration: the ratio of
    counts, clamped to that box (0.5 for a player who never served).
    Score only: grid-started projected Newton.  Deterministic given the
    data."""
    lik = _Likelihood(records, mode)
    lo, hi = _BOUND_DELTA, 1.0 - _BOUND_DELTA
    if mode is FitMode.SCORE_DURATION:
        won, served = _serve_counts(lik.k, lik.m, model)
        x = np.clip(np.divide(won, served, out=np.full(len(won), 0.5), where=served > 0), lo, hi)
        ll, steps, evaluations = lik(*_probs(x, model)), 0, 1
    else:
        x, ll, steps, evaluations = _newton(lik, model, lo, hi)
    p_a, p_b = (float(v) for v in _probs(x, model))
    boundary = bool(np.any(np.minimum(x - lo, hi - x) <= _PARAM_TOL))
    return FitResult(
        p_a, p_b, float(ll), converged=True, boundary=boundary, mode=mode, model=model,
        newton_steps=steps, evaluations=evaluations,
    )


class RallyWinProbMLE:
    """Estimator with the familiar fit/get_params surface.

    Parameters are the fit mode and model; after `fit(records)` the
    estimates are available as `p_a_`, `p_b_` and `result_`.
    """

    def __init__(self, mode: FitMode = FitMode.SCORE_DURATION, model: FitModel = FitModel.SERVER):
        self.mode = mode
        self.model = model

    def get_params(self, deep: bool = True) -> dict:
        return {"mode": self.mode, "model": self.model}

    def set_params(self, **params) -> "RallyWinProbMLE":
        for key, value in params.items():
            if key not in ("mode", "model"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, records, y=None) -> "RallyWinProbMLE":
        result = fit(records, self.mode, self.model)
        self.result_ = result
        self.p_a_ = result.p_a
        self.p_b_ = result.p_b
        self.log_likelihood_ = result.log_likelihood
        return self

    def predict_win_prob(self, config, server: Player = Player.A, winner: Player = Player.A) -> float:
        """Game-winning probability at the fitted parameters, under
        `config.system`."""
        if not hasattr(self, "result_"):
            raise DomainError("estimator is not fitted")
        return game_win_prob(winner, server, RallyProbs(self.p_a_, self.p_b_), config)
