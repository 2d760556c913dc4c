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
Score only, m is missing data: one `rallystats.kernel` evaluation per
target score gives the log-likelihood and the mean and variance of m,
hence the exact score (Fisher's identity) and information (Louis's
formula) for grid-started projected Newton steps.

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
    ScoringSystem,
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


def _log_h(rows: kernel.Rows, m: int) -> float:
    """log H(m): the number-weight of trajectories with m extra rally pairs
    beyond the scored points, a convolution over the l exchanges of
    C(a+b+l-1, l) with the kernel coefficient of q^(m-l)
    (`kernel.log_exchange_binom`)."""
    j0 = int(rows.j0[0])
    j = np.arange(j0, min(int(rows.top[0]), m) + 1)
    if j.size == 0:
        return -math.inf
    log_exchanges = kernel.log_exchange_binom(int(rows.alpha[0] + rows.beta[0]), m - j)
    return float(np.logaddexp.reduce(log_exchanges + rows.logc[0, j - j0]))


class _Likelihood:
    """A record batch reduced to exponent totals, and either the extra rally
    pairs with log H(m) or tally counts per target score n and first server."""

    def __init__(self, records, mode: FitMode):
        if not records:
            raise InfeasibleData("no records")
        self.mode = mode
        self.k = [0, 0, 0, 0]  # exponents of log p_a, log q_a, log p_b, log q_b, less m
        self.m, self.log_h_total = 0, 0.0  # extra rally pairs and log H(m), with durations
        self.tallies: dict[int, np.ndarray] = {}  # n -> counts over (kernel.table(n) rows, first server)
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
                m = span // 2
                log_h = _log_h(kernel.tally(a, b, server_last), m)
                if log_h == -math.inf:
                    raise InfeasibleData(f"record {i}: duration {rec.duration} carries zero probability")
                self.m += m
                self.log_h_total += log_h
            else:
                counts = self.tallies.setdefault(win_pts, np.zeros((2 * win_pts, 2)))
                counts[b if server_last else win_pts + a, int(swap)] += 1

    def e_step(self, p_a, p_b):
        """Score-only log-likelihood at each point of the arrays (p_a, p_b), and
        the mean and variance of the extra rally pairs M given the tallies: per
        tally, the kernel's interruption count less [receiver scores last] plus
        NB(alpha + beta, q) exchanges (both totals are exponents in self.k)."""
        p_a, p_b = np.broadcast_arrays(np.atleast_1d(np.asarray(p_a, dtype=float)), np.asarray(p_b, dtype=float))
        sums = 0.0
        for n, counts in self.tallies.items():  # sum the records' log-weights, r_mean and r_var
            ev = kernel.evaluate_servers(ScoringSystem.SIDE_OUT, kernel.table(n), p_a, p_b)
            sums = sums + np.einsum("rs,xrsp->xp", counts, np.stack([ev.log_weight, ev.r_mean, ev.r_var]))
        k_pa, k_qa, k_pb, k_qb = self.k
        one_minus_q = p_a + (1.0 - p_a) * p_b  # does not cancel as q -> 1
        odds = (1.0 - p_a) * (1.0 - p_b) / one_minus_q
        return sums[0], sums[1] - k_qa - k_qb + (k_pa + k_pb) * odds, sums[2] + (k_pa + k_pb) * odds / one_minus_q

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
    fit that does not converge raises `NonConvergence` instead."""

    p_a: float
    p_b: float
    log_likelihood: float
    converged: bool
    boundary: bool
    mode: FitMode
    model: FitModel

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


def _newton(lik: _Likelihood, model: FitModel, lo: float, hi: float) -> np.ndarray:
    """Projected Newton steps in logit coordinates on [lo, hi] from the best
    point of a grid (the likelihood can have a second maximum on a ray to a
    corner), holding a coordinate on a bound while its score points out."""
    bounds = np.array([-1.0, 1.0]) * math.log(hi / lo)
    grid = np.stack([g.ravel() for g in np.meshgrid(*[_GRID] * (2 if model is FitModel.SERVER else 1))])
    ll, mean, var = lik.e_step(*_probs(1.0 / (1.0 + np.exp(-grid)), model))
    best = np.argmax(ll)
    theta, ll, mean, var = grid[:, best], ll[best], mean[best], var[best]
    x = 1.0 / (1.0 + np.exp(-theta))
    for _ in range(_MAX_STEPS):
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
            if ll_new >= ll - tol:
                break
            t /= 2.0  # the likelihood dropped
            if t * np.abs(step).max() < _STEP_TOL:
                return x
        gain, moved = ll_new - ll, np.abs(theta_new - theta).max()
        theta, x, ll, mean, var = theta_new, x_new, ll_new, mean_new, var_new
        if moved < _STEP_TOL or gain <= tol:
            return x
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
    else:
        x = _newton(lik, model, lo, hi)
    p_a, p_b = (float(v) for v in _probs(x, model))
    boundary = bool(np.any(np.minimum(x - lo, hi - x) <= _PARAM_TOL))
    return FitResult(p_a, p_b, lik(p_a, p_b), converged=True, boundary=boundary, mode=mode, model=model)


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
