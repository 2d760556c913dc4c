"""Limiting laws of the rally count in the no-server model as p -> 0 or 1.

Conditioning on the winner, four of the eight (system, winner, direction)
cases sit above almost-sure events and degenerate to a point mass.  The
other four sit above vanishing events and stay non-degenerate: under
side-out scoring a win by the receiver side against p -> 1 becomes uniform
on {n+1, ..., 2n}, and under rally-point scoring a win against the trend
puts mass proportional to binom(n+k-1, k) on n+k (all trajectories to a
given score being equally likely in the limit).

These laws double as convergence oracles for the exact engines: the
law of `duration.duration_pmf_winner` in the no-server model tends to
`limit_pmf` in total variation.  Each limit mass, mean and variance is one
ratio of exact integers, divided once, so it is the correctly rounded
value of its rational.
"""

from __future__ import annotations

import enum
from math import comb

import numpy as np

from .core import Player, ScoringSystem, expect, expect_count
from .duration import DurationPMF, Moments


class Direction(enum.Enum):
    P_TO_0 = "p->0"
    P_TO_1 = "p->1"


def _degenerate(point: int) -> tuple[Moments, DurationPMF]:
    pmf = DurationPMF(offset=point, masses=np.array([1.0]), truncation_bound=0.0)
    return Moments(float(point), 0.0), pmf


def _uniform_tail(n: int) -> tuple[Moments, DurationPMF]:
    masses = np.full(n, 1 / n)
    pmf = DurationPMF(offset=n + 1, masses=masses, truncation_bound=0.0)
    # Discrete uniform on n consecutive integers: variance (n^2 - 1)/12.
    # (Not (n-1)^2/12, which is sometimes quoted but does not match this law.)
    mean = (3 * n + 1) / 2
    var = (n * n - 1) / 12
    return Moments(mean, var), pmf


def _trajectory_law(n: int) -> tuple[Moments, DurationPMF]:
    weights = [comb(n + k - 1, k) for k in range(n)]
    total = sum(weights)
    masses = np.array([w / total for w in weights])
    pmf = DurationPMF(offset=n, masses=masses, truncation_bound=0.0)
    mean = 2 * n * n / (n + 1)
    var = 2 * n * n * (n - 1) / ((n + 1) ** 2 * (n + 2))
    return Moments(mean, var), pmf


def _limit_case(system: ScoringSystem, winner: Player, direction: Direction, n: int):
    expect_count(n, "target score n", 1)
    expect(winner, Player, "winner")
    expect(direction, Direction, "direction")
    if expect(system, ScoringSystem, "system") is ScoringSystem.SIDE_OUT:
        if winner is Player.A:
            return _degenerate(n)  # only all-A trajectories survive, either direction
        if direction is Direction.P_TO_0:
            return _degenerate(n + 1)  # B must first regain the serve
        return _uniform_tail(n)
    if (winner is Player.A) == (direction is Direction.P_TO_1):
        return _degenerate(n)
    return _trajectory_law(n)


def limit_moments(system: ScoringSystem, winner: Player, direction: Direction, n: int) -> Moments:
    """Limiting (mean, variance) of D conditional on the winner of an
    A-game, as p tends to 0 or 1 in the no-server model."""
    return _limit_case(system, winner, direction, n)[0]


def limit_pmf(system: ScoringSystem, winner: Player, direction: Direction, n: int) -> DurationPMF:
    """Exact limiting PMF for the same conditioning (rational weights,
    each rounded once)."""
    return _limit_case(system, winner, direction, n)[1]
