"""Seeded Monte Carlo simulation of the walks, vectorized over trials.

The random source is SplitMix64.  Draw k of trial i under seed s is the
pure function

    draw(s, i, k) = mix64( mix64(s + (i+1) g) + (k+1) g ),
    g = 0x9E3779B97F4A7C15,  all arithmetic mod 2^64,

where mix64 is the SplitMix64 finalizer.  Every trial therefore owns an
independent substream derived only from (seed, trial index), so results
are identical no matter how trials are batched or vectorized, and the
whole scheme can be re-implemented from this comment alone.

A draw r maps to a red step exactly when r < ceil(p * 2^64), an integer
comparison with no floating point anywhere; the red probability is off
from p by less than 2^-64.

``four_sigma_report`` compares an empirical distribution against the
exact one cell by cell.  The within/outside decision is exact rational
arithmetic: |count/trials - p|^2 * trials <= 16 p (1-p), the squared
form of the usual four-standard-deviation binomial bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .models import (
    State,
    StepDistribution,
    WalkModel,
    state_sort_key,
    successor_slots,
)

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

DEFAULT_SEED = 1729


def mix64(value: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (pure Python reference)."""
    z = value & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix_draw(seed: int, trial: int, draw: int) -> int:
    """Reference implementation of draw number ``draw`` of one trial."""
    base = mix64((seed + (trial + 1) * GOLDEN) & _MASK)
    return mix64((base + (draw + 1) * GOLDEN) & _MASK)


def red_threshold(p: Fraction) -> int:
    """ceil(p * 2^64), clamped into the 64-bit range."""
    threshold = -((-p.numerator << 64) // p.denominator)
    return min(threshold, _MASK)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    import numpy as np

    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class SimConfig:
    """One simulation request."""

    model: WalkModel
    steps: int
    trials: int
    seed: int = DEFAULT_SEED


@dataclass
class EmpiricalDistribution:
    """Tallied final states of a batch of simulated trials."""

    steps: int
    trials: int
    seed: int
    counts: dict[State, int]

    def count(self, state: State) -> int:
        return self.counts.get(state, 0)

    def frequency(self, state: State) -> Fraction:
        return Fraction(self.count(state), self.trials)


def simulate(config: SimConfig) -> EmpiricalDistribution:
    """Run all trials and tally final states.

    Vectorized with numpy over trials; the per-draw semantics match
    ``splitmix_draw`` bit for bit.  Trials hold slots of
    ``successor_slots`` and each step gathers the red or black successor.
    numpy is imported here, so commands that never simulate skip it.
    """
    import numpy as np

    if config.trials < 1:
        raise ValueError("trials must be positive")
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    states, red, black = successor_slots(config.model, config.steps)
    red_next, black_next = np.array(red), np.array(black)
    threshold = np.uint64(red_threshold(config.model.p))
    index = np.arange(1, config.trials + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = _mix64_array(np.uint64(config.seed & _MASK) + index * np.uint64(GOLDEN))
        slots = np.full(config.trials, states.index(0))
        for k in range(config.steps):
            r = _mix64_array(base + np.uint64(k + 1) * np.uint64(GOLDEN))
            slots = np.where(r < threshold, red_next[slots], black_next[slots])
    counts = np.bincount(slots).tolist()
    tally = {states[slot]: count for slot, count in enumerate(counts) if count}
    return EmpiricalDistribution(config.steps, config.trials, config.seed, tally)


@dataclass(frozen=True)
class CellCheck:
    """One state's empirical-versus-exact comparison."""

    state: State
    count: int
    frequency: Fraction
    expected: Fraction
    deviation: Fraction
    bound: float
    within: bool


def four_sigma_report(
    empirical: EmpiricalDistribution, exact: StepDistribution
) -> list[CellCheck]:
    """Per-state deviation report against the exact distribution.

    Cells are the union of the exact support and the observed states, so
    a trial landing outside the exact support is flagged rather than
    silently dropped.
    """
    if empirical.steps != exact.step:
        raise ValueError("empirical and exact distributions disagree on step count")
    cells = set(exact.support()) | set(empirical.counts)
    trials = empirical.trials
    report = []
    for state in sorted(cells, key=state_sort_key):
        expected = exact.prob(state)
        frequency = empirical.frequency(state)
        deviation = abs(frequency - expected)
        variance = expected * (1 - expected)
        within = deviation * deviation * trials <= 16 * variance
        bound = 4 * math.sqrt(variance / trials)
        report.append(
            CellCheck(
                state=state,
                count=empirical.count(state),
                frequency=frequency,
                expected=expected,
                deviation=deviation,
                bound=bound,
                within=within,
            )
        )
    return report
