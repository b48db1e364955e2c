"""Seeded Monte Carlo simulation of the walks, run in fixed-size blocks
of trials.

The random source is SplitMix64.  Draw k of trial i under seed s is the
pure function

    draw(s, i, k) = mix64( mix64(s + (i+1) g) + (k+1) g ),
    g = 0x9E3779B97F4A7C15,  all arithmetic mod 2^64,

where mix64 is the SplitMix64 finalizer.  Every trial therefore owns an
independent substream derived only from (seed, trial index), so results
are identical no matter how trials are batched or vectorized, and the
whole scheme can be re-implemented from this comment alone.  ``simulate``
relies on that: it runs the trials ``BLOCK`` at a time, on one thread, so
its memory does not grow with the trial count.  A block's tally is an
integer count per state that depends only on (seed, trial range), and
integer sums do not depend on order, so the block size cannot change a
tally.  One call allocates its arrays once; every block and every step
writes into them.

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

# Trials per block in ``simulate``.  The arrays of a call take about
# 2.7 MB, whatever the trial count.
BLOCK = 1 << 16


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


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> None:
    """SplitMix64 finalizer on a uint64 array, in place; ``scratch`` is a
    uint64 array of the same length whose contents are overwritten."""
    import numpy as np

    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def successor_table(model: WalkModel, steps: int) -> tuple[list[State], list[int]]:
    """Slot states and the interleaved successor table of ``successor_slots``.

    Entry 2 * slot holds 2 * (black successor slot) and entry 2 * slot + 1
    holds 2 * (red successor slot), so a trial at even position ``pos``
    moves to ``table[pos + red]`` and sits in slot ``pos >> 1``.
    """
    states, red, black = successor_slots(model, steps)
    table = [0] * (2 * len(states))
    table[0::2] = [2 * slot for slot in black]
    table[1::2] = [2 * slot for slot in red]
    return states, table


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


class _Blocks:
    """The arrays of one ``simulate`` call, reused by each of its blocks.

    ``lane[j]`` is seed + (j+1) g, so trial ``first + j`` starts from
    mix64(lane[j] + first g).  Positions share the dtype of ``table``,
    the smallest unsigned one that holds them; its entries are even, so
    a position plus the red bit fits too.  ``index`` is ``np.intp``,
    so ``take`` converts nothing.  ``mode="clip"`` only skips the
    bounds check, since a walk of ``steps`` steps never looks past the
    table.
    """

    def __init__(self, table: np.ndarray, start: int, threshold: np.uint64, seed: int,
                 steps: int, size: int):
        import numpy as np

        self.table, self.start, self.threshold, self.steps = table, start, threshold, steps
        self.lane = np.arange(1, size + 1, dtype=np.uint64)
        self.lane *= np.uint64(GOLDEN)
        self.lane += np.uint64(seed & _MASK)
        self.base, self.scratch, self.r = (np.empty(size, np.uint64) for _ in range(3))
        self.red = np.empty(size, bool)
        self.pos = np.empty(size, table.dtype)
        self.index = np.empty(size, np.intp)

    def counts(self, first: int, trials: int) -> np.ndarray:
        """Final-slot counts of trials ``first`` to ``first + trials - 1``."""
        import numpy as np

        base, scratch, r, red, pos, index = (
            a[:trials] for a in (self.base, self.scratch, self.r, self.red, self.pos, self.index)
        )
        np.add(self.lane[:trials], np.uint64(first * GOLDEN & _MASK), out=base)
        _mix64_inplace(base, scratch)
        pos.fill(self.start)
        for k in range(self.steps):
            np.add(base, np.uint64((k + 1) * GOLDEN & _MASK), out=r)
            _mix64_inplace(r, scratch)
            np.less(r, self.threshold, out=red)
            np.add(pos, red, out=index)
            self.table.take(index, out=pos, mode="clip")
        np.right_shift(pos, 1, out=index)
        return np.bincount(index, minlength=len(self.table) >> 1)


def simulate(config: SimConfig) -> EmpiricalDistribution:
    """Run all trials and tally final states.

    Trials run ``BLOCK`` at a time with numpy; the per-draw semantics
    match ``splitmix_draw`` bit for bit.  A trial holds its position in
    ``successor_table``, twice its slot, and each step is one lookup into
    that table at the position plus the red bit.  The blocks' integer
    counts are summed, so the tally is the same for any block size.
    numpy is imported here, so commands that never simulate skip it.
    """
    import numpy as np

    if config.trials < 1:
        raise ValueError("trials must be positive")
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    states, table = successor_table(config.model, config.steps)
    blocks = _Blocks(
        np.array(table, dtype=np.min_scalar_type(max(table))), 2 * states.index(0),
        np.uint64(red_threshold(config.model.p)), config.seed, config.steps,
        min(BLOCK, config.trials),
    )
    counts = sum(
        blocks.counts(first, min(BLOCK, config.trials - first))
        for first in range(0, config.trials, BLOCK)
    )
    tally = {states[slot]: count for slot, count in enumerate(counts.tolist()) if count}
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
