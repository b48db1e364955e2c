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

A walk on its finite set of slots is a finite automaton, so, like a
byte-at-a-time CRC table, ``simulate`` moves a trial ``CHUNK`` = 8 steps
per table lookup: the red bits of eight draws, the first the highest,
make a uint8 key, and a jump table built from ``models.successor_table``
maps (slot, key) to the slot eight steps on.

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

from .models import State, StepDistribution, WalkModel, state_sort_key, successor_table

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

DEFAULT_SEED = 1729

# Trials per block in ``simulate``.  The arrays of a call take 35 or 36
# bytes per trial of a block, about 2.3 MB, whatever the trial count.
BLOCK = 1 << 16

# Steps per table lookup in ``simulate``: a chunk's red bits fill one
# uint8 key.
CHUNK = 8


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


def _jump_table(slots: list[int], steps: int) -> np.ndarray:
    """Flat table of ``steps`` <= ``CHUNK`` steps at once: entry
    (slot << CHUNK) | key is the slot that a trial in ``slot`` reaches when
    its draws' red bits are the low ``steps`` bits of ``key``, the first
    draw the highest of them.  ``slots`` is the successor list of
    ``successor_table``; successors past its last slot are clipped onto
    that slot, and the entries are in the smallest unsigned dtype that
    holds every slot.
    """
    import numpy as np

    last = len(slots) // 2 - 1
    successors = np.minimum(np.array(slots), last).reshape(-1, 2)
    keys = np.arange(1 << CHUNK)
    slot = np.arange(last + 1)[:, np.newaxis]
    for shift in reversed(range(steps)):
        slot = successors[slot, (keys >> shift) & 1]
    return slot.astype(np.min_scalar_type(last)).ravel()


def simulate(config: SimConfig) -> EmpiricalDistribution:
    """Run all trials and tally final states.

    Trials run ``BLOCK`` at a time with numpy; the per-draw semantics
    match ``splitmix_draw`` bit for bit.  A trial's position is its slot
    in ``models.successor_table``, and it moves ``CHUNK`` steps per table
    lookup: each draw shifts its red bit into the trial's uint8 ``key``,
    and after the chunk's last draw one lookup at (slot << 8) | key into
    that chunk length's jump table moves the trial.  A step count that is
    not a multiple of ``CHUNK`` ends with a shorter chunk and its own
    table.  The blocks' integer counts are summed, so the tally is the
    same for any block size.  numpy is imported here, so commands that
    never simulate skip it.

    The jump tables are built first, so their temporaries are gone before
    the block arrays exist.  The arrays are allocated once and each block
    writes into their first ``trials`` entries.  ``lane[j]`` is
    seed + (j+1) g, so trial ``first + j`` starts from
    mix64(lane[j] + first g).  Positions take the smallest unsigned dtype
    that holds every slot.  The lookup index is an ``np.intp`` view of
    ``r``, whose draws are dead once the chunk's last ``less`` has run, so
    ``take`` and ``bincount`` convert nothing.  ``pos`` and ``key`` are
    widened into it and into an ``np.intp`` view of ``scratch`` by
    ``copyto``, so no ufunc casts an input, which would take numpy's
    buffer of ``np.getbufsize()`` entries.  Building a table clips
    successors past the last slot, and ``mode="clip"`` skips the bounds
    check; both are exact because a trial at the start of a chunk from
    step k0 sits on a slot reachable at step k0, and its next
    c <= steps - k0 steps stay inside ``frontier(steps)``.  Entries for
    unreachable (slot, key) pairs may be clipped garbage; no trial reads
    them.
    """
    import numpy as np

    if config.trials < 1:
        raise ValueError("trials must be positive")
    if config.steps < 0:
        raise ValueError("steps must be non-negative")
    states, slots = successor_table(config.model, config.steps)
    jumps = {c: _jump_table(slots, c) for c in {CHUNK, config.steps % CHUNK} if c}
    start = states.index(0)
    threshold = np.uint64(red_threshold(config.model.p))
    size = min(BLOCK, config.trials)
    lane = np.arange(1, size + 1, dtype=np.uint64)
    lane *= np.uint64(GOLDEN)
    lane += np.uint64(config.seed & _MASK)
    base, scratch, r = (np.empty(size, np.uint64) for _ in range(3))
    arrays = (
        base, scratch, r, np.empty(size, bool), np.empty(size, np.uint8),
        np.empty(size, np.min_scalar_type(len(states) - 1)), r.view(np.intp),
        scratch.view(np.intp),
    )
    counts = 0
    for first in range(0, config.trials, BLOCK):
        trials = min(BLOCK, config.trials - first)
        base, scratch, r, red, key, pos, index, low = (a[:trials] for a in arrays)
        np.add(lane[:trials], np.uint64(first * GOLDEN & _MASK), out=base)
        _mix64_inplace(base, scratch)
        pos.fill(start)
        for k0 in range(0, config.steps, CHUNK):
            chunk = min(CHUNK, config.steps - k0)
            for k in range(k0, k0 + chunk):
                np.add(base, np.uint64((k + 1) * GOLDEN & _MASK), out=r)
                _mix64_inplace(r, scratch)
                np.less(r, threshold, out=red)
                np.add(key, key, out=key)
                np.bitwise_or(key, red, out=key)
            np.copyto(index, pos)
            np.left_shift(index, CHUNK, out=index)
            np.copyto(low, key)
            np.bitwise_or(index, low, out=index)
            jumps[chunk].take(index, out=pos, mode="clip")
        np.copyto(index, pos)
        counts += np.bincount(index, minlength=len(states))
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
