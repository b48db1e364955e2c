"""Tests for the seeded simulation and its deviation reports."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from knoedel import montecarlo
from knoedel.models import BETA, StepDistribution, WalkModel, dp_distribution, successor_table
from knoedel.montecarlo import (
    EmpiricalDistribution,
    SimConfig,
    four_sigma_report,
    mix64,
    red_threshold,
    simulate,
    splitmix_draw,
)


def replay(config: SimConfig) -> tuple[dict, set]:
    """Final-state tally and visited states of ``config``, one scalar
    ``splitmix_draw`` and one ``WalkModel.step`` per draw."""
    model = config.model
    threshold = red_threshold(model.p)
    counts: dict = {}
    visited = set()
    for trial in range(config.trials):
        state = 0
        for k in range(config.steps):
            red = splitmix_draw(config.seed, trial, k) < threshold
            state = model.step(state, red)
            visited.add(state)
        counts[state] = counts.get(state, 0) + 1
    return counts, visited


def test_mix64_matches_reference_stream():
    """First outputs of the reference SplitMix64 stream seeded with 0."""
    golden = 0x9E3779B97F4A7C15
    assert mix64(golden) == 0xE220A8397B1DCDAF
    assert mix64(2 * golden % 2**64) == 0x6E789E6AA1B965F4
    assert mix64(3 * golden % 2**64) == 0x06C45D188009454F


def test_splitmix_draw_frozen_values():
    assert splitmix_draw(42, 0, 0) == 6332618229526065668
    assert splitmix_draw(42, 0, 1) == 17630415256238047317
    assert splitmix_draw(42, 1, 0) == 18201609923829866926
    assert splitmix_draw(42, 1, 1) == 5693819483401481853


def test_red_threshold_is_exact_ceiling():
    assert red_threshold(Fraction(1, 3)) == (2**64 + 2) // 3
    assert red_threshold(Fraction(2, 3)) == (2**65 + 2) // 3
    assert red_threshold(Fraction(1, 2)) == 2**63
    assert red_threshold(Fraction(1, 2**64)) == 1


def test_simulate_matches_scalar_replay():
    """The numpy path reproduces the documented draw scheme bit for bit."""
    for model, steps in [
        (WalkModel.double_large(), 9),
        (WalkModel.double_small(), 9),
        (WalkModel.double_large(Fraction(3, 7)), 10),
        (WalkModel.double_small(Fraction(2, 7)), 11),
    ]:
        config = SimConfig(model, steps=steps, trials=60, seed=2024)
        counts, visited = replay(config)
        assert simulate(config).counts == counts
        assert BETA in visited


def test_simulate_matches_scalar_replay_past_255_positions():
    """Past 256 slots a position is a uint16: double-large has 262 slots at
    130 steps.  At p = 99/100 trials end past slot 255 (numbered state 254),
    so a position cut to a byte would show."""
    ends_past_a_byte = 0
    for model, steps in ((WalkModel.double_large(), 130),
                         (WalkModel.double_large(Fraction(99, 100)), 130),
                         (WalkModel.double_small(Fraction(99, 100)), 270)):
        states, _ = successor_table(model, steps)
        assert len(states) > 256
        config = SimConfig(model, steps=steps, trials=40, seed=77)
        counts = replay(config)[0]
        assert simulate(config).counts == counts
        ends_past_a_byte += any(state is not BETA and state > 254 for state in counts)
    assert ends_past_a_byte == 2


@pytest.mark.parametrize("model", [
    WalkModel.double_large(), WalkModel.double_large(Fraction(3, 7)),
    WalkModel.double_small(), WalkModel.double_small(Fraction(2, 7)),
], ids=lambda model: f"{model.name}-{model.p}")
def test_simulate_matches_scalar_replay_at_chunk_and_block_edges(monkeypatch, model):
    """Step counts on either side of one and two eight-step chunks, and 30
    trials in blocks of 7, so the last block is short."""
    monkeypatch.setattr(montecarlo, "BLOCK", 7)
    for steps in (0, 1, 7, 8, 9, 15, 16, 17):
        config = SimConfig(model, steps=steps, trials=30, seed=4321)
        assert simulate(config).counts == replay(config)[0], steps


@pytest.mark.parametrize("model", [WalkModel.double_large(), WalkModel.double_small()],
                         ids=lambda model: model.name)
def test_jump_table_takes_chunk_steps_from_every_reachable_slot(model):
    """For c = 1..8, the entry at (slot << 8) | key for a slot reachable at
    some step k <= steps - c is c lookups in ``successor_table``, the
    first taking key's bit c - 1."""
    steps = 12
    states, slots = successor_table(model, steps)
    reachable = [{states.index(0)}]
    for _ in range(steps):
        reachable.append({slots[2 * slot + red] for slot in reachable[-1] for red in (0, 1)})
    for chunk in range(1, montecarlo.CHUNK + 1):
        jump = montecarlo._jump_table(slots, chunk)
        assert len(jump) == len(states) << 8
        assert jump.dtype == np.min_scalar_type(len(states) - 1)
        for slot in set().union(*reachable[:steps - chunk + 1]):
            for key in range(1 << 8):
                to = slot
                for shift in reversed(range(chunk)):
                    to = slots[2 * to + (key >> shift & 1)]
                assert jump[slot << 8 | key] == to, (chunk, slot, key)


@pytest.mark.parametrize("model", [WalkModel.double_large(), WalkModel.double_small()],
                         ids=lambda model: model.name)
def test_simulate_does_not_depend_on_block_size(monkeypatch, model):
    """1003 trials fill no block of 7 or 2**15 exactly; every block size
    gives the tally of the scalar replay."""
    config = SimConfig(model, steps=10, trials=1003, seed=31)
    unpatched = simulate(config)
    assert unpatched.counts == replay(config)[0]
    for block in (1, 7, 1 << 15):
        monkeypatch.setattr(montecarlo, "BLOCK", block)
        assert simulate(config) == unpatched


@pytest.mark.parametrize("model", [WalkModel.double_large(), WalkModel.double_small()],
                         ids=lambda model: model.name)
def test_successor_table_interleaves_successor_slots(model):
    """Entry 2 * slot + red is the slot of ``step`` from the slot's state."""
    for steps in (0, 1, 2, 9):
        states, table = successor_table(model, steps)
        assert states == [BETA, *range(len(states) - 1)]
        assert len(table) == 2 * len(states)
        for slot, state in enumerate(states):
            for red in (False, True):
                nxt = model.step(state, red)
                assert table[2 * slot + red] == (0 if nxt is BETA else nxt + 1)
        # The states first reached at the last step move past the last slot.
        assert max(table) >= len(states)


def test_simulate_memory_does_not_grow_with_trials():
    """numpy reports its buffers to tracemalloc; holding all 10**6 trials
    at once would take 8 MB per uint64 array."""
    tracemalloc.start()
    try:
        simulate(SimConfig(WalkModel.double_large(), 12, 1_000_000, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, f"simulate peaked at {peak} bytes"


def test_simulate_allocates_only_the_arrays_of_the_call():
    """A call holds, per trial of a block, four uint64 arrays (lane, base,
    scratch and the draws r, whose intp view is the lookup index), the
    bool red, the uint8 key and the uint8 position pos (82 slots at 40
    steps), 35 bytes.  Beside them it holds the one eight-step jump table,
    a byte per slot and key.  The index is formed without numpy's cast
    buffer, and no step and no block adds any other temporary as large
    as one bool per trial."""
    steps = 40
    states, _ = successor_table(WalkModel.double_large(), steps)
    tracemalloc.start()
    try:
        simulate(SimConfig(WalkModel.double_large(), steps, montecarlo.BLOCK, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 35 * montecarlo.BLOCK + (len(states) << 8)
    assert peak < held + montecarlo.BLOCK // 2, peak


def test_simulate_is_deterministic():
    config = SimConfig(WalkModel.double_large(), 7, 5000, 99)
    assert simulate(config).counts == simulate(config).counts


def test_simulate_frozen_counts():
    """Regression pins for the cross-version reproducibility promise."""
    large = simulate(SimConfig(WalkModel.double_large(), 6, 1000, 42))
    assert large.counts == {0: 469, 3: 378, 6: 133, 9: 20}
    small = simulate(SimConfig(WalkModel.double_small(), 7, 1000, 42))
    assert small.counts == {1: 591, 4: 328, 7: 81}
    # Past one eight-step chunk, and for double-large past one block.
    large = simulate(SimConfig(WalkModel.double_large(), 17, 70_000, 42))
    assert large.counts == {1: 30017, 4: 19508, 7: 11781, 10: 5658, 13: 2111,
                            16: 707, 19: 177, 22: 38, 25: 3}
    small = simulate(SimConfig(WalkModel.double_small(), 64, 1000, 42))
    assert small.counts == {1: 212, 4: 193, 7: 180, 10: 124, 13: 106, 16: 75,
                            19: 48, 22: 35, 25: 20, 28: 6, 34: 1}


def test_simulate_zero_steps():
    result = simulate(SimConfig(WalkModel.double_small(), 0, 17, 5))
    assert result.counts == {0: 17}


def test_simulate_validates_config():
    model = WalkModel.double_large()
    with pytest.raises(ValueError, match="trials"):
        simulate(SimConfig(model, 3, 0, 1))
    with pytest.raises(ValueError, match="steps"):
        simulate(SimConfig(model, -1, 10, 1))


def test_simulate_visits_beta():
    result = simulate(SimConfig(WalkModel.double_large(), 1, 3000, 11))
    assert set(result.counts) == {2, BETA}
    assert result.count(2) + result.count(BETA) == 3000
    assert result.frequency(BETA) == Fraction(result.count(BETA), 3000)


def test_four_sigma_report_small_run_within_bounds():
    for model in (WalkModel.double_large(), WalkModel.double_small()):
        exact = dp_distribution(model, 6)
        empirical = simulate(SimConfig(model, 6, 100_000, 1729))
        report = four_sigma_report(empirical, exact)
        assert [cell.state for cell in report] == exact.support()
        assert all(cell.within for cell in report)


def test_four_sigma_report_flags_impossible_state():
    exact = StepDistribution(2, 9, {1: 8, 4: 1})
    fabricated = EmpiricalDistribution(2, 100, 0, {1: 88, 4: 10, 7: 2})
    report = four_sigma_report(fabricated, exact)
    offender = [cell for cell in report if cell.state == 7]
    assert len(offender) == 1
    assert offender[0].expected == 0
    assert not offender[0].within


def test_four_sigma_report_checks_step_agreement():
    exact = dp_distribution(WalkModel.double_large(), 4)
    empirical = simulate(SimConfig(WalkModel.double_large(), 5, 100, 3))
    with pytest.raises(ValueError, match="step count"):
        four_sigma_report(empirical, exact)


def test_four_sigma_decision_is_exact():
    """The within flag uses the squared rational inequality, not floats."""
    exact = StepDistribution(0, 1, {0: 1})
    empirical = EmpiricalDistribution(0, 4, 0, {0: 4})
    cell = four_sigma_report(empirical, exact)[0]
    assert cell.within and cell.deviation == 0 and cell.bound == 0.0
