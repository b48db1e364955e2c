"""Tests for the seeded simulation and its deviation reports."""

import tracemalloc
from fractions import Fraction

import pytest

from knoedel import montecarlo
from knoedel.models import BETA, StepDistribution, WalkModel, dp_distribution, successor_slots
from knoedel.montecarlo import (
    EmpiricalDistribution,
    SimConfig,
    four_sigma_report,
    mix64,
    red_threshold,
    simulate,
    splitmix_draw,
    successor_table,
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
    """From 63 steps on the walks' tables need uint16 positions."""
    for model in (WalkModel.double_large(), WalkModel.double_small(Fraction(4, 5))):
        _, table = successor_table(model, 130)
        assert max(table) > 255
        config = SimConfig(model, steps=130, trials=40, seed=77)
        assert simulate(config).counts == replay(config)[0]


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
    for steps in (0, 1, 2, 9):
        states, red, black = successor_slots(model, steps)
        table_states, table = successor_table(model, steps)
        assert table_states == states
        assert len(table) == 2 * len(states)
        for slot in range(len(states)):
            assert table[2 * slot] == 2 * black[slot]
            assert table[2 * slot + 1] == 2 * red[slot]
        # The states first reached at the last step move past the last slot.
        assert max(table) >= 2 * len(states)


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
    """A call holds, per trial of a block, four uint64 arrays, one intp,
    one bool and one uint8 position (fewer than 256 positions at 40
    steps), 42 bytes; no step and no block adds a temporary as large as
    one bool per trial."""
    tracemalloc.start()
    try:
        simulate(SimConfig(WalkModel.double_large(), 40, montecarlo.BLOCK, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * montecarlo.BLOCK + montecarlo.BLOCK // 2, peak


def test_simulate_is_deterministic():
    config = SimConfig(WalkModel.double_large(), 7, 5000, 99)
    assert simulate(config).counts == simulate(config).counts


def test_simulate_frozen_counts():
    """Regression pins for the cross-version reproducibility promise."""
    large = simulate(SimConfig(WalkModel.double_large(), 6, 1000, 42))
    assert large.counts == {0: 469, 3: 378, 6: 133, 9: 20}
    small = simulate(SimConfig(WalkModel.double_small(), 7, 1000, 42))
    assert small.counts == {1: 591, 4: 328, 7: 81}


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
    exact = StepDistribution(2, {1: Fraction(8, 9), 4: Fraction(1, 9)})
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
    exact = StepDistribution(0, {0: Fraction(1)})
    empirical = EmpiricalDistribution(0, 4, 0, {0: 4})
    cell = four_sigma_report(empirical, exact)[0]
    assert cell.within and cell.deviation == 0 and cell.bound == 0.0
