"""Tests for the walk models, their DP and the brute-force oracle."""

import csv
import io
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knoedel import cli, verification
from knoedel.models import (
    BETA,
    ModelKind,
    WalkModel,
    brute_force_distribution,
    denominator_power,
    dp_distribution,
    dp_numerators,
    dp_table,
    frontier,
    parse_state,
    residue_class,
    state_sort_key,
)

probabilities = st.fractions(
    min_value=Fraction(1, 50), max_value=Fraction(49, 50), max_denominator=50
)


def assert_passes_on(walks, suite, *args):
    """Run ``suite`` on ``walks`` in place of the balanced walks; it must
    make checks and pass them all."""
    with patch.object(verification, "_both_models", lambda: walks):
        result = suite(*args)
    assert result.checks and result.passed, result.failures[:5]


def test_double_large_step():
    m = WalkModel.double_large()
    assert (m.step(0, True), m.step(0, False)) == (2, BETA)
    assert (m.step(3, True), m.step(3, False)) == (5, 2)
    assert (m.step(1, True), m.step(1, False)) == (3, 0)
    assert (m.step(BETA, True), m.step(BETA, False)) == (1, 1)


def test_double_small_step():
    m = WalkModel.double_small()
    assert (m.step(0, True), m.step(0, False)) == (1, 1)
    assert (m.step(1, True), m.step(1, False)) == (2, BETA)
    assert (m.step(4, True), m.step(4, False)) == (5, 2)
    assert (m.step(BETA, True), m.step(BETA, False)) == (0, 0)


def test_walk_model_validation():
    with pytest.raises(ValueError):
        WalkModel.double_large(Fraction(0))
    with pytest.raises(ValueError):
        WalkModel.double_large(Fraction(1))
    with pytest.raises(ValueError):
        WalkModel.double_small(Fraction(3, 2))


def test_balanced_flag():
    assert WalkModel.double_large().is_balanced
    assert WalkModel.double_small().is_balanced
    assert not WalkModel.double_large(Fraction(1, 2)).is_balanced
    assert not WalkModel.double_small(Fraction(1, 3)).is_balanced


def test_double_large_early_rows():
    rows = dp_table(WalkModel.double_large(), 4)
    assert rows[0].probabilities == {0: Fraction(1)}
    assert rows[1].probabilities == {2: Fraction(1, 3), BETA: Fraction(2, 3)}
    assert rows[2].probabilities == {4: Fraction(1, 9), 1: Fraction(8, 9)}
    assert rows[3].probabilities == {
        6: Fraction(1, 27),
        3: Fraction(10, 27),
        0: Fraction(16, 27),
    }
    assert rows[4].probabilities == {
        8: Fraction(1, 81),
        5: Fraction(12, 81),
        2: Fraction(36, 81),
        BETA: Fraction(32, 81),
    }


def test_double_small_early_rows():
    rows = dp_table(WalkModel.double_small(), 6)
    assert rows[1].probabilities == {1: Fraction(1)}
    assert rows[2].probabilities == {2: Fraction(2, 3), BETA: Fraction(1, 3)}
    assert rows[3].probabilities == {3: Fraction(4, 9), 0: Fraction(5, 9)}
    assert rows[4].probabilities == {4: Fraction(8, 27), 1: Fraction(19, 27)}
    assert rows[5].probabilities == {
        5: Fraction(16, 81),
        2: Fraction(46, 81),
        BETA: Fraction(19, 81),
    }
    assert rows[6].prob(0) == Fraction(103, 243)


def test_dp_distribution_returns_requested_step():
    dist = dp_distribution(WalkModel.double_large(), 3)
    assert dist.step == 3
    assert dist.prob(0) == Fraction(16, 27)
    for p in (None, Fraction(2, 7)):
        for model in (WalkModel.double_large(p), WalkModel.double_small(p)):
            for n in (0, 1, 20):
                assert dp_distribution(model, n) == dp_table(model, n)[-1]


@given(probabilities)
@settings(max_examples=25)
def test_brute_force_agrees_for_unbalanced_probability(p):
    walks = [WalkModel.double_large(p), WalkModel.double_small(p)]
    assert_passes_on(walks, verification.oracle_equivalence_suite, 7)


def mask_replay_distribution(model, steps):
    """Every coin sequence replayed from state 0 in full, bit k of the mask
    being coin k, each path weighted p^(reds) q^(blacks) over Fraction."""
    acc = {}
    for mask in range(1 << steps):
        state = 0
        for k in range(steps):
            state = model.step(state, bool(mask >> k & 1))
        reds = bin(mask).count("1")
        acc[state] = acc.get(state, 0) + model.p**reds * model.q ** (steps - reds)
    return acc


@pytest.mark.parametrize("p", [None, Fraction(3, 7), Fraction(2, 7)])
@pytest.mark.parametrize("kind", ["double_large", "double_small"])
def test_brute_force_matches_mask_replay(kind, p):
    model = getattr(WalkModel, kind)(p)
    for n in range(13):
        got = brute_force_distribution(model, n)
        assert got.step == n
        assert got.probabilities == mask_replay_distribution(model, n)


def test_brute_force_limit():
    with pytest.raises(ValueError, match="oracle limit exceeded"):
        brute_force_distribution(WalkModel.double_large(), 23)


def test_negative_steps_rejected():
    with pytest.raises(ValueError):
        dp_table(WalkModel.double_large(), -1)
    with pytest.raises(ValueError):
        brute_force_distribution(WalkModel.double_large(), -1)


@given(probabilities)
@settings(max_examples=40)
def test_rows_are_distributions_for_any_probability(p):
    """Every DP row sums to one and keeps its residue class and frontier
    regardless of the red probability, and stores no zero mass."""
    walks = [WalkModel.double_large(p), WalkModel.double_small(p)]
    assert_passes_on(walks, verification.normalization_and_support_suite, 8)
    for model in walks:
        for row in dp_table(model, 8):
            assert all(mass > 0 for mass in row.probabilities.values())


@given(probabilities)
@settings(max_examples=25)
def test_double_large_recursion_for_any_probability(p):
    """Mass at step n satisfies the incoming-edge equations of the model."""
    walks = [WalkModel.double_large(p)]
    assert_passes_on(walks, verification.recursion_fidelity_suite, 7)


@given(probabilities)
@settings(max_examples=25)
def test_double_small_recursion_for_any_probability(p):
    walks = [WalkModel.double_small(p)]
    assert_passes_on(walks, verification.recursion_fidelity_suite, 7)


def test_each_dp_suite_catches_one_wrong_numerator(monkeypatch):
    """One numerator unit too many at one state of one double-small row
    fails every suite that reads the DP rows, and each first failure label
    names the walk, the step and, where the suite compares states, the
    state, with the masses in lowest terms."""

    def bumped(model, max_steps):
        rows = dp_table(model, max_steps)
        if model.kind is ModelKind.DOUBLE_SMALL:
            assert rows[5].den == 81 and rows[5].numerators[2] == 46
            rows[5].numerators[2] += 1
        return rows

    monkeypatch.setattr(verification, "dp_table", bumped)
    for suite, label in [
        ("normalization_and_support_suite", "double-small step 5: total 82/81"),
        ("oracle_equivalence_suite", "double-small step 5: dp and brute force disagree"),
        ("recursion_fidelity_suite", "double-small step 5: state 2 breaks the recursion"),
        ("closed_form_grid_suite", "double-small step 5 state 2: closed form 46/81 != dp 47/81"),
    ]:
        result = getattr(verification, suite)(9)
        assert not result.passed, suite
        assert result.failures[0] == label


# Checks per suite, in ``run_verification``'s order, for ``verify`` at its
# default sizes and with a larger step count.
VERIFY_CHECKS = {
    (): (1096, 26, 1515, 1519, 28, 3, 82, 252, 8),
    ("--max-steps", "50"): (2822, 26, 4025, 4029, 28, 3, 82, 252, 8),
}


@pytest.mark.parametrize("sizes", list(VERIFY_CHECKS), ids=["defaults", "max-steps-50"])
def test_every_suite_keeps_its_check_count(capsys, sizes):
    assert cli.main(["verify", "--format", "csv", *sizes]) == 0
    rows = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert tuple(int(row["checks"]) for row in rows) == VERIFY_CHECKS[sizes]


def test_residue_class_values():
    m1 = WalkModel.double_large()
    m2 = WalkModel.double_small()
    assert residue_class(m1, 0) == 0
    assert residue_class(m1, 1) == 2
    assert residue_class(m1, 2) == 1
    assert residue_class(m1, BETA) == 1
    assert residue_class(m2, 0) == 0
    assert residue_class(m2, 1) == 1
    assert residue_class(m2, 2) == 2
    assert residue_class(m2, BETA) == 2


def test_support_obeys_residue_class_and_frontier():
    assert frontier(WalkModel.double_large(), 5) == 10
    assert frontier(WalkModel.double_small(), 5) == 5
    for model in (WalkModel.double_large(), WalkModel.double_small()):
        for row in dp_table(model, 15):
            for state in row.support():
                assert residue_class(model, state) == row.step % 3
            numbered = [state for state in row.support() if isinstance(state, int)]
            assert max(numbered) == frontier(model, row.step)


@pytest.mark.parametrize("p", [None, Fraction(1, 2), Fraction(2, 7)])
@pytest.mark.parametrize("kind", ["double_large", "double_small"])
def test_largest_denominator_is_a_power_of_p_denominator(kind, p):
    """b**denominator_power is the largest reduced denominator at every
    step, the denominator ``dp_numerators`` yields, and the frontier state
    carries p**denominator_power."""
    model = getattr(WalkModel, kind)(p)
    for row, (_, den, _) in zip(dp_table(model, 40), dp_numerators(model, 0, 40)):
        power = denominator_power(model, row.step)
        largest = max(mass.denominator for mass in row.probabilities.values())
        assert largest == den == model.p.denominator**power, row.step
        assert row.prob(frontier(model, row.step)) == model.p**power, row.step


def test_state_parsing_and_formatting():
    assert parse_state("beta") is BETA
    assert parse_state(" Beta ") is BETA
    assert parse_state("7") == 7
    assert str(BETA) == "beta"
    assert str(12) == "12"
    with pytest.raises(ValueError):
        parse_state("-3")
    with pytest.raises(ValueError):
        parse_state("sigma")


def test_state_sort_key_puts_beta_last():
    states = [BETA, 4, 0, 7]
    assert sorted(states, key=state_sort_key) == [0, 4, 7, BETA]
