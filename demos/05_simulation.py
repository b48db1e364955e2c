"""Seeded Monte Carlo against exact probabilities, with 4-sigma bounds.

The simulation uses SplitMix64 substreams derived from (seed, trial
index), so the same seed always reproduces the same tallies no matter
how the trials are batched.  Red draws are decided by an exact integer
threshold comparison; nothing in the pipeline touches floating point
until the final display.
"""

from knoedel import (
    DEFAULT_SEED,
    SimConfig,
    WalkModel,
    dp_distribution,
    four_sigma_report,
    simulate,
)

TRIALS = 200_000
STEPS = 9


def run(model):
    print(f"\n=== {model.name}, {TRIALS} trials, {STEPS} steps, seed {DEFAULT_SEED} ===")
    empirical = simulate(SimConfig(model, STEPS, TRIALS, DEFAULT_SEED))
    exact = dp_distribution(model, STEPS)
    print(f"{'state':>6} {'count':>8} {'frequency':>12} {'exact':>12} "
          f"{'deviation':>12} {'4-sigma':>10}")
    for cell in four_sigma_report(empirical, exact):
        print(
            f"{cell.state!s:>6} {cell.count:>8} "
            f"{float(cell.frequency):>12.6f} {float(cell.expected):>12.6f} "
            f"{float(cell.deviation):>12.6f} {cell.bound:>10.6f}"
            + ("" if cell.within else "  OUTSIDE")
        )
    assert all(cell.within for cell in four_sigma_report(empirical, exact))


def reproducibility():
    config = SimConfig(WalkModel.double_large(), STEPS, TRIALS, DEFAULT_SEED)
    assert simulate(config).counts == simulate(config).counts
    print("\nre-running with the same seed reproduces identical tallies")


if __name__ == "__main__":
    for model in (WalkModel.double_large(), WalkModel.double_small()):
        run(model)
    reproducibility()
