"""Exact step distributions of the two walks, and the mod-3 support law.

Both walks start at 0.  The double-large walk jumps +2 with probability
1/3 and -1 with probability 2/3; the double-small walk jumps +1 with
probability 2/3 and -2 with probability 1/3.  Near the origin the jumps
bend into the exceptional state BETA, "one box filled to 1/3".  Because
every jump changes the state by +2 or -1 (mod 3 both are -1), the
support of step n lives in a single residue class mod 3.
"""

from knoedel import (
    WalkModel,
    brute_force_distribution,
    dp_table,
    residue_class,
)

STEPS = 9


def show_table(model):
    print(f"\n=== {model.name} walk, p = {model.p} ===")
    for row in dp_table(model, STEPS):
        cells = "  ".join(f"{s}:{row.prob(s)}" for s in row.support())
        print(f"  n={row.step:2d} (residue {row.step % 3})   {cells}")
        assert row.total() == 1, "mass must always sum to one"


def show_residue_law(model):
    print(f"\nresidue classes of {model.name} states:")
    states = [0, 1, 2, 3, 4, 5]
    line = ", ".join(f"{s} -> {residue_class(model, s)}" for s in states)
    from knoedel import BETA

    print(f"  {line}, beta -> {residue_class(model, BETA)}")


def cross_check(model):
    """Brute-force path enumeration agrees with the dynamic program."""
    n = 8
    brute = brute_force_distribution(model, n)
    exact = dp_table(model, n)[n]
    assert brute.probabilities == exact.probabilities
    print(f"\n{model.name}: brute force over 2^{n} coin sequences matches dp at n={n}")


if __name__ == "__main__":
    for model in (WalkModel.double_large(), WalkModel.double_small()):
        show_table(model)
        show_residue_law(model)
        cross_check(model)
