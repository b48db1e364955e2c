"""The two ternary Knoedel walks and their exact step distributions.

Both walks move on the state set {0, 1, 2, ...} together with one
exceptional state ``BETA``, read as "one box filled to 1/3".  The integer
state counts open boxes in an online packing process; each step draws a
biased coin that is red with probability p and black with probability q.

Double-large walk (default p = 1/3):
    red   at i       -> i + 2   (a double pack opens two boxes)
    black at i >= 1  -> i - 1   (a single item closes a box)
    black at 0       -> BETA    (a single item starts a lone box)
    from BETA        -> 1       (either colour; edges merge)

Double-small walk (default p = 2/3):
    red   at i >= 1  -> i + 1   (a large single opens a box)
    black at i >= 2  -> i - 2   (a small double pack closes two boxes)
    black at 1       -> BETA
    from BETA        -> 0       (either colour)
    from 0           -> 1       (either colour)

Each walk starts at 0.  Because every productive move changes the box
count by +2/-1 (or +1/-2), the support of the step-n distribution lives
in a single residue class mod 3; ``residue_class`` returns it.

The moves are written once, in ``step``; ``successor_table`` reads one
table of slots off it, which both the forward dynamic program
(``dp_numerators``) and the simulation run on.  For p = a/b the DP
carries integer numerators over b^e, e = ``denominator_power``, the red
edge weighing a and the black edge b - a, and yields each step's nonzero
numerators in support order.  ``dp_table`` and ``dp_distribution`` keep
those rows as they are, each a ``StepDistribution`` of integer numerators
over its b^e; ``dp_distribution`` keeps only the last row.  A brute-force
sum over all coin sequences (``brute_force_distribution``), walked depth
first through ``step`` with integer path counts, is the oracle it is
checked against; its masses sit over b^steps.  A ``Fraction`` is formed
only where a mass is read: ``prob``, ``probabilities`` and ``total``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress
from typing import Iterator, Union


class _BetaState:
    """Singleton marker for the exceptional one-third-box state."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "beta"


BETA = _BetaState()

State = Union[int, _BetaState]


def state_sort_key(state: State) -> tuple[int, int]:
    """Sort numbered states ascending, with BETA after all integers."""
    if isinstance(state, _BetaState):
        return (1, 0)
    return (0, state)


def parse_state(text: str) -> State:
    """Parse a state from its serialized form, an integer or ``beta``."""
    if text.strip().lower() == "beta":
        return BETA
    value = int(text)
    if value < 0:
        raise ValueError(f"invalid state {text!r}")
    return value


class ModelKind(Enum):
    DOUBLE_LARGE = "double-large"
    DOUBLE_SMALL = "double-small"


BALANCED_RED = {
    ModelKind.DOUBLE_LARGE: Fraction(1, 3),
    ModelKind.DOUBLE_SMALL: Fraction(2, 3),
}


@dataclass(frozen=True)
class WalkModel:
    """One of the two walks, with an arbitrary rational red probability."""

    kind: ModelKind
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError("red probability must satisfy 0 < p < 1")

    @classmethod
    def double_large(cls, p: Fraction | None = None) -> WalkModel:
        kind = ModelKind.DOUBLE_LARGE
        return cls(kind, BALANCED_RED[kind] if p is None else p)

    @classmethod
    def double_small(cls, p: Fraction | None = None) -> WalkModel:
        kind = ModelKind.DOUBLE_SMALL
        return cls(kind, BALANCED_RED[kind] if p is None else p)

    @property
    def q(self) -> Fraction:
        return 1 - self.p

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def is_balanced(self) -> bool:
        """Whether p has the default value the closed forms are derived for."""
        return self.p == BALANCED_RED[self.kind]

    def step(self, state: State, red: bool) -> State:
        """Single transition for one coin draw."""
        if self.kind is ModelKind.DOUBLE_LARGE:
            if isinstance(state, _BetaState):
                return 1
            if red:
                return state + 2
            return state - 1 if state >= 1 else BETA
        if isinstance(state, _BetaState):
            return 0
        if state == 0:
            return 1
        if red:
            return state + 1
        return BETA if state == 1 else state - 2


@dataclass
class StepDistribution:
    """Exact distribution of the walk after ``step`` steps: state s has
    mass ``numerators[s] / den``.

    Only states with mass have a numerator.  The masses are read as
    ``Fraction``s, each formed on read.
    """

    step: int
    den: int
    numerators: dict[State, int]

    @property
    def probabilities(self) -> dict[State, Fraction]:
        den = self.den
        return {state: Fraction(m, den) for state, m in self.numerators.items()}

    def prob(self, state: State) -> Fraction:
        return Fraction(self.numerators.get(state, 0), self.den)

    def support(self) -> list[State]:
        """States with mass, BETA last; no route stores a zero mass."""
        return sorted(self.numerators, key=state_sort_key)

    def total(self) -> Fraction:
        return Fraction(sum(self.numerators.values()), self.den)


def successor_table(model: WalkModel, steps: int) -> tuple[list[State], list[int]]:
    """Slot states and their successor table, read off ``step``.

    The slots hold BETA and then every numbered state the walk can reach
    in ``steps`` steps, so numbered state i sits in slot i + 1.  Entry
    2 * slot + red of the table is the slot that the state in ``slot``
    moves to on that draw.  Successors of the states first reached at
    step ``steps`` may lie past the last slot; a walk of ``steps`` steps
    never moves from those states.
    """
    states = [BETA, *range(frontier(model, steps) + 1)]
    return states, [
        0 if isinstance(nxt, _BetaState) else nxt + 1
        for state in states
        for nxt in (model.step(state, False), model.step(state, True))
    ]


def dp_numerators(
    model: WalkModel, first: int, last: int
) -> Iterator[tuple[int, int, list[tuple[State, int]]]]:
    """Yield (n, b**denominator_power(model, n), row) for steps first..last,
    for p = a/b.

    ``row`` holds (state, m) for each state whose mass m / b**e at step n
    is nonzero, in support order: numbered states ascending, then BETA.
    Only the current step's numerators are held, and step n walks only the
    slots reachable at step n - 1.
    """
    if last < 0:
        raise ValueError("step count must be non-negative")
    states, table = successor_table(model, last)
    numbered = states[1:]
    black, red = table[0::2], table[1::2]
    base = model.p.denominator
    red_weight = model.p.numerator
    black_weight = base - red_weight
    masses = [0, 1]  # BETA, then state 0: the walk starts at 0
    den = 1
    for n in range(last + 1):
        if n:
            nxt = [0] * (frontier(model, n) + 2)
            for mass, up, down in compress(zip(masses, red, black), masses):
                nxt[up] += red_weight * mass
                nxt[down] += black_weight * mass
            # ``denominator_power`` grows by one at every step after the
            # first; where the first step does not grow it, b divides the
            # new masses.
            if n == 1 and denominator_power(model, 1) == 0:
                nxt = [mass // base for mass in nxt]
            else:
                den *= base
            masses = nxt
        if n >= first:
            tail = masses[1:]
            row = list(compress(zip(numbered, tail), tail))
            if masses[0]:
                row.append((BETA, masses[0]))
            yield n, den, row


def _dp_rows(model: WalkModel, first: int, last: int) -> list[StepDistribution]:
    """Step distributions first..last, the rows of ``dp_numerators``."""
    return [
        StepDistribution(n, den, dict(row)) for n, den, row in dp_numerators(model, first, last)
    ]


def dp_table(model: WalkModel, max_steps: int) -> list[StepDistribution]:
    """Step distributions 0..max_steps by forward dynamic programming."""
    return _dp_rows(model, 0, max_steps)


def dp_distribution(model: WalkModel, steps: int) -> StepDistribution:
    """Exact distribution after ``steps`` steps, without the earlier rows."""
    return _dp_rows(model, steps, steps)[0]


BRUTE_FORCE_LIMIT = 22


def brute_force_distribution(model: WalkModel, steps: int) -> StepDistribution:
    """Distribution by summing over all 2^steps coin sequences.

    Deliberately independent of ``dp_table``: the tree of coin sequences
    is walked depth first, one coin at a time through ``step``, so paths
    that share a prefix share its steps and at most steps + 1 branches
    wait at any time.  Each leaf counts one path by (state, reds).  For p = a/b a
    path with r reds weighs a^r (b-a)^(steps-r) / b^steps, so each state's
    mass is one integer numerator over b^steps, summed after the walk.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    if steps > BRUTE_FORCE_LIMIT:
        raise ValueError("oracle limit exceeded")
    paths: dict[tuple[State, int], int] = {}
    branches: list[tuple[State, int, int]] = [(0, 0, 0)]  # (state, coins drawn, reds)
    while branches:
        state, drawn, reds = branches.pop()
        if drawn == steps:
            paths[state, reds] = paths.get((state, reds), 0) + 1
            continue
        branches.append((model.step(state, False), drawn + 1, reds))
        branches.append((model.step(state, True), drawn + 1, reds + 1))
    red_weight = model.p.numerator
    black_weight = model.p.denominator - red_weight
    masses: dict[State, int] = {}
    for (state, reds), count in paths.items():
        weight = count * red_weight**reds * black_weight ** (steps - reds)
        masses[state] = masses.get(state, 0) + weight
    return StepDistribution(steps, model.p.denominator**steps, masses)


def residue_class(model: WalkModel, state: State) -> int:
    """Residue r such that the state can carry mass only when n = r (mod 3)."""
    if model.kind is ModelKind.DOUBLE_LARGE:
        if isinstance(state, _BetaState):
            return 1
        return (-state) % 3
    if isinstance(state, _BetaState):
        return 2
    return state % 3


def frontier(model: WalkModel, steps: int) -> int:
    """Largest numbered state the walk can reach in ``steps`` steps."""
    return 2 * steps if model.kind is ModelKind.DOUBLE_LARGE else steps


def denominator_power(model: WalkModel, steps: int) -> int:
    """Exponent e such that, for p = a/b in lowest terms, b^e is the
    largest reduced denominator of the step distribution at ``steps``.

    Every mass sits over b^e, and the frontier state's mass is p^e: e is
    ``steps`` for double-large, and one less for double-small, whose first
    move 0 -> 1 takes either colour.
    """
    if model.kind is ModelKind.DOUBLE_LARGE:
        return steps
    return max(steps - 1, 0)
