"""Seeded request generators, one per workload.

Each generator turns a workload seed into one pass of CLI argument lists
(argv without the program name).  The program never sees the seed; it
only receives the generated argv.

Request sizes sit on a fixed grid per workload and the seed jitters them
by about one percent.  The seed also picks states, formats, walk seeds,
probabilities of equal denominator and, except in ``exact-tables``, the
order of the pass.  Every seed therefore asks for nearly the same amount
of work, which keeps pass times comparable between seeds while the exact
outputs still differ.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

LARGE = "double-large"
SMALL = "double-small"

# The 20000-trial simulation suite behind ``verify`` is a 4-sigma test,
# so about one seed in 3000 fails it by chance with correct code.  Seeds
# 0..2999 were run once; 318 is the only one that fails.
VERIFY_SEED_POOL = [s for s in range(3000) if s != 318]


def residue(model: str, state: str) -> int:
    """Residue r such that ``state`` can carry mass only at steps = r (mod 3)."""
    if model == LARGE:
        return 1 if state == "beta" else (-int(state)) % 3
    return 2 if state == "beta" else int(state) % 3


def frontier(model: str, steps: int) -> int:
    """Largest numbered state the walk can reach in ``steps`` steps."""
    return 2 * steps if model == LARGE else steps


def _grid(lo: float, hi: float, k: int) -> list[float]:
    """k evenly spaced points from lo to hi inclusive."""
    return [lo + (hi - lo) * i / (k - 1) for i in range(k)]


def _jitter(rng: random.Random, value: float, share: float, lo: int, hi: int) -> int:
    """``value`` moved by at most ``share`` of itself, as an int in [lo, hi]."""
    moved = value * (1 + share * (2 * rng.random() - 1))
    return min(hi, max(lo, round(moved)))


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("csv", "json"))]


def _on_residue_state(model: str, steps: int, target: int) -> int:
    """The numbered state at or just below ``target`` that is on the residue class."""
    if model == LARGE:
        state = target - (target + steps) % 3
    else:
        state = target - (target - steps) % 3
    while state < 0:
        state += 3
    return state


def _coeff(model: str, state: object, steps: int, source: str) -> list[str]:
    return ["coeff", "--model", model, "--state", str(state), "--steps", str(steps),
            "--source", source]


def exact_tables(rng: random.Random) -> list[list[str]]:
    """Full tables for both walks plus three long DP coefficients.

    Table sizes sit five steps apart, so the latencies around p50 lie
    close together and the median does not jump between two distant
    requests.  A JSON table costs as much as a CSV one some ten steps
    larger, so along an alternating grid the largest tables leave gaps
    between their latencies.  The double-large grid therefore stops at
    165 steps, and eight JSON tables near 190 steps sit above it: with
    the two long coefficients above them, p90 falls inside these eight.
    The pass has one mixed order for every seed: mixed, so that the
    start of a pass spans all sizes; one order, because the heap left by
    earlier requests moves the peak memory of the largest table by
    several MB.
    """
    reqs = []
    # Formats alternate along the size grid: the largest table's format
    # sets the peak memory, so the seed must not choose it.
    for model, grid, phase in ((LARGE, _grid(55, 165, 23), 0), (SMALL, _grid(55, 195, 29), 1)):
        for i, n in enumerate(grid):
            steps = _jitter(rng, n, 0.01, 50, 200)
            fmt = ("csv", "json")[(i + phase) % 2]
            reqs.append(["table", "--model", model, "--steps", str(steps), "--format", fmt])
    for _ in range(8):
        steps = _jitter(rng, 190, 0.01, 50, 200)
        reqs.append(["table", "--model", LARGE, "--steps", str(steps), "--format", "json"])
    # (walk, probability, steps): the DP cost and memory depend on all
    # three, so they stay fixed and the seed only jitters the step count.
    for model, p, n in ((LARGE, None, 220), (LARGE, "3/7", 360), (SMALL, "2/7", 590)):
        steps = _jitter(rng, n, 0.01, 200, 600)
        # The DP builds the whole table whatever the state, so the state
        # only decides the answer: on-residue near the origin, or anywhere.
        if rng.random() < 0.75:
            state = str(_on_residue_state(model, steps, rng.randrange(3 * int(steps**0.5))))
        else:
            state = rng.choice(["beta", str(rng.randrange(frontier(model, steps) + 1))])
        req = _coeff(model, state, steps, "dp")
        if p is not None:
            req += ["--p", p]
        reqs.append(req + _fmt(rng))
    random.Random(0).shuffle(reqs)
    return reqs


def _off(model: str, steps: int, rng: random.Random) -> int:
    """A numbered state inside the band but off the residue class."""
    state = rng.randrange(frontier(model, steps) + 1)
    if residue(model, str(state)) == steps % 3:
        state = state + 1 if state + 1 <= frontier(model, steps) else state - 1
    return state


def closed_forms(rng: random.Random) -> list[list[str]]:
    """Short closed-form coefficients plus series expansions.

    Of the 74 coefficient requests, 8 are off the residue class and 8 lie
    beyond the frontier (at most twice it), so both return an exact 0.
    On the step grid, numbered double-large states stay at or below 1200,
    where a coefficient costs at most about 0.2 s; two more requests sit
    at the top of the band, near 1000 and 2000 steps, where one costs
    0.4 and 2.5 s.  Of the f0 and g0 series, six each sit near order 133,
    so the samples around p90 come from requests of one size and p90
    does not jump between two distant requests.
    """
    reqs = []
    points = _grid(0.0, 1.0, 24)
    shuffled = points[::-1][::2] + points[::-1][1::2]  # fixed pairing of steps and position
    for model, cap in ((LARGE, 1200), (SMALL, 2000)):
        for n, pos in zip(_grid(3, 2000, 24), shuffled):
            steps = _jitter(rng, n, 0.01, 1, 2000)
            pos = min(1.0, max(0.0, pos + (rng.random() - 0.5) / 48))
            target = int(pos * min(frontier(model, steps), cap))
            state = _on_residue_state(model, steps, target)
            reqs.append(_coeff(model, state, steps, "closed-form") + _fmt(rng))
    for n in (1000, 2000):
        steps = _jitter(rng, n, 0.01, 1, 2000)
        state = _on_residue_state(LARGE, steps, frontier(LARGE, steps) - rng.randrange(9))
        reqs.append(_coeff(LARGE, state, steps, "closed-form") + _fmt(rng))
    for model in (LARGE, SMALL):
        for n in _grid(30, 1990, 4):
            steps = _jitter(rng, n, 0.01, 1, 2000)
            steps -= (steps - residue(model, "beta")) % 3
            reqs.append(_coeff(model, "beta", steps, "closed-form") + _fmt(rng))
        for i, n in enumerate(_grid(30, 1990, 4)):
            steps = _jitter(rng, n, 0.01, 1, 2000)
            if i % 2:
                state = "beta" if residue(model, "beta") != steps % 3 else _off(model, steps, rng)
            else:
                state = _off(model, steps, rng)
            reqs.append(_coeff(model, state, steps, "closed-form") + _fmt(rng))
        # Beyond the frontier: double-large work grows with the state, so
        # its steps stay in 60..600; double-small returns at once.
        lo, hi = (60, 600) if model == LARGE else (30, 2000)
        for n, pos in zip(_grid(lo, hi, 4), (0.8, 0.2, 0.6, 0.4)):
            steps = _jitter(rng, n, 0.01, 1, 2000)
            edge = frontier(model, steps)
            target = edge + 3 + int(pos * (edge - 3))
            reqs.append(_coeff(model, _on_residue_state(model, steps, target), steps,
                               "closed-form") + _fmt(rng))
    cluster = [133] * 6
    for which, orders in (("t", _grid(50, 200, 4)), ("inv1mt", _grid(50, 200, 4)),
                          ("u1", _grid(50, 200, 4)), ("f0", _grid(50, 200, 4) + cluster),
                          ("g0", _grid(50, 200, 4) + cluster)):
        for n in orders:
            order = _jitter(rng, n, 0.01, 50, 200)
            reqs.append(["series", "--which", which, "--order", str(order)] + _fmt(rng))
    rng.shuffle(reqs)
    return reqs


def monte_carlo(rng: random.Random) -> list[list[str]]:
    """Simulations of both walks from 10^5 to 10^6 trials and 6 to 100 steps.

    Both grids are log-spaced and paired largest with smallest, so every
    request draws between 6e6 and 1e7 coins.  The top grid point uses
    exactly 10^6 trials, which sets the peak memory of the pass.
    """
    trials = [round(10 ** (5 + i / 11)) for i in range(12)]
    steps = [6 * (100 / 6) ** (i / 11) for i in range(12)][::-1]
    reqs = []
    for i, (t, n) in enumerate(zip(trials, steps)):
        if i < 11:
            t = _jitter(rng, t, 0.01, 100_000, 999_999)
        n = _jitter(rng, n, 0.01, 6, 100)
        for model in (LARGE, SMALL):
            reqs.append(["simulate", "--model", model, "--steps", str(n), "--trials", str(t),
                         "--seed", str(rng.randrange(2**32))] + _fmt(rng))
    rng.shuffle(reqs)
    return reqs


def verify(rng: random.Random) -> list[list[str]]:
    """The default verification plus three larger ones, up to order 62 and
    60 steps.

    Larger orders go with fewer steps, so the three larger requests cost
    the same within a few percent, about 1.7 times the default one.  The
    per-request medians that set p50 and p90 then come from requests of
    one size, and a pass is short enough to repeat three or four times
    in a run.
    """
    reqs = [["verify", "--seed", str(rng.choice(VERIFY_SEED_POOL))]]
    for order, max_steps in ((48, 50), (62, 20), (40, 60)):
        reqs.append(["verify", "--order", str(_jitter(rng, order, 0.02, 30, 100)),
                     "--max-steps", str(_jitter(rng, max_steps, 0.02, 20, 60)),
                     "--seed", str(rng.choice(VERIFY_SEED_POOL))])
    rng.shuffle(reqs)
    return reqs


GENERATORS = {
    "exact-tables": exact_tables,
    "closed-forms": closed_forms,
    "monte-carlo": monte_carlo,
    "verify": verify,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """One pass of requests for ``workload``; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
