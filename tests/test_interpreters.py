"""The numpy-free commands print the same bytes on every Python that
``requires-python`` admits and that this machine has.

Each interpreter at 3.10.7 or later found in ``~/.pyenv/versions/3.1*/bin``
or as ``python3.1x`` on ``PATH`` runs ``COMMANDS`` in one child process
through ``knoedel.cli.main``, and its stdout must equal, byte for byte,
that of a child of the interpreter running the tests.  The children need
only the standard library: ``table``, ``coeff`` and ``series`` never
import numpy.  Without another such interpreter the test skips.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import knoedel
from knoedel import cli, exactmath
from knoedel.models import WalkModel, dp_numerators

MINIMUM = (3, 10, 7)  # pyproject.toml's requires-python

# Reduces two masses by the full gcd (``test_a_table_takes_the_full_gcd``).
FULL_GCD_TABLE = ["table", "--model", "double-small", "--steps", "40", "--p", "9/10"]

COMMANDS = [
    ["table", "--model", "double-large", "--steps", "30", "--format", "json"],
    FULL_GCD_TABLE,
    ["coeff", "--model", "double-large", "--state", "40", "--steps", "602",
     "--source", "closed-form"],
    ["coeff", "--model", "double-small", "--state", "beta", "--steps", "602",
     "--source", "closed-form", "--format", "json"],
    *(["series", "--which", which, "--order", "200", "--format", fmt]
      for which in ("g0", "t") for fmt in ("csv", "json")),
    # Rows over 3 27^k, and t's a_0 = 0, which takes the full gcd.
    ["series", "--which", "u1", "--order", "200", "--format", "json"],
    ["series", "--which", "t", "--order", "1", "--digits", "3"],
]

# Each command's stdout follows a line naming it and is followed by its
# exit code, all through the child's own sys.stdout.
DRIVER = """\
import json, sys
from knoedel.cli import main
for argv in json.loads(sys.argv[1]):
    print("#", *argv)
    print("exit", main(argv))
"""

PROBE = "import os, sys; print(os.path.realpath(sys.executable)); print(*sys.version_info[:3])"


def other_interpreters() -> list[str]:
    """Real paths of the interpreters found at ``MINIMUM`` or later,
    without the running one.  A candidate that does not start (such as
    a pyenv shim for a version not selected) is left out."""
    candidates = sorted(map(str, Path.home().glob(".pyenv/versions/3.1*/bin/python3")))
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    seen, found = {os.path.realpath(sys.executable)}, []
    for path in candidates:
        try:
            probe = subprocess.run([path, "-I", "-c", PROBE], capture_output=True,
                                   text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode:
            continue
        real, version = probe.stdout.splitlines()
        if real not in seen and tuple(map(int, version.split())) >= MINIMUM:
            seen.add(real)
            found.append(real)
    return found


def run_commands(python: str) -> bytes:
    """Stdout of ``COMMANDS`` run by ``python`` on this checkout's package."""
    env = dict(os.environ)
    package_root = str(Path(knoedel.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([python, "-c", DRIVER, json.dumps(COMMANDS)], capture_output=True,
                            env=env, timeout=60)
    assert result.returncode == 0, (python, result.stderr.decode(errors="replace"))
    return result.stdout


def test_a_table_takes_the_full_gcd(monkeypatch):
    """``FULL_GCD_TABLE`` reduces some mass by the full gcd of
    ``exactmath.lowest_terms``, a third gcd besides its two per mass, so
    every interpreter runs that branch too."""
    calls = []

    def counted_gcd(a, b):
        calls.append(b)
        return math.gcd(a, b)

    monkeypatch.setattr(exactmath, "gcd", counted_gcd)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(FULL_GCD_TABLE) == 0
    walk = WalkModel.double_small(Fraction(9, 10))
    masses = sum(len(row) for _, _, row in dp_numerators(walk, 0, 40))
    assert len(calls) > 2 * masses


def test_numpy_free_commands_print_the_same_bytes_on_every_interpreter():
    others = other_interpreters()
    if not others:
        pytest.skip("no other Python at 3.10.7 or later was found")
    expected = run_commands(sys.executable)
    assert expected.count(b"\nexit 0\n") == len(COMMANDS)
    for python in others:
        got = run_commands(python)
        if got != expected:
            # Name the first command whose output differs.
            pairs = zip(got.split(b"\n# "), expected.split(b"\n# "))
            first = next((e.split(b"\n", 1)[0].decode() for g, e in pairs if g != e),
                         "the end of its output")
            pytest.fail(f"{python} prints other bytes at {first}")
