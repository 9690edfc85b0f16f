"""The demos print exactly the output recorded in ``demos/expected``, and
nothing on stderr."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
NAMES = sorted(f[:-3] for f in os.listdir(DEMOS) if f.endswith(".py"))


def test_every_demo_has_expected_output():
    assert len(NAMES) == 6
    assert sorted(f[:-4] for f in os.listdir(os.path.join(DEMOS, "expected"))) == NAMES


# each demo as it is and under -O, whose stripped asserts must not change a
# byte; neither run may write to stderr, so a warning fails the test
RUNS = [(name, flags) for name in NAMES for flags in ((), ("-O",))]


@pytest.mark.parametrize("name, flags", RUNS, ids=[name + "".join(flags) for name, flags in RUNS])
def test_demo_output_is_unchanged(name, flags):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, *flags, os.path.join(DEMOS, f"{name}.py")], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    with open(os.path.join(DEMOS, "expected", f"{name}.txt"), encoding="utf-8") as fh:
        assert result.stdout == fh.read()
