"""The thirteen acceptance criteria, one test and one pass/fail line each.

Runs the full tier: every stated grid, trial count, and sweep ceiling.
The detail strings are printed so a failing run shows exactly which
quantity missed its tolerance, and each must equal its entry in
`data/criteria_golden.json`, keyed "<index>-<name>" and written by the
full tier before `SmallGroup.commutators` became the one bracket.  Every
string is exact (counts, seeded frequencies, no timings), so a changed
string is a changed result.  Regenerate the file only when a result is
meant to change, by writing `run_criterion(i, tier="full").detail` for
each criterion.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kinderlab import acceptance

_IDS = ["%02d-%s" % (idx, name) for idx, name, _ in acceptance.CRITERIA]
GOLDEN = json.loads((Path(__file__).parent / "data" / "criteria_golden.json").read_text())


def test_golden_names_every_criterion():
    assert sorted(GOLDEN) == sorted(_IDS)


@pytest.mark.parametrize(
    "index,name", [(idx, name) for idx, name, _ in acceptance.CRITERIA], ids=_IDS
)
def test_criterion(index, name):
    result = acceptance.run_criterion(index, tier="full")
    line = "[criterion %02d] %s %s: %s" % (
        result.index,
        "PASS" if result.passed else "FAIL",
        result.name,
        result.detail,
    )
    print(line)
    assert result.passed, line
    assert result.detail == GOLDEN["%02d-%s" % (index, name)], line


def test_checks_survive_python_O():
    # a broken sigma oracle must still fail criterion 1 when asserts are stripped
    prog = (
        "import sys\n"
        "from kinderlab import acceptance, smallgrp\n"
        "smallgrp.sigma_counts = lambda *args, **kwargs: (0, 0)\n"
        "r = acceptance.run_criterion(1, tier='fast')\n"
        "print(sys.flags.optimize, r.passed, r.detail)\n"
    )
    src = str(Path(acceptance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", prog], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("1 False PropertyViolationError"), out.stdout
