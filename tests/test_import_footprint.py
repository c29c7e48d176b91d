"""Import footprint of the entry points.

Every ``repro`` process imports the CLI (and the daemon imports the
serve stack); neither may pull in numpy, whose import alone costs a
sizeable fraction of a cold ``repro tables`` set-up and ~14 MB of RSS.
Each check runs in a fresh interpreter so earlier imports in the test
process cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.daemon"])
def test_entry_point_does_not_import_numpy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, {}; "
            "print('numpy' in sys.modules)".format(module))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
