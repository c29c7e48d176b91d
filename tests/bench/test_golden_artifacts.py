"""Every printed paper artifact equals its committed golden, byte for byte.

Tables 4-6 and Figures 8-12 are rendered over the whole bundled suite
through the shared session ``suite`` fixture and compared with
``benchmarks/e2e/golden/<artifact>.txt``.  The test only reads that
directory.  A change that moves any cell of any artifact fails here, so
such a change has to explain itself by updating the golden.
"""

from pathlib import Path

import pytest

from repro.bench import tables

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "golden"


def test_every_printed_artifact_has_a_golden():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == \
        sorted(tables.ARTIFACTS)


@pytest.mark.parametrize("artifact", list(tables.ARTIFACTS))
def test_artifact_matches_golden(suite, artifact):
    golden = (GOLDEN_DIR / (artifact + ".txt")).read_text()
    assert tables.ARTIFACTS[artifact](suite).text + "\n" == golden
