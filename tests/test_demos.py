import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# sha256 of each demo's stdout, recorded before the Hecke and Schubert
# elements came to share one combination type: demo 02 prints HeckeElem
# reprs, and no demo's output may drift with the engine.
@pytest.mark.parametrize("name, digest", [
    ("01_roots_and_weyl.py",
     "d966f67cb6e7eb44141eba15c386e20d268701cc71687b3dbc77954f0198d97f"),
    ("02_canonical_basis.py",
     "14c85b00a079ea11a0494b2d61b4f653a21203bbc7f90f7b6c4987a6f8c01530"),
    ("03_schubert_calculus.py",
     "2d41280d6844e0baab543b0de6561283498974d432fde9682e6a8aa1d937731e"),
    ("04_graded_block_matrices.py",
     "b934b00e7e08bb12938190e04be6c41842ced28709fe4d32bc27c858d3ae06a1"),
    ("05_translation_and_bott_samelson.py",
     "122bae2122d2dcd1b67fa8d5816ddf0e4f883971fd569caba8ea018810c389d1"),
])
def test_demo_output_is_stable(child_env, name, digest):
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, env=child_env, check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == digest
