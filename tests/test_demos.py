"""The three demo scripts run cleanly and print exactly what they printed before.

Each runs in a fresh interpreter with the package's ``src`` directory on
PYTHONPATH. A change to the public API or to a printed value that a demo
shows fails here, so a digest is updated only when a demo's text is meant
to change.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "asymptotics.py": "2bab4f248633032c7634bba42eff5fc3fc6c9860a48f5f6d58f898d180594f11",
    "classification.py": "30a4f614386eef51cf2bd6edbab0ff6a1c6a64aeba4c01471f8d56d58897fd9e",
    "counting.py": "6e6f41408b1872fba2993fbae829097d8f7dc0481f32f1272c4debd6cc410a90",
}


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_unchanged(name, src_env):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=src_env,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[name]
