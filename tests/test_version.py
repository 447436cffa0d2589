"""The package metadata and the runtime agree on the version: ``setup.py``
reads it from ``repro.__version__``, which provenance stamps carry."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

SETUP_PY = Path(__file__).resolve().parent.parent / "setup.py"


def test_setup_py_version_matches_package(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(SETUP_PY), "--version"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
