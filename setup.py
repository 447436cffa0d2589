"""Setuptools packaging for the ``repro`` package.

The version is read from ``src/repro/__init__.py`` (``__version__``), the
one place it is defined, so the package metadata and the provenance
stamps on every result always carry the same version.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'^__version__ = "([^"]+)"$', init.read_text(encoding="utf-8"), re.MULTILINE
    )
    if match is None:
        raise RuntimeError(f"no __version__ assignment in {init}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "Abstract interpretation under speculative execution (PLDI 2019 "
        "reproduction), served as a system: persistent result store, async "
        "job scheduler, and the `repro` analysis daemon/CLI"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro = repro.service.cli:main",
        ],
    },
)
