"""Packaging for the Sizey reproduction.

The single source of truth for the version is ``src/repro/__init__.py``;
it is read textually here so ``setup.py`` never imports the package (and
its numpy and scipy dependencies) at build time.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="sizey-repro",
    version=_VERSION,
    description=(
        "Reproduction of Sizey: Memory-Efficient Execution of Scientific "
        "Workflow Tasks (IEEE CLUSTER 2024)"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark", "pytest-xdist"],
        "lint": ["ruff"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
    classifiers=[
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "License :: OSI Approved :: MIT License",
    ],
)
