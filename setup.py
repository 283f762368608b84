"""Packaging for the dispersion reproduction (src layout).

All metadata lives here and the repo deliberately has **no**
``pyproject.toml``: its mere presence switches pip onto the PEP 517/660
build path, which requires network-installed build deps and the ``wheel``
package, breaking ``pip install -e .`` (and ``python setup.py develop``-style
fallbacks) on offline environments.  Ruff configuration lives in
``ruff.toml`` for the same reason -- do not move either into a pyproject.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dispersion",
    version="1.0.0",
    description=(
        "Reproduction of 'Dispersion is (Almost) Optimal under (A)synchrony' "
        "(SPAA'25): algorithms, simulators, baselines, and an experiment runner"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[
        "networkx",
    ],
    extras_require={
        # The package itself needs only the stdlib plus networkx; these are
        # the test and lint tools.
        "dev": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
            "ruff",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.runner.cli:main",
        ],
    },
)
