"""Packaging for the CIAO reproduction.

A classic ``setup.py`` (rather than PEP 517 metadata) because the execution
environment has setuptools 65 without the ``wheel`` package, so editable
installs must fall back to the legacy develop-mode path, which works
offline.  ``pip install -e .`` provides the ``repro`` console script;
without installing, use ``PYTHONPATH=src python -m repro`` instead.
"""

from pathlib import Path

from setuptools import find_packages, setup

_VERSION: dict = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _VERSION)

setup(
    name="repro-ciao",
    version=_VERSION["__version__"],
    description=(
        "Reproduction of CIAO: cache-interference-aware throughput-oriented "
        "GPU warp scheduling (Zhang et al., IPDPS 2018)"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text()
    if (Path(__file__).parent / "README.md").exists()
    else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
