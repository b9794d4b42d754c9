"""Legacy setuptools shim.

The execution environment is offline and lacks the ``wheel`` package, so
PEP 660 editable wheels cannot be built; this shim lets
``pip install -e .`` fall back to ``setup.py develop``.
"""

from pathlib import Path

from setuptools import find_packages, setup

_version = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), _version)

setup(
    name="repro",
    version=_version["__version__"],
    description=(
        "Source Accountability with Domain-brokered Privacy — reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # ``public_bytes_raw`` (the Ed25519 / X25519 public keys) is new in 40.0.
    # numpy gathers and scatters the shard-state columns; networkx routes
    # the simulated AS topology.
    install_requires=["cryptography>=40", "numpy", "networkx"],
    entry_points={
        "console_scripts": [
            "repro-analyze=repro.analysis.cli:main",
        ]
    },
    python_requires=">=3.9",
)
