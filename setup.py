"""Setuptools metadata for the ``repro`` package (src layout).

Kept as a plain ``setup.py`` so fully offline environments (no ``wheel``
package available) can still perform an editable install via the legacy
``setup.py develop`` code path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=("Reproduction of a multi-facet recommender system with "
                 "metric-learning baselines, a unified training runtime and "
                 "a frozen-artifact serving layer"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.8",
    entry_points={
        "console_scripts": [
            # The AST invariant checker (see repro.analysis.static): lints
            # the repo-specific contracts — RNG-DISCIPLINE,
            # DTYPE-DISCIPLINE, PICKLE-FREE-IO, HOGWILD-SAFETY, SLOW-MARKER,
            # ATOMIC-IO.
            "repro-lint=repro.analysis.static.cli:main",
        ],
    },
)
