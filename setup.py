"""Packaging for the ``repro`` library (src layout).

``pip install -e .`` provides both entry points::

    repro figure4            # console script
    python -m repro figure4  # module execution

The library is pure Python with one runtime dependency, ``numpy``.  The
optional ``scipy`` ILP backend is used only when scipy is importable;
the ``test`` extra installs it, because the tests cross-check against it.
"""

import pathlib
import re

from setuptools import find_packages, setup

# Single source of truth for the version: the package itself.
_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "(.+?)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro-tc27x-contention",
    version=VERSION,
    description=(
        "Reproduction of 'Modelling Multicore Contention on the AURIX "
        "TC27x' (DAC 2018): contention models, TC27x memory-system "
        "simulator and a unified experiment engine"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark", "scipy"],
    },
)
