"""Legacy setup shim.

The execution environment is offline (no `wheel`, no build isolation), so
`pip install -e .` must go through the classic `setup.py develop` path.
All real metadata lives in pyproject.toml; keep this file minimal.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
