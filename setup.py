"""Setuptools shim for legacy editable installs (``pip install -e . --no-use-pep517``).

There is no ``pyproject.toml`` or ``setup.cfg``: a bare ``setup()`` is the
whole build configuration.  Setuptools' automatic discovery of the ``src``
layout finds the ``repro`` package on its own, so this file only exists so
that environments with an older setuptools/pip (without the ``wheel``
package) can still perform an editable install offline.
"""

from setuptools import setup

setup()
