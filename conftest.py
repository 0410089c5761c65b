"""Which lastlayer package the tests import.

A ``src`` directory holding the package on ``PYTHONPATH`` names the package
under test, as the Tier-1 command ``PYTHONPATH=src python -m pytest`` does,
so a run from this checkout aimed at another checkout's ``src`` tests that
checkout.  Without one, this checkout's ``src`` goes first on ``sys.path``,
ahead of any installed copy.  Either way the package that would be imported
must come from the directory chosen, or the run stops naming both.
"""

import importlib.util
import os
import sys
from pathlib import Path

CHECKOUT_SRC = Path(__file__).resolve().parent / "src"


def _package_root() -> Path:
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        if (Path(entry) / "lastlayer" / "__init__.py").is_file():
            return Path(entry).resolve()
    sys.path.insert(0, str(CHECKOUT_SRC))
    return CHECKOUT_SRC


_expected = _package_root()
_spec = importlib.util.find_spec("lastlayer")
_found = None if _spec is None else Path(_spec.origin).resolve().parent.parent
if _found != _expected:
    raise ImportError(f"tests would import lastlayer from {_found}, not from {_expected}")
