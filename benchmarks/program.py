"""Loading the program under test from this checkout's ``src/``.

The benchmark never falls back to an installed ``cycleswap``: it measures
the source tree it sits in, and stops if that tree has no program.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The program's modules, which are also the benchmark's layers.
MODULES = ("textio", "cli", "permutations", "gsg", "forward", "inverse", "involution", "harness")


class ProgramMissing(RuntimeError):
    """No cycleswap package under src/ of this checkout."""


def load() -> SimpleNamespace:
    """Import cycleswap afresh from ``src/``, dropping any copy already
    imported, and return its modules by name."""
    package_dir = SRC / "cycleswap"
    if not (package_dir / "__init__.py").is_file():
        raise ProgramMissing(f"no cycleswap package in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "cycleswap" or k.startswith("cycleswap.")]:
        del sys.modules[key]
    package = importlib.import_module("cycleswap")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise ProgramMissing(f"cycleswap was imported from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"cycleswap.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **modules)
