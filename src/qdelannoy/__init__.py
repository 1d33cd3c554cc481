"""Exact q-Delannoy numbers, cyclotomic congruence checks, and orbit audits."""

import importlib.util
import sys

# The modules only; import each name from its module: `from qdelannoy.orbits import audit`.
# Each is bound lazily: it is in sys.modules at once, and its code runs on the
# first access to one of its attributes, so a request compiles only the
# modules it uses.
for _name in ("congruence", "cyclotomic", "orbits", "paths", "polyring", "qcore", "qdelannoy", "residue"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del importlib, sys, _name, _spec

__version__ = "0.1.0"
