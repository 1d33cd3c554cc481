"""Exact q-Delannoy numbers, cyclotomic congruence checks, and orbit audits."""

# The modules only; import each name from its module: `from qdelannoy.orbits import audit`.
from . import congruence, cyclotomic, orbits, paths, polyring, qcore, qdelannoy, residue

__version__ = "0.1.0"
