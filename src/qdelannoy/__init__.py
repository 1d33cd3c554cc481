"""Exact q-Delannoy numbers, cyclotomic congruence checks, and orbit audits."""

from .polyring import IntPoly, ModulusError, ONE, Q, ZERO
from .cyclotomic import CyclotomicTable, congruent, cyclotomic, exponent_residue_factor, reduce_mod
from .qcore import (
    delannoy,
    delannoy_lucas_check,
    delannoy_series_table,
    lucas_check,
    neg_q_pochhammer,
    q_binomial,
    q_binomial_theorem_check,
    q_integer,
    q_lucas_check,
)
from .qdelannoy import (
    q_delannoy,
    q_delannoy_alt,
    q_delannoy_def,
    q_delannoy_rec,
    specialize_q1,
)
from .paths import concat, enumerate_paths, path_from_text, path_text, sigma, sigma_poly
from .orbits import (
    AuditReport,
    ClassError,
    CornerFrame,
    FrameError,
    Orbit,
    PathClass,
    act,
    audit,
    blocks,
    classify,
    decompose,
    fixed_point_sums,
    orbit,
)
from .congruence import (
    CongruenceReport,
    SweepConfig,
    SweepSummary,
    induction_consistency,
    sweep,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"
