"""Exact q-Delannoy numbers, cyclotomic congruence checks, and orbit audits."""

from .polyring import IntPoly, ModulusError, ONE, Q, ZERO
from .cyclotomic import congruent, cyclotomic, reduce_mod
from .qcore import (
    delannoy,
    neg_q_pochhammer,
    q_binomial,
)
from .qdelannoy import (
    q_delannoy,
    q_delannoy_alt,
    q_delannoy_def,
    q_delannoy_rec,
)
from .paths import enumerate_paths, path_from_text, path_text, sigma, sigma_poly
from .orbits import (
    AuditReport,
    ClassError,
    CornerFrame,
    FrameError,
    LawError,
    Orbit,
    PathClass,
    act,
    audit,
    blocks,
    classify,
    decompose,
    orbit,
)
from .congruence import (
    CongruenceReport,
    SweepConfig,
    SweepSummary,
    induction_consistency,
    sweep,
    verify_delannoy_lucas,
    verify_lucas,
    verify_q_lucas,
    verify_theorem1,
    verify_theorem2,
)

__version__ = "0.1.0"
