"""Exact entropy profiles of definable sets over finite fields.

The pieces: exact log arithmetic (logval), finite fields (gf), the
first-order ring language (ringlang), point censuses and entropy profiles
(census), polymatroid and information-inequality algebra (polymatroid),
Smith normal form and linear-congruence profiles (lincong), extension
properties (extend), and a CLI (cli).
"""

from .census import (
    AsymptoticEstimate,
    CensusRow,
    CensusTable,
    FiberHistogram,
    PeriodReport,
    count_points,
    detect_period,
    entropy_profile,
    estimate_dim_measure,
    fiber_histogram,
    marginal_distribution,
    tower_census,
)
from .errors import BudgetError, DomainError, EstimationError, ParseError
from .extend import (
    CopyResult,
    Distribution,
    PartialProfile,
    ak_canonical_witness,
    ak_partial,
    check_extension,
    copy_partial,
    copy_product,
    dist_entropy_profile,
    slepian_wolf_partial,
)
from .gf import FieldSpec, field, prime_power
from .lincong import (
    IntMatrix,
    SnfResult,
    dirichlet_modulus,
    image_size,
    image_size_bruteforce,
    parse_matrix,
    profile_lincong,
    snf,
    suggest_primes,
    torus_profile,
)
from .logval import Approx, LogValue, log_of_rat
from .polymatroid import (
    LinFunctional,
    Profile,
    cond_entropy,
    cond_mi,
    convolve,
    dfz_family,
    eval_functional,
    factor,
    gmm_check,
    ingleton,
    is_modular,
    is_polymatroid,
    kr_closed_form,
    kr_violation,
    parse_functional,
    scan_threshold,
    zero_profile,
)
from .ringlang import DefinableSet, eval_formula, free_vars, parse_set

__version__ = "0.1.0"
