"""Computational laboratory for additive dimension and energy of finite sets.

The package measures dissociativity-based dimensions, higher additive
energies, sumset growth, and additive/multiplicative structure for small
explicit sets in the integers, integer lattices, and residue rings, with
certified search budgets and a claim-verification harness on top.
"""

from .budget import DEFAULT_BUDGET, WorkMeter
from .decompose import (
    BsgResult,
    DecompositionResult,
    PeelingResult,
    RatioBoxResult,
    beta_decomposition,
    bsg_asymmetric,
    dec_tk,
    dissociated_peeling,
    level_set,
    ratio_box,
    sidon_extract,
)
from .dissociation import (
    DimensionBounds,
    DissociationCertificate,
    cube,
    d_k_exact,
    d_star_lower,
    dim_bounds,
    dim_k_exact,
    is_k_dissociated,
    max_dissociated_greedy,
    span_k,
)
from .energy import EnergyValue, additive_energy, dim_alpha_k, rudin_ratio, t_k
from .errors import (
    AdlabError,
    AmbientMismatchError,
    BudgetExceededError,
    CoordinateOverflowError,
    PreconditionError,
    SizeCapExceededError,
    TrialsExhaustedError,
    VerificationFailedError,
)
from .groundset import (
    GroundSet,
    IntegerLattice,
    MultEmbedding,
    Residues,
    combination,
    format_set,
    integers,
    iterated_sumset,
    load_set,
    mult_embed,
    parse_set_text,
    product_set,
    rep_fn,
    residues,
    save_set,
    sigma_k,
    sumset,
    translate,
    vectors,
)
from .growth import (
    BetaEstimate,
    FreimanModel,
    beta_hat,
    dim_shift_ratio,
    freiman_model,
    growth_sequence,
    polynomial_growth_fit,
    verify_growth_bounds,
    verify_span_isomorphism,
)
from .modular import (
    DirichletValue,
    FourierPeak,
    SubgroupSpec,
    dirichlet_min,
    fourier_max,
    fourier_spectrum,
    subgroup,
    subgroup_growth_experiment,
    verify_dirichlet_dim,
)
from .records import ClaimRecord, ExperimentReport, canonical, stable_dumps

__version__ = "0.1.0"
