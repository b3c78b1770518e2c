"""Instance generation, the claim registry, and the suite runner."""

from .claims import (
    FITTED_CLAIMS,
    HARD_CLAIMS,
    REGISTRY,
    Claim,
    clear_caches,
    evaluate_claim,
    fit_constant,
    get_claim,
)
from .generators import GENERATORS, InstanceSpec, generate, spec
from .runner import (
    CORE_BUDGET,
    CORE_INSTANCES,
    report_to_json,
    run_core_suite,
    run_suite,
)

__all__ = [
    "Claim",
    "CORE_BUDGET",
    "CORE_INSTANCES",
    "FITTED_CLAIMS",
    "GENERATORS",
    "HARD_CLAIMS",
    "InstanceSpec",
    "REGISTRY",
    "clear_caches",
    "evaluate_claim",
    "fit_constant",
    "generate",
    "get_claim",
    "report_to_json",
    "run_core_suite",
    "run_suite",
    "spec",
]
