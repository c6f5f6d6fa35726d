"""Exact-arithmetic toolkit for phase-retrievable frames and subspaces in R^n.

Each public name is loaded from its module on first access (PEP 562 module
``__getattr__``), so ``import prframes`` and each CLI subcommand import only
the modules they use.  The value is then stored in the package namespace, so
later lookups do not come back here.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it owns; the single list of the package's surface
_EXPORTS = {
    "errors": (
        "BadInput", "CapExceeded", "NotABasis", "NotAFrame", "NotPRSubspace", "OutOfRange",
        "PatternViolation", "PRFramesError", "RetriesExhausted", "SupportTooLarge"
    ),
    "ratlin": (
        "Seed", "clear_denominators", "format_rational", "parse_rational"
    ),
    "frames": (
        "CPResult", "ExactnessResult", "Frame", "has_complement_property", "is_exact_pr_frame",
        "is_full_spark", "is_phase_retrievable", "spark"
    ),
    "lifting": (
        "S2Witness", "find_s2_element", "find_s2_witness", "has_exact_pr_redundancy",
        "lifted_independent", "pr_redundancy"
    ),
    "construct": (
        "CertifiedFrame", "ConstructionPlan", "PatternMatrix", "base_pattern_36",
        "basis_with_maximal_subspace", "build_pattern", "compose_direct_sum",
        "generate_exact_pr", "generate_with_dmax", "instantiate", "plan", "step_I", "step_II",
        "step_III"
    ),
    "frameio": (
        "frame_from_dict", "frame_to_dict", "load_json", "save_json", "subspace_from_dict",
        "subspace_to_dict", "verdict_to_dict"
    ),
    "subspaces": (
        "MaximalityVerdict", "Subspace", "d_max", "extend_to_maximal", "is_maximal_pr_subspace",
        "is_pr_subspace", "min_support", "project_frame", "random_pr_subspace", "support"
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
