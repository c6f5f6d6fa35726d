"""The public surface: every exported name resolves, none twice, and the list is pinned."""

import importlib

import pytest

import prframes
from prframes import ratlin

PUBLIC = [
    "BadInput", "CPResult", "CapExceeded", "CertifiedFrame", "ConstructionPlan",
    "ExactnessResult", "Frame", "MaximalityVerdict", "NotABasis", "NotAFrame", "NotPRSubspace",
    "OutOfRange", "PRFramesError", "PatternMatrix", "PatternViolation", "RetriesExhausted",
    "S2Witness", "Seed", "Subspace", "SupportTooLarge", "base_pattern_36",
    "basis_with_maximal_subspace", "build_pattern", "clear_denominators", "compose_direct_sum",
    "d_max", "extend_to_maximal", "find_s2_element", "find_s2_witness", "format_rational",
    "frame_from_dict", "frame_to_dict", "generate_exact_pr", "generate_with_dmax",
    "has_complement_property", "has_exact_pr_redundancy", "instantiate", "is_exact_pr_frame",
    "is_full_spark", "is_maximal_pr_subspace", "is_phase_retrievable", "is_pr_subspace",
    "lifted_independent", "load_json", "min_support", "parse_rational", "plan", "pr_redundancy",
    "project_frame", "random_pr_subspace", "save_json", "spark", "step_I", "step_II", "step_III",
    "subspace_from_dict", "subspace_to_dict", "support", "verdict_to_dict",
]

# (module, name) pairs that nothing outside the tests called, deleted from the package;
# RearrangeFailure was raised only by a guard that step III's proof shows never fires
REMOVED = [
    ("frames", "span_dim"),
    ("frameio", "witness_to_dict"),
    ("frameio", "witness_from_dict"),
    ("errors", "RearrangeFailure"),
]

# seeded sampling: used by construct and subspaces, importable from ratlin only
RATLIN_ONLY = ["sample_pattern", "sample_int_matrix", "derive_seed"]


def test_all_names_resolve():
    for name in prframes.__all__:
        getattr(prframes, name)


def test_all_has_no_duplicates():
    assert len(prframes.__all__) == len(set(prframes.__all__))


def test_all_is_the_pinned_surface():
    assert sorted(prframes.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_are_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(prframes, name)
    assert not hasattr(importlib.import_module(f"prframes.{module}"), name)


def test_subspace_has_no_contains():
    assert not hasattr(prframes.Subspace, "contains")


@pytest.mark.parametrize("name", RATLIN_ONLY)
def test_sampling_stays_in_ratlin(name):
    assert callable(getattr(ratlin, name))
    with pytest.raises(AttributeError):
        getattr(prframes, name)
