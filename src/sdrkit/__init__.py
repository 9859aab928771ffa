"""Exact F2 group theory and local-global arithmetic for plane-curve
determinantal questions: symplectic groups and their subgroup censuses,
quadratic forms with arf bookkeeping, the dihedral subgroup constructions,
obstruction certificates, and Hilbert-symbol / conic / cubic machinery with
independent search oracles.

Every name below is importable from the package, and its module loads on
first use (PEP 562): a caller of `hilbert_symbol` loads `localglobal` alone,
never the F2 group stack.
"""

import importlib

# each submodule and the names the package exports from it
_EXPORTS = {
    "f2core": (
        "F2Matrix",
        "SymplecticSpace",
        "affine_span",
        "nullspace",
        "solve",
        "solve_affine",
        "standard_symplectic",
        "symplectic_basis",
        "is_symplectic",
    ),
    "gf2k": (
        "BinaryFieldCtx",
        "as_f2_linear",
        "make_field",
        "norm_one_generator",
    ),
    "quadforms": (
        "BaseForm",
        "QuadraticForm",
        "act",
        "action_shift",
        "adapted_symplectic_basis",
        "all_forms",
        "arf_by_basis",
        "arf_by_count",
        "arf_from_vector",
        "fixed_form_vectors",
        "form_from_vector",
        "orbits",
        "pairing_mask",
        "standard_base_form",
    ),
    "matgroups": (
        "CensusClass",
        "ClosureCapExceeded",
        "GroupCensus",
        "ObstructionReport",
        "SubgroupHandle",
        "all_transvections",
        "close",
        "common_fixed_form_vectors",
        "fixed_forms",
        "gl22_common_fixed_vector",
        "has_nonzero_fixed_vector",
        "obstruction_conditions",
        "order6_uniqueness_scan",
        "orthogonal_group",
        "subgroup_census",
        "symplectic_group",
        "symplectic_order_formula",
        "transvection",
    ),
    "constructions": (
        "CertificateVerdict",
        "DihedralConditionError",
        "DihedralPair",
        "LocalImage",
        "ObstructionCertificate",
        "ObstructionGroup",
        "build_dihedral_pair",
        "build_obstruction_subgroup",
        "certify_counterexample",
        "degree_for_m",
        "demo_certificate",
        "direct_sum_form",
        "m_for_degree",
        "verify_dihedral_pair",
    ),
    "localglobal": (
        "COUNTEREXAMPLE_QUARTICS",
        "ConicSDR",
        "DensityReport",
        "conic_rational_point",
        "conic_sdr",
        "cubic_discriminant",
        "cubic_local_global_verdict",
        "cubic_local_root_density",
        "cubic_rational_roots",
        "diagonalize_symmetric",
        "galois_image",
        "hilbert_reciprocity_check",
        "hilbert_symbol",
        "local_obstructions",
        "quartic_point_check",
        "quartic_value",
    ),
    "oracles": (
        "anisotropic_mod",
        "hilbert_symbol_by_search",
        "squarefree_part",
    ),
    "acceptance": (
        "AcceptanceContext",
        "CRITERIA",
        "CriterionResult",
        "run_all",
        "run_one",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_OWNER))
