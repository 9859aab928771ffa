"""Exact F2 group theory and local-global arithmetic for plane-curve
determinantal questions: symplectic groups and their subgroup censuses,
quadratic forms with arf bookkeeping, the dihedral subgroup constructions,
obstruction certificates, and Hilbert-symbol / conic / cubic machinery with
independent search oracles.
"""

from .f2core import (
    F2Matrix,
    SymplecticSpace,
    affine_span,
    nullspace,
    solve,
    solve_affine,
    standard_symplectic,
    symplectic_basis,
    is_symplectic,
)
from .gf2k import (
    BinaryFieldCtx,
    as_f2_linear,
    make_field,
    norm_one_generator,
)
from .quadforms import (
    BaseForm,
    QuadraticForm,
    act,
    action_shift,
    adapted_symplectic_basis,
    all_forms,
    arf_by_basis,
    arf_by_count,
    arf_from_vector,
    fixed_form_vectors,
    form_from_vector,
    orbits,
    pairing_mask,
    standard_base_form,
)
from .matgroups import (
    CensusClass,
    ClosureCapExceeded,
    GroupCensus,
    ObstructionReport,
    SubgroupHandle,
    all_transvections,
    close,
    common_fixed_form_vectors,
    fixed_forms,
    gl22_common_fixed_vector,
    has_nonzero_fixed_vector,
    obstruction_conditions,
    order6_uniqueness_scan,
    orthogonal_group,
    subgroup_census,
    symplectic_group,
    symplectic_order_formula,
    transvection,
)
from .constructions import (
    CertificateVerdict,
    DihedralConditionError,
    DihedralPair,
    LocalImage,
    ObstructionCertificate,
    ObstructionGroup,
    build_dihedral_pair,
    build_obstruction_subgroup,
    certify_counterexample,
    degree_for_m,
    demo_certificate,
    direct_sum_form,
    m_for_degree,
    verify_dihedral_pair,
)
from .localglobal import (
    COUNTEREXAMPLE_QUARTICS,
    ConicSDR,
    DensityReport,
    conic_rational_point,
    conic_sdr,
    cubic_discriminant,
    cubic_local_global_verdict,
    cubic_local_root_density,
    cubic_rational_roots,
    diagonalize_symmetric,
    galois_image,
    hilbert_reciprocity_check,
    hilbert_symbol,
    local_obstructions,
    quartic_point_check,
    quartic_value,
)
from .oracles import (
    anisotropic_mod,
    hilbert_symbol_by_search,
    squarefree_part,
)
from .acceptance import (
    AcceptanceContext,
    CRITERIA,
    CriterionResult,
    run_all,
    run_one,
)

__version__ = "0.1.0"
