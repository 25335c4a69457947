"""Desk-scale workbench for graded finite-groupoid convolution algebras."""

__version__ = "0.29.0"

from .algebra import (
    GroupoidFunction,
    convolve,
    delta,
    from_map,
    graded_component,
    graded_components,
    i_norm,
    include_i,
    involute,
    random_function,
    restrict_q,
    unit_function,
    zero,
)
from .grading import Cocycle, GradedGroupoid, cocycle_from_map, identity_fiber_subgroupoid, validate_cocycle
from .groupoid import (
    Arrow,
    FiniteGroupoid,
    HaarSystem,
    action_groupoid,
    counting_haar,
    disjoint_union,
    group_bundle,
    group_groupoid,
    haar_from_weights,
    pair_groupoid,
    product,
    validate_groupoid,
    validate_left_invariance,
)
from .groups import DiscreteGroup, FiniteGroup, FreeAbelianGroup, cyclic_group, symmetric_group
from .hilbert_module import (
    InducedSpace,
    L_operator_norm,
    check_eq_ruy,
    expectation_P,
    induced_space,
    kernel_check,
    module_action,
    module_inner_product,
    module_norm,
)
from .representation import (
    cstar_norm,
    decompose_rep_U,
    positivity_check,
    regular_rep_matrix,
    spectrum,
    translate_rep_V,
)
from .validation import CheckReport

__all__ = [name for name in dir() if not name.startswith("_")]
