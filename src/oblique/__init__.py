"""Finite-group workbench: permutation groups, normal structure, oblique
cores, transfer control, p-local fusion, and approximation towers."""

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .group import (
    DegreeMismatch,
    NotASubgroup,
    NotNormal,
    PermGroup,
    affine_semidirect,
    center,
    centralizer,
    conjugacy_classes,
    conjugating_element,
    derived_series,
    derived_subgroup,
    direct_product,
    intersection,
    is_nilpotent,
    lower_central_series,
    normal_closure,
    normalizer,
    quotient_action,
    sylow,
    wreath_imprimitive,
)
from .hom import GroupHom, NotAHomomorphism
from .lattice import (
    NormalLattice,
    TateCheck,
    aut_group_small,
    c_invariant,
    component_orbit_check,
    components,
    fitting,
    frattini_normal,
    frattini_pgroup,
    generalized_fitting,
    intersection_of_small_normals,
    is_p_prime_normal,
    is_quasisimple,
    is_simple,
    is_soluble,
    layer,
    normal_lattice,
    ob_function,
    ob_star_function,
    oblique_core,
    pi_core,
    pi_residual,
    strong_oblique_core,
    tate_check,
)
from .fusion import (
    FusionTable,
    alperin_closure_check,
    automizer,
    fusion_table,
    p_prime_kernel_invariance,
    subgroup_classes_of_sylow,
)
from .groupspec import GroupSpec, SpecError, build_group, parse_spec
from .perm import MalformedPermutation, Permutation
from .towers import (
    Tower,
    cyclic_tower,
    fitting_degenerate_tower,
    ji_certificate,
    tower_fitting_sequence,
    tower_ob_sequence,
    wreath_tower,
)

__all__ = [
    "CapExceeded", "Caps", "DEFAULT_CAPS", "DegreeMismatch", "FusionTable", "GroupHom", "GroupSpec",
    "MalformedPermutation", "NormalLattice", "NotAHomomorphism", "NotASubgroup", "NotNormal", "PermGroup",
    "Permutation", "SpecError", "TateCheck", "Tower", "affine_semidirect", "alperin_closure_check",
    "aut_group_small", "automizer", "build_group", "c_invariant", "center", "centralizer",
    "component_orbit_check", "components", "conjugacy_classes", "conjugating_element", "cyclic_tower",
    "derived_series", "derived_subgroup", "direct_product", "fitting", "fitting_degenerate_tower",
    "frattini_normal", "frattini_pgroup", "fusion_table", "generalized_fitting", "intersection",
    "intersection_of_small_normals", "is_nilpotent", "is_p_prime_normal", "is_quasisimple", "is_simple",
    "is_soluble", "ji_certificate", "layer", "lower_central_series", "normal_closure", "normal_lattice",
    "normalizer", "ob_function", "ob_star_function", "oblique_core", "p_prime_kernel_invariance", "parse_spec",
    "pi_core", "pi_residual", "quotient_action", "strong_oblique_core", "subgroup_classes_of_sylow", "sylow",
    "tate_check", "tower_fitting_sequence", "tower_ob_sequence", "wreath_imprimitive", "wreath_tower",
]
__version__ = "0.1.0"
