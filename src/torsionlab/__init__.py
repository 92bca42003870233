"""Exact finitely presented module calculus over graded quotient rings,
with certificate-emitting verifiers for torsion and Frobenius behaviour."""

from .certificates import Certificate, SubClaim
from .errors import (
    AbortedError,
    DegenerateError,
    DimensionError,
    InputError,
    ResourceLimitError,
    ScriptParseError,
    StructuralError,
    TorsionLabError,
    UnsupportedError,
)
from .fields import GF, QQ, FieldSpec
from .frobenius import (
    ModuleAlgebra,
    Pushforward,
    frobenius_functor,
    restrict_scalars,
    tor_frobenius,
    universal_pushforward,
    verify_frobenius_torsion_equivalence,
    verify_integral_closure_carrier,
    verify_regularity_probe,
)
from .groebner import (
    GroebnerBasis,
    groebner_basis,
    ideal_groebner_basis,
    syzygy_generators,
    syzygy_matrix,
)
from .homology import (
    PD_INFINITE,
    FreeResolution,
    free_resolution,
    koszul_depth,
    pd,
    tor,
)
from .modules import (
    FPModule,
    ModuleElement,
    ModuleMap,
    annihilator,
    dual_generators,
    kernel_of_map,
    modules_equivalent,
    presentation_ideal,
    rank_info,
    tensor,
    tensor_power,
)
from .poly import FreeElement, Polynomial
from .rings import Ideal, RingContext, is_regular_sequence, make_ring
from .script import Script, format_script, parse_script
from .engine import RunReport, execute, run_source
from .torsion import (
    TorsionSplit,
    alternating_tensor,
    check_relation_annihilates,
    explore_torsion_onset,
    koszul_syzygy_module,
    maximal_ideal_module,
    torsion_split,
    universal_koszul_module,
    verify_koszul_tensor_powers,
    verify_maximal_ideal_carrier,
    verify_presentation_torsion_bound,
)

__version__ = "0.1.0"
