"""Time-local generators for open-system dynamics with harmonic reservoirs.

The package builds the second- and fourth-order generators of a time-local
master equation for a system coupled linearly to a bath of oscillators,
checks two independent constructions of the fourth-order piece against each
other, and propagates reduced density matrices with validation against
exactly solvable references.

Typical use::

    from tclgen import BathSpec, SystemModel, QuadratureSpec, build_generator

    bath = BathSpec(modes=[(1.0, 1.0, 1.0)], beta=1.0)
    model = SystemModel(2, h_sys, coupling, alpha=0.1)
    gen = build_generator(model, bath, order=4, quad=QuadratureSpec(), t_max=5.0)
    k = gen(2.0).matrix   # d^2 x d^2 generator matrix at t = 2
"""

from .algebra import SuperOp, SystemModel, unvec, vec
from .bath import (
    BathSpec,
    KernelTable,
    Mode,
    bath_correlation,
    discretize_spectral_density,
    kernel_D,
    kernel_D1,
    tabulate_kernels,
)
from .cumulant import (
    CumulantTerm,
    K_n_cumulant,
    drop_odd_terms,
    enumerate_ordered_cumulant_terms,
    moment_superop,
)
from .exact import K2_exact, K4_exact, forward_map_exact
from .evolve import (
    DiagnosticTable,
    NumericsError,
    Trajectory,
    forward_map_correction,
    invertibility_diagnostic,
    propagate,
    trace_distance,
)
from .models import (
    PRESET_NAMES,
    ScalingResult,
    TruncatedBathConfig,
    decoherence_exponent,
    dephasing_exact,
    exact_small_bath,
    get_preset,
    list_presets,
    scaling_study,
    to_interaction_picture,
)
from .quadrature import QuadratureSpec
from .tcl import (
    EquivalenceError,
    Generator,
    K4_TERM_TABLE,
    K4Term,
    K2_influence,
    K4_cumulant_ordered,
    K4_influence,
    build_generator,
    format_k4_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bath
    "Mode",
    "BathSpec",
    "KernelTable",
    "kernel_D",
    "kernel_D1",
    "bath_correlation",
    "tabulate_kernels",
    "discretize_spectral_density",
    # algebra
    "SystemModel",
    "SuperOp",
    "vec",
    "unvec",
    # quadrature
    "QuadratureSpec",
    # cumulant
    "CumulantTerm",
    "enumerate_ordered_cumulant_terms",
    "drop_odd_terms",
    "moment_superop",
    "K_n_cumulant",
    # exact
    "K2_exact",
    "K4_exact",
    "forward_map_exact",
    # tcl
    "EquivalenceError",
    "K4Term",
    "K4_TERM_TABLE",
    "Generator",
    "K2_influence",
    "K4_influence",
    "K4_cumulant_ordered",
    "build_generator",
    "format_k4_table",
    # evolve
    "Trajectory",
    "DiagnosticTable",
    "NumericsError",
    "propagate",
    "invertibility_diagnostic",
    "forward_map_correction",
    "trace_distance",
    # models
    "TruncatedBathConfig",
    "dephasing_exact",
    "exact_small_bath",
    "to_interaction_picture",
    "decoherence_exponent",
    "get_preset",
    "list_presets",
    "PRESET_NAMES",
    "ScalingResult",
    "scaling_study",
]
