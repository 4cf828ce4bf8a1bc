"""Exact mixing analysis for simple random walks on Hamming graphs H(n, q).

The package computes k-step transition distributions radially (one mass
per distance class), total-variation distances to uniform, the full
closed-form spectrum, and every majorant/minorant bound of the cutoff
window, in exact rational arithmetic with a float64 fast path.  numpy
loads at the first float operation, not at import, so the integer-only
paths never load it.
"""

from .bounds import (
    BoundReport,
    CutoffSchedule,
    MinorantDiagnostics,
    check_majorant,
    check_minorant,
    cutoff_schedule,
    hora_limit,
    lemma32_check,
    lemma34_debug_sum,
    lemma35_ratio_chain,
    lemma35_ratio_check,
    majorant,
    minorant,
    minorant_diagnostics,
    offset_from_step,
    schedule_step,
    tv_to_uniform,
    upper_bound_lemma_rhs,
)
from .krawtchouk import (
    KrawtchoukTable,
    build_table,
    eigen_residual,
    float_table_supported,
    formulas_agree,
    orthogonality_exact,
    orthogonality_residual,
    phi_binomial,
    phi_hypergeometric,
    phi_row,
    scaled_rows,
)
from .montecarlo import (
    EmpiricalResult,
    EmpiricalTV,
    SimConfig,
    empirical_tv,
    plugin_tv,
    simulate,
    simulate_literal,
)
from .radial import (
    RadialMatrix,
    enumerate_tiny,
    kstep_excess,
    kstep_numerators,
    kstep_oracle,
    kstep_trajectory,
    kstep_tv,
    power_step,
    radial_matrix,
    reversibility_holds,
)
from .scheme import (
    ClassWeights,
    ParameterError,
    RadialDistribution,
    ResourceBudgetError,
    SchemeParams,
    class_weights,
    make_scheme,
    point_mass,
    tv_distance,
    uniform,
)
from .spectral import (
    SpectrumTable,
    StationaryMoments,
    VariancePhi1,
    expectation_phi,
    expectation_phi_by_sum,
    kstep_distribution,
    kstep_rounded,
    linearization_phi1_squared,
    spectrum,
    stationary_moments,
    variance_phi1_kstep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
