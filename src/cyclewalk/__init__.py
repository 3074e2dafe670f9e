"""Quantum walks on the d-cycle with a recycled coin or a memory qubit.

The package simulates both walks exactly, evaluates their limiting
(time-averaged) distributions through the momentum-space spectral sum,
and ships the analysis and CLI layers used to classify uniformity over
(d, phi, state) grids and to verify the two model-equivalence results.
"""

__version__ = "0.1.0"

from .walk import (CoinConfig, Distribution, InitialState, WalkState,
                   MODEL_MEMORY, MODEL_RECYCLED, STATE_NAMES, apply_P,
                   apply_P_adjoint, apply_Q, coin_block, coin_operator,
                   evolve, evolve_accumulate, named_coin4, norm_drift_scan,
                   position_distribution, step_memory, step_recycled)
from .spectral import (DegenerateClusterWarning, EigenSystem, FourierBlock,
                       SpectralCache, build_Mk, build_Nk,
                       closed_form_distribution,
                       closed_form_probability, eigensystem,
                       eigenvalue_multiset_distance, limiting_distribution,
                       limiting_distribution_memory, memory_spectrum_mismatch,
                       spectral_cache, spectral_cache_memory)
from .analysis import (MixingCurve, SweepGrid, SweepRecord, classify_uniform,
                       crosscheck_limiting, mixing_curve,
                       residue_distance_curve, sweep, theorem1_max_deviation,
                       theorem2_max_deviation, total_variation,
                       tv_from_uniform, verify_pbar_identities,
                       verify_theorem1, verify_theorem2)

__all__ = [
    "CoinConfig", "Distribution", "InitialState", "WalkState",
    "MODEL_MEMORY", "MODEL_RECYCLED", "STATE_NAMES",
    "apply_P", "apply_P_adjoint", "apply_Q",
    "coin_block", "coin_operator", "evolve", "evolve_accumulate",
    "named_coin4", "norm_drift_scan", "position_distribution",
    "step_memory", "step_recycled",
    "DegenerateClusterWarning", "EigenSystem", "FourierBlock",
    "SpectralCache", "build_Mk", "build_Nk", "closed_form_distribution",
    "closed_form_probability", "eigensystem",
    "eigenvalue_multiset_distance", "limiting_distribution",
    "limiting_distribution_memory", "memory_spectrum_mismatch",
    "spectral_cache", "spectral_cache_memory",
    "MixingCurve", "SweepGrid", "SweepRecord", "classify_uniform",
    "crosscheck_limiting", "mixing_curve", "residue_distance_curve",
    "sweep", "theorem1_max_deviation", "theorem2_max_deviation",
    "total_variation", "tv_from_uniform", "verify_pbar_identities",
    "verify_theorem1", "verify_theorem2",
]
