"""Fock-space simulation of sum-frequency-generation Bell-state analysis,
entanglement swapping, and device-independent QKD figures of merit."""

from .bell import (
    BellSettings,
    ChshOptimum,
    binary_entropy,
    dw_key_rate,
    efficiency_threshold,
    holevo_chsh,
    optimize_chsh,
    optimize_key_rate,
    sfg_gain_threshold,
)
from .efficiency import (
    CrystalParams,
    SfgBenchInputs,
    SpectralProfile,
    fidelity_lower_bound,
    photons_per_pulse,
    sfg_eff_effective,
    sfg_eff_from_counts,
    sfg_eff_theoretical,
    spectral_overlap_gaussian,
)
from .presets import get_preset, presets, swap_params
from .protocols import (
    ExperimentParams,
    QfcReport,
    TeleportReport,
    VisibilityReport,
    error_event_probs,
    lo_swap,
    qfc_teleport_strong_pump,
    sfg_swap,
    teleport,
)

__version__ = "0.1.0"
