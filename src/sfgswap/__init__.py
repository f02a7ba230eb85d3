"""Fock-space simulation of sum-frequency-generation Bell-state analysis,
entanglement swapping, and device-independent QKD figures of merit."""

from .bell import (
    BellSettings,
    ChshOptimum,
    HeraldedEnsemble,
    Strategy,
    binary_entropy,
    dw_key_rate,
    efficiency_threshold,
    ensemble_chsh,
    heralded_ensemble,
    holevo_chsh,
    optimize_chsh,
    optimize_key_rate,
    sfg_gain_threshold,
)
from .detection import (
    CoincidenceEfficiencies,
    DetectorModel,
    click_prob,
    herald_amplitude_branches,
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
    spectral_overlap,
    spectral_overlap_gaussian,
)
from .fock import (
    DEFAULT_NMAX,
    ModeError,
    PureState,
    apply_annihilation,
    apply_creation,
    tensor,
    two_mode_rotation,
)
from .optics import (
    LossMap,
    SfgParams,
    SourceParams,
    build_swapping_input,
    loss_branches,
    qfc_mode_transform,
    sfg_branches,
    tmsv_pair,
)
from .presets import get_preset, presets, swap_params
from .protocols import (
    ExperimentParams,
    QfcReport,
    TeleportReport,
    VisibilityReport,
    error_event_probs,
    error_event_probs_simulated,
    lo_swap,
    qfc_teleport_strong_pump,
    sfg_swap,
    teleport,
)

__version__ = "0.1.0"
