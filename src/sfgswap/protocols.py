"""End-to-end pipelines: SFG-based and linear-optical entanglement swapping,
teleportation, frequency-conversion teleportation, and the lowest-order
error-event analysis.

The heralding pipeline is

    pair sources -> channel loss on a, b -> first-order SFG -> loss on c
    -> projection of the SFG photon on |D> or |A> -> threshold analyzers
    on d and e, with a dark-count heralding branch mixed in at the end.

The pipelines run on pure-state Kraus branches, and every analyzer readout
is one contraction of their photon-number-block density
(``detection.block_readout``).  The density-operator route
(``sfg_heralded_operator``) is the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .detection import (
    CoincidenceEfficiencies,
    DetectorModel,
    arm_click_probs,
    block_density,
    block_readout,
    click_prob,
    herald_amplitude_branches,
    mix_dark_counts,
    reduced_branches,
)
from .fock import DensityOperator, PureState, apply_creation, tensor, two_mode_rotation
from .optics import (
    LossMap,
    OUTPUT_REGISTER,
    SWAP_REGISTER,
    SfgParams,
    SourceParams,
    build_swapping_input,
    extend_state,
    loss_branches,
    qfc_mode_transform,
    sfg_branches,
    tmsv_pair,
)

HERALD_TARGET = {"A": "phi_minus", "D": "phi_plus"}
# Analyzer angle of both parties in the Z and X visibility measurements.
VISIBILITY_BASES = (("z", 0.0), ("x", math.pi / 4))


@dataclass(frozen=True)
class ExperimentParams:
    """All physical parameters of the swapping experiment."""

    eps1: SourceParams
    eps2: SourceParams
    sfg: SfgParams
    t1H: float = 1.0
    t1V: float = 1.0
    t2H: float = 1.0
    t2V: float = 1.0
    eta_tH: float = 1.0
    eta_tV: float = 1.0
    eta_1H: float = 1.0
    eta_1V: float = 1.0
    eta_2H: float = 1.0
    eta_2V: float = 1.0
    eta_d: float = 1.0
    dark: float = 0.0
    window_acceptance: float = 1.0
    pair_cap: int = 3

    def __post_init__(self):
        for name in ("t1H", "t1V", "t2H", "t2V", "eta_tH", "eta_tV", "eta_1H", "eta_1V",
                     "eta_2H", "eta_2V", "eta_d", "window_acceptance"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")
        if not 0.0 <= self.dark < 1.0:
            raise ValueError(f"dark must be in [0, 1), got {self.dark!r}")
        if self.pair_cap < 2:
            raise ValueError("pair_cap must be at least 2: the SFG herald "
                             "needs one photon from each of two pairs")

    def channel_losses(self) -> LossMap:
        return LossMap({"aH": self.t1H, "aV": self.t1V, "bH": self.t2H, "bV": self.t2V})

    def c_losses(self) -> LossMap:
        return LossMap({"cH": self.eta_tH, "cV": self.eta_tV})

    def analyzer_efficiencies(self) -> CoincidenceEfficiencies:
        return CoincidenceEfficiencies(d_H=self.eta_1H, d_V=self.eta_1V,
                                       e_H=self.eta_2H, e_V=self.eta_2V)

    def replace(self, **kwargs) -> "ExperimentParams":
        from dataclasses import replace as _replace
        return _replace(self, **kwargs)


@dataclass(frozen=True)
class VisibilityReport:
    """Figures of merit of a swapped state."""

    v_z: float
    v_x: float
    fidelity_lower_bound: float
    herald_prob: float
    p_z: dict = field(default_factory=dict)  # ij -> mixed coincidence prob, Z basis
    p_x: dict = field(default_factory=dict)
    p_sfg_z: dict = field(default_factory=dict)
    p_sfg_x: dict = field(default_factory=dict)
    p_acd_z: dict = field(default_factory=dict)
    p_acd_x: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"V_Z = {self.v_z:.12g}",
            f"V_X = {self.v_x:.12g}",
            f"F_low = {self.fidelity_lower_bound:.12g}",
            f"herald_prob = {self.herald_prob:.12g}",
        ]
        for name, table in (("P_Z", self.p_z), ("P_X", self.p_x)):
            for ij in ("HH", "HV", "VH", "VV"):
                if ij in table:
                    lines.append(f"{name}_{ij} = {table[ij]:.12g}")
        return "\n".join(lines) + "\n"


def sfg_heralded_branches(params: ExperimentParams, basis: str = "A", gain: float = 1.0):
    """Pure branches of the unnormalized heralded state on (dH, dV, eH, eV).

    Returns (branches, psi_in).  The outer-product sum of the branches is
    the event-weighted heralded operator; its trace is the herald
    probability.
    """
    psi_in = build_swapping_input(params.eps1, params.eps2, pair_cap=params.pair_cap)
    branches = loss_branches(psi_in, params.channel_losses())
    branches = sfg_branches(branches, params.sfg.scaled(gain))
    out = []
    for phi in branches:
        out.extend(loss_branches(phi, params.c_losses()))
    heralded = herald_amplitude_branches(out, basis, DetectorModel(params.eta_d))
    heralded = [phi if phi.register == OUTPUT_REGISTER else phi.reorder(OUTPUT_REGISTER)
                for phi in heralded]
    return heralded, psi_in


def sfg_heralded_operator(params: ExperimentParams, basis: str = "A",
                          gain: float = 1.0) -> tuple:
    """Event-weighted heralded density operator and the input pure state."""
    branches, psi_in = sfg_heralded_branches(params, basis=basis, gain=gain)
    if branches:
        rho = DensityOperator.from_branches(branches, register=OUTPUT_REGISTER,
                                            n_max=2 * params.pair_cap)
    else:
        rho = DensityOperator(OUTPUT_REGISTER, {}, trace_meaning="event-probability",
                              n_max=2 * params.pair_cap)
    return rho, psi_in


def _coincidence_tables(rho, effs: CoincidenceEfficiencies) -> dict:
    """Coincidence probability of each (d arm, e arm) pair in each visibility
    basis of a block density, 'HV' meaning the H arm of d and the V arm of e."""
    n = rho.shape[0] - 1
    thetas = [theta for _, theta in VISIBILITY_BASES]
    c = block_readout(rho, thetas, arm_click_probs(effs.d_H, effs.d_V, n),
                      thetas, arm_click_probs(effs.e_H, effs.e_V, n))
    return {name: {d + e: float(c[k, k, i, j])
                   for i, d in enumerate("HV") for j, e in enumerate("HV")}
            for k, (name, _) in enumerate(VISIBILITY_BASES)}


def _visibility_z(p: dict) -> float:
    s = p["HH"] + p["VV"] + p["HV"] + p["VH"]
    return (p["HH"] + p["VV"] - p["HV"] - p["VH"]) / s


def _visibility_x(p: dict) -> float:
    s = p["HH"] + p["VV"] + p["HV"] + p["VH"]
    return (p["HV"] + p["VH"] - p["HH"] - p["VV"]) / s


def sfg_swap(params: ExperimentParams, basis: str = "A") -> VisibilityReport:
    """Full SFG-swapping pipeline: visibilities, fidelity bound, herald rate."""
    sfg, psi_in = sfg_heralded_branches(params, basis=basis)
    # The finite coincidence window accepts only this fraction of signal
    # events; dark counts are uniform in time, so only the signal branch
    # is scaled.
    if params.window_acceptance != 1.0:
        w = math.sqrt(params.window_acceptance)
        sfg = [b.scaled(w) for b in sfg]
    herald_prob = sum(b.norm_sq() for b in sfg)
    effs = params.analyzer_efficiencies()
    p_sfg = _coincidence_tables(block_density(sfg, params.pair_cap), effs)
    p_acd = _coincidence_tables(block_density(reduced_branches(psi_in), params.pair_cap), effs)
    p_mix = {name: {ij: mix_dark_counts(p, p_acd[name][ij], params.dark) for ij, p in table.items()}
             for name, table in p_sfg.items()}
    v_z = _visibility_z(p_mix["z"])
    v_x = _visibility_x(p_mix["x"])
    return VisibilityReport(
        v_z=v_z,
        v_x=v_x,
        fidelity_lower_bound=(v_z + v_x) / 2.0,
        herald_prob=herald_prob,
        p_z=p_mix["z"], p_x=p_mix["x"],
        p_sfg_z=p_sfg["z"], p_sfg_x=p_sfg["x"],
        p_acd_z=p_acd["z"], p_acd_x=p_acd["x"],
    )


def _pbs_mix_branch(phi: PureState) -> PureState:
    reg = phi.register
    i = reg.index("aV")
    j = reg.index("bV")
    amps = {}
    for occ, a in phi.amps.items():
        lst = list(occ)
        lst[i], lst[j] = lst[j], lst[i]
        amps[tuple(lst)] = a
    return PureState(reg, amps, n_max=phi.n_max)


def lo_swap(params: ExperimentParams, eta_bsa: float = 1.0) -> VisibilityReport:
    """Linear-optical Bell-state-analyzer counterpart of ``sfg_swap``.

    The a and b modes are mixed on a polarizing beamsplitter and the BSA
    heralds on a four-fold coincidence: the diagonal arm of each output
    (efficiency ``eta_bsa``) plus one analyzer arm on each of d and e.
    The BSA is assumed dark-count free; ``herald_prob`` is the probability
    of its two-fold click.
    """
    psi_in = build_swapping_input(params.eps1, params.eps2, pair_cap=params.pair_cap)
    i_aV, i_bH = SWAP_REGISTER.index("aV"), SWAP_REGISTER.index("bH")
    pieces = []
    for phi in loss_branches(psi_in, params.channel_losses()):
        phi = two_mode_rotation(_pbs_mix_branch(phi), "aH", "aV", -math.pi / 4)
        phi = two_mode_rotation(phi, "bH", "bV", -math.pi / 4)
        # Weight each amplitude by the square root of the BSA's two-fold
        # click probability, then split by the a, b occupations: one piece
        # on the output modes per BSA photon-number outcome.
        amps = {occ: a * math.sqrt(click_prob(eta_bsa, occ[i_bH]) * click_prob(eta_bsa, occ[i_aV]))
                for occ, a in phi.amps.items()}
        pieces.extend(reduced_branches(PureState(phi.register, amps, n_max=phi.n_max)))
    tables = _coincidence_tables(block_density(pieces, params.pair_cap),
                                 params.analyzer_efficiencies())
    v_z = _visibility_z(tables["z"])
    v_x = _visibility_x(tables["x"])
    return VisibilityReport(
        v_z=v_z, v_x=v_x,
        fidelity_lower_bound=(v_z + v_x) / 2.0,
        herald_prob=sum(p.norm_sq() for p in pieces),
        p_z=tables["z"], p_x=tables["x"],
        p_sfg_z=tables["z"], p_sfg_x=tables["x"],
    )


def error_event_probs(gamma: float, t: float) -> tuple:
    """Closed-form lowest-order error-event probabilities.

    With pair-generation probability gamma^2 per source and channel
    transmittance t, the (2, 1)-pair sector loses one of its three analyzer
    photons: losing a photon of the double-pair source happens with
    probability 2 gamma^6 t^2 (1 - t), losing the single-pair source's
    photon with gamma^6 t^2 (1 - t).  Only the first kind can still herald
    through the SFG analyzer.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0, 1)")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must be in [0, 1]")
    base = (gamma ** 6) * t * t * (1.0 - t)
    return 2.0 * base, base


def _bell_pair_power(modes_sig, modes_idl, n_pairs: int) -> PureState:
    """Normalized n-pair state (pair creator = (sH+iH+ + sV+iV+)/sqrt(2))."""
    reg = (modes_sig[0], modes_sig[1], modes_idl[0], modes_idl[1])
    state = PureState.vacuum(reg, n_max=2 * n_pairs)
    for _ in range(n_pairs):
        h = apply_creation(apply_creation(state, modes_sig[0]), modes_idl[0])
        v = apply_creation(apply_creation(state, modes_sig[1]), modes_idl[1])
        state = h.add(v).scaled(1.0 / math.sqrt(2.0))
    return state.normalized()


def error_event_probs_simulated(gamma: float, t: float) -> tuple:
    """Brute-force counterpart of ``error_event_probs``.

    Builds the (2, 1)-pair sector state explicitly, runs it through the
    ancilla-beamsplitter loss channels, and reads the two loss patterns off
    the reduced photon-number distribution of the analyzer modes.
    """
    from .optics import apply_loss

    two = _bell_pair_power(("aH", "aV"), ("dH", "dV"), 2)
    one = _bell_pair_power(("bH", "bV"), ("eH", "eV"), 1)
    # Lift the photon caps before the product: the joint sector carries six
    # photons, more than either factor's own cap.
    two = PureState(two.register, two.amps, n_max=6)
    one = PureState(one.register, one.amps, n_max=6)
    psi = tensor(two, one)
    rho = apply_loss(DensityOperator.from_pure(psi),
                     LossMap({"aH": t, "aV": t, "bH": t, "bV": t}))
    reg = rho.register
    ia = [reg.index(m) for m in ("aH", "aV")]
    ib = [reg.index(m) for m in ("bH", "bV")]
    p_one_lost_a = 0.0
    p_b_lost = 0.0
    for (k, b), v in rho.entries.items():
        if k != b:
            continue
        na = sum(k[i] for i in ia)
        nb = sum(k[i] for i in ib)
        if na == 1 and nb == 1:
            p_one_lost_a += v.real
        elif na == 2 and nb == 0:
            p_b_lost += v.real
    sector_weight = gamma ** 6
    return sector_weight * p_one_lost_a, sector_weight * p_b_lost


def _coherent_state(modes, amplitudes, n_max: int) -> PureState:
    """Truncated coherent product state over the given modes."""
    reg = tuple(modes)
    norm = math.exp(-sum(abs(complex(z)) ** 2 for z in amplitudes) / 2.0)
    per_mode = []
    for z in amplitudes:
        z = complex(z)
        per_mode.append([(z ** n) / math.sqrt(math.factorial(n)) for n in range(n_max + 1)])
    amps = {}
    kept = 0.0

    def fill(prefix, weight):
        nonlocal kept
        i = len(prefix)
        if i == len(reg):
            amps[tuple(prefix)] = weight
            kept += abs(weight) ** 2
            return
        used = sum(prefix)
        for n in range(n_max - used + 1):
            fill(prefix + [n], weight * per_mode[i][n])

    fill([], norm)
    dropped = max(0.0, 1.0 - kept)
    return PureState(reg, {k: v for k, v in amps.items() if abs(v) > 1e-16},
                     n_max=n_max, dropped_weight=dropped)


@dataclass(frozen=True)
class TeleportReport:
    """Outcome of a heralded polarization-transfer run."""

    fidelity: float
    herald_prob: float
    one_photon_weight: float
    truncation_dropped: float


def _one_photon_fidelity(rho_d: DensityOperator, alpha: complex, beta: complex) -> tuple:
    """Fidelity to alpha|H> + beta|V> on the one-photon subspace of mode d."""
    target = {(1, 0): complex(alpha), (0, 1): complex(beta)}
    total = rho_d.trace()
    one = 0.0
    fid_num = 0.0 + 0.0j
    for (k, b), v in rho_d.entries.items():
        if sum(k) == 1 and sum(b) == 1:
            if k == b:
                one += v.real
            fid_num += target[k].conjugate() * v * target[b]
    if one <= 0.0:
        raise ValueError("no one-photon component in the output state")
    return float(fid_num.real) / one, one / total if total > 0 else 0.0


def teleport(params: ExperimentParams, input_polarization, input_mean_photons: float,
             herald_basis: str = "D") -> TeleportReport:
    """Heralded polarization transfer of a weak coherent input.

    The entangled pair comes from source 1 on modes (a, d); the coherent
    input enters the analyzer's b port with mean photon number
    ``input_mean_photons`` split over H/V as |alpha|^2 : |beta|^2.  The
    reported fidelity is evaluated on the one-photon subspace of mode d,
    mirroring the tomographic conditioning of a detected output photon.
    """
    alpha, beta = (complex(x) for x in input_polarization)
    nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("input polarization must be normalized")
    n_max = 2 * params.pair_cap
    pair = tmsv_pair(params.eps1, ("aH", "aV"), ("dH", "dV"), params.pair_cap)
    z = math.sqrt(input_mean_photons)
    coh = _coherent_state(("bH", "bV"), (z * alpha, z * beta), n_max)
    psi = tensor(pair, coh).reorder(("aH", "aV", "bH", "bV", "dH", "dV"))
    dropped = psi.dropped_weight

    losses = LossMap({"aH": params.t1H, "aV": params.t1V,
                      "bH": params.t2H, "bV": params.t2V})
    branches = loss_branches(psi, losses)
    branches = sfg_branches(branches, params.sfg)
    after_c = []
    for phi in branches:
        after_c.extend(loss_branches(phi, params.c_losses()))
    heralded = herald_amplitude_branches(after_c, herald_basis, DetectorModel(params.eta_d))
    if not heralded:
        raise ValueError("herald probability is zero")
    rho_d = DensityOperator.from_branches(heralded, register=("dH", "dV"), n_max=n_max)
    herald_prob = rho_d.trace()
    # Heralding on D transfers (alpha, beta); heralding on A flips the sign
    # of the V component.
    tb = beta if herald_basis == "D" else -beta
    fidelity, one_weight = _one_photon_fidelity(rho_d, alpha, tb)
    return TeleportReport(fidelity=fidelity, herald_prob=herald_prob,
                          one_photon_weight=one_weight, truncation_dropped=dropped)


@dataclass(frozen=True)
class QfcReport:
    fidelity: float
    herald_prob: float
    conversion_angle_H: float
    conversion_angle_V: float


def qfc_teleport_strong_pump(alpha: complex, beta: complex, chi_tau: float,
                             pair: PureState = None, eta_d: float = 1.0) -> QfcReport:
    """Polarization transfer by frequency conversion with a classical pump.

    The input light acts as the pump with polarization amplitudes
    (alpha, beta); the exact conversion rotation is applied to the a modes
    of the entangled pair and the converted photon is heralded on |D>.  In
    the weak-pump regime the d photon inherits (alpha, beta); for strong
    pumps the transfer degrades toward polarization-insensitive conversion.
    """
    alpha, beta = complex(alpha), complex(beta)
    if pair is None:
        pair = PureState(("aH", "aV", "dH", "dV"),
                         {(1, 0, 1, 0): 1 / math.sqrt(2), (0, 1, 0, 1): 1 / math.sqrt(2)},
                         n_max=2)
    state = extend_state(pair, ("cH", "cV"))
    state = qfc_mode_transform(state, alpha, beta, chi_tau)
    heralded = herald_amplitude_branches([state], "D", DetectorModel(eta_d))
    if not heralded:
        return QfcReport(fidelity=0.0, herald_prob=0.0,
                         conversion_angle_H=abs(alpha) * chi_tau,
                         conversion_angle_V=abs(beta) * chi_tau)
    rho_d = DensityOperator.from_branches(heralded, register=("dH", "dV"), n_max=pair.n_max)
    herald_prob = rho_d.trace()
    nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    fidelity, _ = _one_photon_fidelity(rho_d, alpha / nrm, beta / nrm)
    return QfcReport(fidelity=fidelity, herald_prob=herald_prob,
                     conversion_angle_H=abs(alpha) * chi_tau,
                     conversion_angle_V=abs(beta) * chi_tau)
