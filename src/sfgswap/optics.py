"""Physical building blocks: photon-pair sources, loss channels, and the
single-photon sum-frequency interaction.

Conventions:
  * Each source emits two-mode-squeezed vacua in the H and V polarizations
    of a (signal, idler) mode pair; the squeezing parameter is
    gamma = sqrt(mu / (1 + mu)) for mean photon number mu per mode.
  * Loss on a mode with transmittance t is an ancilla beamsplitter of
    transmittance t followed by a partial trace over the ancilla.
  * The sum-frequency interaction is kept to first order in the coupling;
    the converted branch creates exactly one photon in the c modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import (
    DensityOperator,
    ModeError,
    PureState,
    apply_annihilation,
    apply_creation,
    mode_index,
    partial_trace,
    sandwich,
    tensor,
    two_mode_rotation,
    unitary_column_map,
)


@dataclass(frozen=True)
class SourceParams:
    """Mean photon numbers per polarization mode of one pair source."""

    mu_H: float
    mu_V: float

    def __post_init__(self):
        if not (0.0 <= self.mu_H < math.inf and 0.0 <= self.mu_V < math.inf):
            raise ValueError("mean photon numbers must be finite and nonnegative")

    @property
    def gamma_H(self) -> float:
        return math.sqrt(self.mu_H / (1.0 + self.mu_H))

    @property
    def gamma_V(self) -> float:
        return math.sqrt(self.mu_V / (1.0 + self.mu_V))


@dataclass(frozen=True)
class SfgParams:
    """Single-photon SFG efficiency per polarization, (chi*tau)^2."""

    eta_H: float
    eta_V: float

    def __post_init__(self):
        for eta in (self.eta_H, self.eta_V):
            if not 0.0 <= eta <= 1.0:
                raise ValueError("SFG efficiency must be in [0, 1]")

    def scaled(self, gain: float) -> "SfgParams":
        return SfgParams(self.eta_H * gain, self.eta_V * gain)


class LossMap(dict):
    """Per-mode transmittance map, mode label -> t in [0, 1]."""

    def __init__(self, mapping=None, **kwargs):
        super().__init__(mapping or {}, **kwargs)
        for mode, t in self.items():
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"transmittance for {mode} outside [0, 1]: {t}")


def tmsv_pair(src: SourceParams, signal_modes, idler_modes, pair_cap: int) -> PureState:
    """Truncated two-mode-squeezed-vacuum pair source.

    ``signal_modes`` and ``idler_modes`` are (H, V) label pairs.  The state
    sums gamma_H^k gamma_V^l |k,l,k,l> over k + l <= pair_cap and is
    renormalized after truncation.
    """
    if pair_cap < 0:
        raise ValueError("pair_cap must be nonnegative")
    sH, sV = signal_modes
    iH, iV = idler_modes
    register = (sH, sV, iH, iV)
    gH, gV = src.gamma_H, src.gamma_V
    pref = math.sqrt((1.0 - gH * gH) * (1.0 - gV * gV))
    amps = {}
    for k in range(pair_cap + 1):
        for l in range(pair_cap + 1 - k):
            amps[(k, l, k, l)] = pref * (gH ** k) * (gV ** l)
    state = PureState(register, amps, n_max=2 * pair_cap)
    return state.normalized()


# Register roles of the swapping pipeline: the analyzer input modes a, b
# (traced out once the herald is read), the output modes d, e carrying the
# swapped state, and their canonical order.
ANALYZER_MODES = ("aH", "aV", "bH", "bV")
OUTPUT_REGISTER = ("dH", "dV", "eH", "eV")
SWAP_REGISTER = ANALYZER_MODES + OUTPUT_REGISTER


def build_swapping_input(eps1: SourceParams, eps2: SourceParams, pair_cap: int = 3) -> PureState:
    """Input state of the swapping experiment: two pair sources feeding the
    analyzer modes a, b and the output modes d, e, truncated to at most
    ``pair_cap`` photon pairs in total."""
    s1 = tmsv_pair(eps1, ("aH", "aV"), ("dH", "dV"), pair_cap)
    s2 = tmsv_pair(eps2, ("bH", "bV"), ("eH", "eV"), pair_cap)
    prod = tensor(s1, s2)
    # Enforce the cap on total pairs (each pair is two photons).
    amps = {occ: a for occ, a in prod.amps.items() if sum(occ) <= 2 * pair_cap}
    state = PureState(prod.register, amps, n_max=2 * pair_cap)
    return state.reorder(SWAP_REGISTER).normalized()


def _loss_ancilla(mode: str) -> str:
    return mode + "'"


def apply_loss(rho: DensityOperator, losses: LossMap) -> DensityOperator:
    """Attenuation channel on each mapped mode (ancilla beamsplitter followed
    by a partial trace over the ancilla).  Trace preserving."""
    for mode, t in losses.items():
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmittance outside [0, 1]: {t}")
        if t == 1.0:
            continue
        anc = _loss_ancilla(mode)
        reg = rho.register + (anc,)
        entries = {(k + (0,), b + (0,)): v for (k, b), v in rho.entries.items()}
        extended = DensityOperator(reg, entries, trace_meaning=rho.trace_meaning, n_max=rho.n_max)
        theta = math.acos(math.sqrt(t))
        col = unitary_column_map(
            reg, rho.n_max, lambda s, m=mode, a=anc, th=theta: two_mode_rotation(s, m, a, th)
        )
        rotated = sandwich(extended, col)
        rho = partial_trace(rotated, [anc])
    return rho


def loss_branches(psi: PureState, losses: LossMap):
    """Pure-state Kraus decomposition of the loss channel.

    Yields unnormalized pure states whose outer-product sum equals
    ``apply_loss(|psi><psi|, losses)``.  Used as a fast path by the
    protocol pipelines; equivalence with ``apply_loss`` is covered by tests.
    """
    branches = [psi]
    for mode, t in losses.items():
        if t == 1.0:
            continue
        new_branches = []
        for phi in branches:
            i = mode_index(phi.register, mode)
            max_n = max((occ[i] for occ in phi.amps), default=0)
            for m in range(max_n + 1):
                amps = {}
                for occ, a in phi.amps.items():
                    n = occ[i]
                    if n < m:
                        continue
                    w = a * math.sqrt(math.comb(n, m)) * (t ** ((n - m) / 2.0)) * ((1.0 - t) ** (m / 2.0))
                    new = occ[:i] + (n - m,) + occ[i + 1:]
                    amps[new] = amps.get(new, 0.0) + w
                if amps:
                    new_branches.append(PureState(phi.register, amps, n_max=phi.n_max,
                                                  dropped_weight=phi.dropped_weight))
        branches = new_branches
    return branches


SFG_INPUT_MODES = ("aH", "aV", "bH", "bV")
SFG_OUTPUT_MODES = ("cH", "cV")


def _sfg_operator(state: PureState, sfg: SfgParams) -> PureState:
    """Apply sqrt(eta_H) aH bH cH+ + sqrt(eta_V) aV bV cV+ to a pure state."""
    out = None
    for eta, (ma, mb, mc) in ((sfg.eta_H, ("aH", "bH", "cH")), (sfg.eta_V, ("aV", "bV", "cV"))):
        term = apply_creation(
            apply_annihilation(apply_annihilation(state, ma), mb), mc, truncate=False
        ).scaled(math.sqrt(eta))
        out = term if out is None else out.add(term)
    return out


def _extend_with_vacuum(register, entries_or_amps, modes, is_density: bool):
    pad = (0,) * len(modes)
    if is_density:
        return {(k + pad, b + pad): v for (k, b), v in entries_or_amps.items()}
    return {occ + pad: a for occ, a in entries_or_amps.items()}


def extend_state(psi: PureState, modes) -> PureState:
    """Append fresh vacuum modes to a pure state's register."""
    reg = psi.register + tuple(modes)
    return PureState(reg, _extend_with_vacuum(psi.register, psi.amps, modes, False), n_max=psi.n_max)


def extend_density(rho: DensityOperator, modes) -> DensityOperator:
    reg = rho.register + tuple(modes)
    return DensityOperator(reg, _extend_with_vacuum(rho.register, rho.entries, modes, True),
                           trace_meaning=rho.trace_meaning, n_max=rho.n_max)


def apply_sfg_first_order(rho: DensityOperator, sfg: SfgParams) -> DensityOperator:
    """First-order converted branch of the sum-frequency interaction.

    The register must contain aH, aV, bH, bV; fresh vacuum modes cH, cV are
    appended if absent (an error is raised if they exist but are occupied).
    Returns the event-weighted operator O rho O+ whose trace is the
    SFG-emission probability.
    """
    reg = rho.register
    if all(m in reg for m in SFG_OUTPUT_MODES):
        for (k, b) in rho.entries:
            for m in SFG_OUTPUT_MODES:
                i = mode_index(reg, m)
                if k[i] != 0 or b[i] != 0:
                    raise ValueError("SFG output modes must start in vacuum")
    else:
        rho = extend_density(rho, SFG_OUTPUT_MODES)
        reg = rho.register

    n_max = rho.n_max

    def column(occ):
        out = _sfg_operator(PureState.basis(reg, occ, n_max=n_max), sfg)
        return dict(out.amps)

    out = sandwich(rho, column)
    return DensityOperator(out.register, out.entries, trace_meaning="event-probability", n_max=n_max)


def sfg_branches(branches, sfg: SfgParams):
    """Converted-branch SFG on an iterable of pure branches (fast path)."""
    out = []
    for phi in branches:
        if not all(m in phi.register for m in SFG_OUTPUT_MODES):
            phi = extend_state(phi, SFG_OUTPUT_MODES)
        conv = _sfg_operator(phi, sfg)
        if conv.amps:
            out.append(conv)
    return out


def kraus_parity_check(state: PureState, sfg: SfgParams) -> PureState:
    """Ideal parity-check Kraus operator for at most two photons in a, b.

    K = sqrt(eta_H)|H>_c<HH|_ab + sqrt(eta_V)|V>_c<VV|_ab.  The a and b
    modes are replaced by the c modes in the output register; the squared
    norm of the result is the success probability.
    """
    reg = state.register
    idx = {m: mode_index(reg, m) for m in SFG_INPUT_MODES}
    keep = [i for i in range(len(reg)) if reg[i] not in SFG_INPUT_MODES]
    out_reg = tuple(reg[i] for i in keep) + SFG_OUTPUT_MODES
    amps = {}
    for occ, a in state.amps.items():
        ab = (occ[idx["aH"]], occ[idx["aV"]], occ[idx["bH"]], occ[idx["bV"]])
        if sum(ab) > 2:
            raise ValueError("kraus_parity_check requires at most two photons in modes a, b")
        if ab == (1, 0, 1, 0):
            c, w = (1, 0), math.sqrt(sfg.eta_H)
        elif ab == (0, 1, 0, 1):
            c, w = (0, 1), math.sqrt(sfg.eta_V)
        else:
            continue
        new = tuple(occ[i] for i in keep) + c
        amps[new] = amps.get(new, 0.0) + a * w
    return PureState(out_reg, amps, n_max=state.n_max)


def pbs_mix(rho: DensityOperator) -> DensityOperator:
    """Polarizing-beamsplitter mixing of modes a and b: H components pass,
    V components swap between a and b (a mode relabeling)."""
    reg = rho.register
    i = mode_index(reg, "aV")
    j = mode_index(reg, "bV")

    def swap(occ):
        lst = list(occ)
        lst[i], lst[j] = lst[j], lst[i]
        return tuple(lst)

    entries = {(swap(k), swap(b)): v for (k, b), v in rho.entries.items()}
    return DensityOperator(reg, entries, trace_meaning=rho.trace_meaning, n_max=rho.n_max)


def qfc_mode_transform(state: PureState, alpha: complex, beta: complex, chi_tau: float,
                       a_modes=("aH", "aV"), c_modes=("cH", "cV")) -> PureState:
    """Exact frequency-conversion rotation driven by a classical pump.

    Each polarization rotates between its a and c mode by the angle
    |alpha| chi tau (H) or |beta| chi tau (V), with the pump phase carried
    on the cross term.  Exactly unitary for all pump strengths.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    out = state
    for amp, ma, mc in ((alpha, a_modes[0], c_modes[0]), (beta, a_modes[1], c_modes[1])):
        theta = abs(amp) * chi_tau
        phase = math.atan2(amp.imag, amp.real)
        out = two_mode_rotation(out, ma, mc, theta, phase=phase)
    return out
