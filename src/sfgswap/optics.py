"""Physical building blocks: photon-pair sources, loss channels, and the
single-photon sum-frequency interaction.

Conventions:
  * Each source emits two-mode-squeezed vacua in the H and V polarizations
    of a (signal, idler) mode pair; the squeezing parameter is
    gamma = sqrt(mu / (1 + mu)) for mean photon number mu per mode.
  * Loss on a mode with transmittance t is an ancilla beamsplitter of
    transmittance t followed by a partial trace over the ancilla, applied
    as its Kraus decomposition into pure branches.
  * The sum-frequency interaction is kept to first order in the coupling;
    the converted branch creates exactly one photon in the c modes.

The channels here act on pure branches, the route of teleportation,
frequency-conversion teleportation and the error-event analysis; the swap
pipelines apply the same loss amplitudes to arrays of pair numbers
(``protocols.heralding_filter``, ``protocols.lo_swap``).  The
density-operator channels in ``tests/density_route.py`` are the reference
the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import (
    PureState,
    apply_annihilation,
    apply_creation,
    mode_index,
    tensor,
    two_mode_rotation,
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


def loss_branches(psi: PureState, losses: LossMap):
    """Pure-state Kraus decomposition of the loss channel.

    Yields unnormalized pure states, one per number of photons lost on each
    mode, whose outer-product sum is the attenuated state: the ancilla
    beamsplitter of transmittance t followed by a trace over the ancilla.
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


def extend_state(psi: PureState, modes) -> PureState:
    """Append fresh vacuum modes to a pure state's register."""
    pad = (0,) * len(modes)
    return PureState(psi.register + tuple(modes), {occ + pad: a for occ, a in psi.amps.items()},
                     n_max=psi.n_max)


def sfg_branches(branches, sfg: SfgParams):
    """Converted-branch SFG on an iterable of pure branches."""
    out = []
    for phi in branches:
        if not all(m in phi.register for m in SFG_OUTPUT_MODES):
            phi = extend_state(phi, SFG_OUTPUT_MODES)
        conv = _sfg_operator(phi, sfg)
        if conv.amps:
            out.append(conv)
    return out


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
