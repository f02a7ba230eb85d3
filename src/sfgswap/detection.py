"""Threshold-detector POVMs, SFG-photon heralding, and click-pattern
probabilities.

A threshold detector with efficiency eta clicks on an n-photon mode with
probability 1 - (1 - eta)^n and cannot resolve photon number.  Polarization
analyzers are modeled as a beamsplitter rotation of angle theta between the
H and V mode of each output arm followed by threshold detection of each arm
(theta = 0 is the Z basis, theta = pi/4 the X basis).

Every analyzer readout folds one table: the photon-number diagonal after
the analyzer rotations (``rotated_diagonal``) turned into the sixteen joint
click patterns of the four arms (``click_patterns``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import (
    DensityOperator,
    PureState,
    mode_index,
    partial_trace,
    sandwich,
    two_mode_rotation,
    unitary_column_map,
)
from .optics import ANALYZER_MODES, OUTPUT_REGISTER


@dataclass(frozen=True)
class DetectorModel:
    """Efficiency and dark-count probability per coincidence window."""

    efficiency: float
    dark_prob_per_window: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("detector efficiency must be in [0, 1]")
        if not 0.0 <= self.dark_prob_per_window < 1.0:
            raise ValueError("dark probability per window must be in [0, 1)")


@dataclass(frozen=True)
class AnalyzerSetting:
    """Polarization-analyzer angle in radians."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi:
            raise ValueError("analyzer angle must lie in [0, pi)")


def click_prob(eta: float, n: int) -> float:
    """Threshold-click probability for n incident photons."""
    return 1.0 - (1.0 - eta) ** n


def threshold_povm(register, mode: str, partner: str, setting: AnalyzerSetting,
                   det: DetectorModel, n_max: int = 2, register_cap: int = None) -> DensityOperator:
    """POVM element for a click of the analyzer arm ``mode``.

    The analyzer rotates (mode, partner) by ``setting.theta`` before the
    threshold detector; the returned operator acts as the identity on all
    other register modes up to the total-photon cap ``register_cap``.
    ``n_max`` bounds the number sum of the threshold expansion (the swapping
    model needs at most 2).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    reg = tuple(register)
    i = mode_index(reg, mode)
    eta = det.efficiency
    cap = register_cap if register_cap is not None else max(2, n_max)

    # Diagonal threshold element in the unrotated basis, identity elsewhere.
    entries = {}
    for occ in _enumerate_occupations(len(reg), cap):
        n = occ[i]
        if 1 <= n <= n_max:
            entries[(occ, occ)] = click_prob(eta, n)
    bare = DensityOperator(reg, entries, trace_meaning="event-probability", n_max=cap)

    theta = setting.theta
    if theta == 0.0:
        return bare
    col = unitary_column_map(
        reg, bare.n_max, lambda s: two_mode_rotation(s, mode, partner, theta)
    )
    return sandwich(bare, col)


def _enumerate_occupations(n_modes: int, total_max: int):
    if n_modes == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in _enumerate_occupations(n_modes - 1, total_max - head):
            yield (head,) + tail


HERALD_SIGNS = {"D": +1.0, "A": -1.0}


def herald_projection(rho: DensityOperator, basis: str, det: DetectorModel) -> DensityOperator:
    """Project the SFG photon on |D> or |A> and trace out the analyzer arm.

    Valid only when at most one photon occupies the c modes.  Returns the
    unnormalized heralded state over the remaining modes; its trace is the
    herald probability.
    """
    try:
        sign = HERALD_SIGNS[basis]
    except KeyError:
        raise ValueError(f"herald basis must be 'D' or 'A', got {basis!r}") from None
    reg = rho.register
    iH = mode_index(reg, "cH")
    iV = mode_index(reg, "cV")

    def project(occ):
        nH, nV = occ[iH], occ[iV]
        if nH + nV > 1:
            raise ValueError("herald_projection requires at most one c photon")
        if nH + nV == 0:
            return None, 0.0
        amp = (1.0 if nH == 1 else sign) / math.sqrt(2.0)
        rest = tuple(n for j, n in enumerate(occ) if j not in (iH, iV))
        return rest, amp

    keep = [j for j in range(len(reg)) if j not in (iH, iV)]
    out_reg = tuple(reg[j] for j in keep)
    entries = {}
    for (k, b), v in rho.entries.items():
        rk, ak = project(k)
        rb, ab = project(b)
        if rk is None or rb is None:
            continue
        w = v * ak * ab * det.efficiency
        if w != 0.0:
            key = (rk, rb)
            entries[key] = entries.get(key, 0.0) + w
    reduced = DensityOperator(out_reg, entries, trace_meaning="event-probability", n_max=rho.n_max)
    drop = [m for m in out_reg if m in ANALYZER_MODES]
    return partial_trace(reduced, drop) if drop else reduced


def herald_amplitude_branches(branches, basis: str, det: DetectorModel):
    """Pure-branch herald: <D/A| on the c modes of each branch.

    Returns pure states over the non-a/b/c modes; summing their outer
    products reproduces ``herald_projection`` applied to the branch mixture.
    """
    sign = HERALD_SIGNS[basis]
    scale = math.sqrt(det.efficiency)
    out = []
    for phi in branches:
        reg = phi.register
        iH = mode_index(reg, "cH")
        iV = mode_index(reg, "cV")
        keep = [j for j in range(len(reg)) if j not in (iH, iV)
                and reg[j] not in ANALYZER_MODES]
        trace_over = [j for j in range(len(reg)) if j not in (iH, iV) and j not in keep]
        out_reg = tuple(reg[j] for j in keep)
        # Group by the traced-out (a, b) occupations: distinct occupations on
        # traced modes yield orthogonal, hence separate, pure branches.
        grouped = {}
        for occ, a in phi.amps.items():
            nH, nV = occ[iH], occ[iV]
            if nH + nV > 1:
                raise ValueError("herald requires at most one c photon")
            if nH + nV == 0:
                continue
            amp = a * (1.0 if nH == 1 else sign) / math.sqrt(2.0) * scale
            group = tuple(occ[j] for j in trace_over)
            rest = tuple(occ[j] for j in keep)
            g = grouped.setdefault(group, {})
            g[rest] = g.get(rest, 0.0) + amp
        for amps in grouped.values():
            amps = {k: v for k, v in amps.items() if abs(v) > 1e-16}
            if amps:
                out.append(PureState(out_reg, amps, n_max=phi.n_max))
    return out


@dataclass(frozen=True)
class CoincidenceEfficiencies:
    """Detection efficiencies of the four polarization-analyzer arms."""

    d_H: float
    d_V: float
    e_H: float
    e_V: float


def _rotated_diagonal(rho: DensityOperator, theta1: float, theta2: float) -> dict:
    """Density-operator counterpart of ``rotated_diagonal``: the diagonal of
    rho on (dH, dV, eH, eV) after undoing the analyzer rotations on d and e."""
    if theta1 != 0.0 or theta2 != 0.0:
        def unrotate(s):
            out = s
            if theta1 != 0.0:
                out = two_mode_rotation(out, "dH", "dV", -theta1)
            if theta2 != 0.0:
                out = two_mode_rotation(out, "eH", "eV", -theta2)
            return out

        rho = sandwich(rho, unitary_column_map(rho.register, rho.n_max, unrotate))
    idx = [mode_index(rho.register, m) for m in OUTPUT_REGISTER]
    diag = {}
    for (k, b), v in rho.entries.items():
        if k == b:
            key = tuple(k[i] for i in idx)
            diag[key] = diag.get(key, 0.0) + v.real
    return diag


def rotated_diagonal(branches, theta_d: float, theta_e: float) -> dict:
    """Photon-number diagonal of the mixture of pure ``branches`` after the
    analyzer rotations of angle theta_d on (dH, dV) and theta_e on (eH, eV).

    Keys are occupations of the branches' register, which is
    (dH, dV, eH, eV) for the heralded and accidental branches.
    """
    diag = {}
    for phi in branches:
        if theta_d != 0.0:
            phi = two_mode_rotation(phi, "dH", "dV", -theta_d)
        if theta_e != 0.0:
            phi = two_mode_rotation(phi, "eH", "eV", -theta_e)
        for occ, a in phi.amps.items():
            diag[occ] = diag.get(occ, 0.0) + (a * a.conjugate()).real
    return diag


# Pattern c of ``click_patterns`` has bit i set when arm i of
# (dH, dV, eH, eV) clicked.
_PATTERN_KEYS = tuple(((bool(c & 1), bool(c & 2)), (bool(c & 4), bool(c & 8)))
                     for c in range(16))


def click_patterns(diag: dict, efficiencies: CoincidenceEfficiencies) -> dict:
    """All sixteen joint click/no-click pattern probabilities of the four
    analyzer arms, given the photon-number diagonal on (dH, dV, eH, eV).

    Keys are ((click_dH, click_dV), (click_eH, click_eV)) with booleans.
    """
    eta_dH, eta_dV = efficiencies.d_H, efficiencies.d_V
    eta_eH, eta_eV = efficiencies.e_H, efficiencies.e_V
    slots = [0.0] * 16
    for (n_dH, n_dV, n_eH, n_eV), w in diag.items():
        p_dH, p_dV = click_prob(eta_dH, n_dH), click_prob(eta_dV, n_dV)
        p_eH, p_eV = click_prob(eta_eH, n_eH), click_prob(eta_eV, n_eV)
        d = (w * (1.0 - p_dH) * (1.0 - p_dV), w * p_dH * (1.0 - p_dV),
             w * (1.0 - p_dH) * p_dV, w * p_dH * p_dV)
        e = ((1.0 - p_eH) * (1.0 - p_eV), p_eH * (1.0 - p_eV),
             (1.0 - p_eH) * p_eV, p_eH * p_eV)
        for j, pe in enumerate(e):
            for i, pd in enumerate(d):
                slots[4 * j + i] += pd * pe
    return dict(zip(_PATTERN_KEYS, slots))


def joint_click_pattern_probs(rho: DensityOperator, theta1: float, theta2: float,
                              efficiencies: CoincidenceEfficiencies) -> dict:
    """``click_patterns`` of a density operator for one setting pair."""
    return click_patterns(_rotated_diagonal(rho, theta1, theta2), efficiencies)


def accidental_branches(psi_in: PureState):
    """Pure branches of the output-mode state left by a dark-count herald.

    Grouping the input amplitudes by the traced-out analyzer-arm
    occupations decomposes the reduced state into orthogonal pure pieces.
    """
    reg = psi_in.register
    keep = [i for i, m in enumerate(reg) if m in OUTPUT_REGISTER]
    drop = [i for i in range(len(reg)) if i not in keep]
    out_reg = tuple(reg[i] for i in keep)
    grouped = {}
    for occ, a in psi_in.amps.items():
        g = tuple(occ[i] for i in drop)
        rest = tuple(occ[i] for i in keep)
        d = grouped.setdefault(g, {})
        d[rest] = d.get(rest, 0.0) + a
    out = []
    for amps in grouped.values():
        amps = {k: v for k, v in amps.items() if abs(v) > 1e-16}
        if amps:
            phi = PureState(out_reg, amps, n_max=psi_in.n_max)
            out.append(phi if out_reg == OUTPUT_REGISTER else phi.reorder(OUTPUT_REGISTER))
    return out


def mix_dark_counts(p_sfg: float, p_acd: float, dark: float) -> float:
    """Total coincidence probability with a dark-count heralding branch."""
    for name, v in (("p_sfg", p_sfg), ("p_acd", p_acd), ("dark", dark)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} outside [0, 1]: {v}")
    return p_sfg * (1.0 - dark) + dark * p_acd
