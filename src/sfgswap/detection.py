"""Threshold-detector POVMs, SFG-photon heralding, and click-pattern
probabilities.

A threshold detector with efficiency eta clicks on an n-photon mode with
probability 1 - (1 - eta)^n and cannot resolve photon number.  Polarization
analyzers are modeled as a beamsplitter rotation of angle theta between the
H and V mode of each output arm followed by threshold detection of each arm
(theta = 0 is the Z basis, theta = pi/4 the X basis).

An analyzer rotation keeps each party's photon number N and acts on the
N-photon (H, V) block as the spin-N/2 representation of SU(2), so every
pipeline readout is one contraction (``block_readout``) of small blocks of
the state (``block_density``).  The density-operator route
(``joint_click_pattern_probs``) is the reference the tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
        iH, iV = mode_index(phi.register, "cH"), mode_index(phi.register, "cV")
        rest_reg = tuple(m for j, m in enumerate(phi.register) if j not in (iH, iV))
        amps = {}
        for occ, a in phi.amps.items():
            nH, nV = occ[iH], occ[iV]
            if nH + nV > 1:
                raise ValueError("herald requires at most one c photon")
            if nH + nV == 1:
                rest = tuple(n for j, n in enumerate(occ) if j not in (iH, iV))
                amp = a * (1.0 if nH == 1 else sign) / math.sqrt(2.0) * scale
                amps[rest] = amps.get(rest, 0.0) + amp
        out.extend(reduced_branches(PureState(rest_reg, amps, n_max=phi.n_max),
                                    [m for m in rest_reg if m not in ANALYZER_MODES]))
    return out


@dataclass(frozen=True)
class CoincidenceEfficiencies:
    """Detection efficiencies of the four polarization-analyzer arms."""

    d_H: float
    d_V: float
    e_H: float
    e_V: float


def _rotated_diagonal(rho: DensityOperator, theta1: float, theta2: float) -> dict:
    """Diagonal of rho on (dH, dV, eH, eV) after undoing the analyzer
    rotations on d and e."""
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


def block_density(pieces, n: int) -> np.ndarray:
    """Photon-number-block density of the mixture of pure ``pieces`` on
    (dH, dV, eH, eV), each party holding at most n photons: entry
    [N_d, a, a', N_e, b, b'] is Re <a, N_d - a; b, N_e - b| rho |a', N_d - a'; b', N_e - b'>
    (a, b count H photons).  Readouts conserve N_d and N_e and their
    operators are real symmetric, so nothing else is kept."""
    k = n + 1
    rho = np.zeros((k * k, k * k, k * k))  # [(N_d, N_e), (a, b), (a', b')]
    for chunk in (pieces[i:i + 32] for i in range(0, len(pieces), 32)):  # bounded scratch
        psi = np.zeros((k * k, k * k, len(chunk)), dtype=complex)
        for i, phi in enumerate(chunk):
            for (dH, dV, eH, eV), amp in phi.amps.items():
                psi[(dH + dV) * k + eH + eV, dH * k + eH, i] = amp
        rho += (psi @ psi.conj().transpose(0, 2, 1)).real
    return np.ascontiguousarray(rho.reshape((k,) * 6).transpose(0, 2, 4, 1, 3, 5))


@functools.lru_cache(maxsize=None)
def _rotation_eig(n: int):
    """Eigenvalues w of i K_N, where K_N[a-1, a] = -K_N[a, a-1] = sqrt(a (N - a + 1))
    generates ``two_mode_rotation`` on the N-photon block, the real and imaginary
    parts of its eigenprojectors, and the identity, for N <= n, zero-padded."""
    w, v = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    for N in range(n + 1):
        off = np.sqrt(np.arange(1, N + 1) * np.arange(N, 0, -1.0))
        gen = np.diag(off, 1) - np.diag(off, -1)
        w[N, :N + 1], v[N, :N + 1, :N + 1] = np.linalg.eigh(1j * gen)
    proj = np.einsum("Nak,Nbk->Nkab", v, v.conj())
    eye = np.eye(n + 1) * np.tri(n + 1)[:, :, None]
    out = w, np.concatenate([proj.real, proj.imag], axis=1), eye
    for arr in out:
        arr.setflags(write=False)  # shared by every caller
    return out


def rotation_blocks(thetas, n: int) -> np.ndarray:
    """R[p, N, a, a'] = <a, N - a| two_mode_rotation(theta_p) |a', N - a'>
    for N <= n, zero-padded: I + V (exp(-i theta w) - 1) V+, exact at 0."""
    w, proj, eye = _rotation_eig(n)
    wt = np.multiply.outer(np.asarray(thetas, dtype=float), w)
    trig = np.concatenate([np.cos(wt) - 1.0, np.sin(wt)], axis=2)
    return eye + np.einsum("pNk,Nkab->pNab", trig, proj)


def arm_click_probs(eta_H: float, eta_V: float, n: int) -> np.ndarray:
    """Click probabilities [arm, N, a] of the H and V arm of one analyzer
    when it holds N photons, a of them in the (rotated) H mode."""
    N, a = np.indices((n + 1, n + 1))
    return np.stack([1.0 - (1.0 - eta_H) ** a, 1.0 - (1.0 - eta_V) ** np.maximum(N - a, 0)])


def block_readout(rho: np.ndarray, thetas_d, weights_d, thetas_e, weights_e) -> np.ndarray:
    """E[p, q, i, j] = Tr[rho (O(thetas_d[p], weights_d[i]) x O(thetas_e[q], weights_e[j]))]
    for a ``block_density`` rho, with O(theta, o) = R(-theta)^T diag(o) R(-theta) for a
    weight o[N, a] per photon-number state after the analyzer."""
    k, n_d = rho.shape[0], len(thetas_d)
    r = rotation_blocks(-np.concatenate([thetas_d, thetas_e]), k - 1)

    def operators(r, weights):
        return np.einsum("pNca,iNc,pNcb->piNab", r, np.asarray(weights), r).reshape(-1, k ** 3)

    e = operators(r[:n_d], weights_d) @ rho.reshape(k ** 3, -1) @ operators(r[n_d:], weights_e).T
    return e.reshape(n_d, -1, len(thetas_e), len(weights_e)).transpose(0, 2, 1, 3)


def reduced_branches(psi: PureState, modes=OUTPUT_REGISTER):
    """Orthogonal pure pieces of the reduced state of ``psi`` on ``modes``
    (by default the output modes, the state a dark-count herald leaves):
    one piece per occupation of the traced-out modes."""
    keep = [mode_index(psi.register, m) for m in modes]
    drop = [i for i in range(len(psi.register)) if i not in keep]
    grouped = {}
    for occ, a in psi.amps.items():
        d = grouped.setdefault(tuple(occ[i] for i in drop), {})
        rest = tuple(occ[i] for i in keep)
        d[rest] = d.get(rest, 0.0) + a
    pieces = ({k: v for k, v in amps.items() if abs(v) > 1e-16} for amps in grouped.values())
    return [PureState(tuple(modes), amps, n_max=psi.n_max) for amps in pieces if amps]


def mix_dark_counts(p_sfg: float, p_acd: float, dark: float) -> float:
    """Total coincidence probability with a dark-count heralding branch."""
    for name, v in (("p_sfg", p_sfg), ("p_acd", p_acd), ("dark", dark)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} outside [0, 1]: {v}")
    return p_sfg * (1.0 - dark) + dark * p_acd
