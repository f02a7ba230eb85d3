"""End-to-end pipelines: SFG-based and linear-optical entanglement swapping,
teleportation, frequency-conversion teleportation, and the lowest-order
error-event analysis.

The heralding pipeline is

    pair sources -> channel loss on a, b -> first-order SFG -> loss on c
    -> projection of the SFG photon on |D> or |A> -> threshold analyzers
    on d and e, with a dark-count heralding branch mixed in at the end.

Loss, SFG and the herald act on the a, b and c modes only, and each pair
source puts as many photons in d as in a (in e as in b), so the heralded
state is a fixed heralding filter (``heralding_filter``) rescaled by the
source amplitudes (``source_amplitudes``).  The filter and the
linear-optical swap (``lo_swap``) are one array contraction over pair
numbers: the heralded block density is
rho(n, n') = sum_l w(n, l) w(n', l) O(n - l, n' - l), with w the loss
amplitude of losing l of the n photons on each analyzer mode and O what the
herald does to the photons kept.  Every visibility readout is one
contraction of the photon-number-block density (``detection.block_readout``);
the Bell searches read the same blocks through ``bell.SearchKernel``.
Teleportation and frequency-conversion teleportation run the pipeline on
pure-state Kraus branches and read their fidelity straight off the heralded
branches.  The pure-branch swap pipelines and the density-operator route of
``tests/density_route.py`` are the references the tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .detection import (
    CoincidenceEfficiencies,
    DetectorModel,
    analyzer_operators,
    arm_click_probs,
    block_readout,
    herald_amplitude_branches,
    herald_sign,
    rotation_blocks,
)
from .fock import PureState, apply_creation, tensor
from .optics import (
    LossMap,
    OUTPUT_REGISTER,
    SfgParams,
    SourceParams,
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
    # The photon-herald and dark-count parts of p_z and p_x, which are their sums.
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


def _herald(psi: PureState, params: ExperimentParams, basis: str, gain: float = 1.0,
            register=OUTPUT_REGISTER):
    """Channel loss, first-order SFG, loss on c and the herald applied to
    ``psi``: pure branches on the output modes ``register`` whose
    outer-product sum is the event-weighted heralded operator."""
    branches = loss_branches(psi, params.channel_losses())
    branches = sfg_branches(branches, params.sfg.scaled(gain))
    out = []
    for phi in branches:
        out.extend(loss_branches(phi, params.c_losses()))
    heralded = herald_amplitude_branches(out, basis, DetectorModel(params.eta_d))
    return [phi if phi.register == register else phi.reorder(register) for phi in heralded]


def _bounded_rows(width: int, cap: int) -> np.ndarray:
    """Every row of ``width`` nonnegative integers summing to at most ``cap``,
    in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for _ in range(width):
        room = cap + 1 - rows.sum(axis=1)
        start = np.repeat(np.cumsum(room) - room, room)
        rows = np.column_stack([np.repeat(rows, room, axis=0), np.arange(start.size) - start])
    return rows


@dataclass(frozen=True)
class _SwapLayout:
    """Index layout of the heralded swap state at one ``pair_cap``.

    A row is a term of the swapping input with n = (n1H, n1V, n2H, n2V) pairs
    of which l of the photons on (aH, aV, bH, bV) are lost in the channel and
    m = n - l kept.  The rows of a pair (i, j) share l, and
    m_j = m_i + d (1, -1, 1, -1): the kept photons that the linear-optical
    analyzer, which conserves aH + bV and bH + aV, connects within one
    photon-number block of (d, e).  The SFG herald connects the rows of the
    d = -1 pairs, ``sfg_h`` to ``sfg_v``: converting an H pair of the first
    leaves the same photons as converting a V pair of the second.  The bins
    are flat indices of the block density (``detection.block_readout``).
    """

    n: np.ndarray
    lost: np.ndarray
    root_kept: np.ndarray
    root_comb: np.ndarray  # [n, l] = sqrt(C(n, l))
    source: np.ndarray  # flat index of each row's term in source_amplitudes
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_bins: np.ndarray
    pair_ahbv: np.ndarray  # flat index of (m_aH + m_bV, m_aH, m_aH') of each pair
    pair_bhav: np.ndarray  # flat index of (m_bH + m_aV, m_bH, m_bH')
    sfg_h: np.ndarray
    sfg_v: np.ndarray
    sfg_bins: np.ndarray  # of (h, h), (v, v), (h, v), (v, h)


@functools.lru_cache(maxsize=None)
def _swap_layout(cap: int) -> _SwapLayout:
    k = cap + 1
    rows = _bounded_rows(8, cap)
    kept, lost = rows[:, :4], rows[:, 4:]
    n = kept + lost
    low = -np.minimum(kept[:, 0], kept[:, 2])
    count = np.minimum(kept[:, 1], kept[:, 3]) - low + 1
    i = np.repeat(np.arange(len(rows)), count)
    d = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count) + low[i]
    partners = rows[i] + np.multiply.outer(d, [1, -1, 1, -1, 0, 0, 0, 0])
    codes = np.ravel_multi_index(rows.T, (k,) * 8)  # sorted, as the rows are
    j = np.searchsorted(codes, np.ravel_multi_index(partners.T, (k,) * 8))

    def bins(i, j):
        return np.ravel_multi_index((n[i, 0] + n[i, 1], n[i, 0], n[j, 0],
                                     n[i, 2] + n[i, 3], n[i, 2], n[j, 2]), (k,) * 6)

    h, v = i[d == -1], j[d == -1]
    layout = _SwapLayout(
        n=n, lost=lost, root_kept=np.sqrt(kept),
        root_comb=np.sqrt([[math.comb(x, y) for y in range(k)] for x in range(k)]),
        source=np.ravel_multi_index((n[:, 0] + n[:, 1], n[:, 0], n[:, 2] + n[:, 3], n[:, 2]),
                                    (k,) * 4),
        pair_i=i, pair_j=j, pair_bins=bins(i, j),
        pair_ahbv=np.ravel_multi_index((kept[i, 0] + kept[i, 3], kept[i, 0], kept[j, 0]), (k,) * 3),
        pair_bhav=np.ravel_multi_index((kept[i, 2] + kept[i, 1], kept[i, 2], kept[j, 2]), (k,) * 3),
        sfg_h=h, sfg_v=v,
        sfg_bins=np.concatenate([bins(h, h), bins(v, v), bins(h, v), bins(v, h)]))
    for arr in vars(layout).values():
        arr.setflags(write=False)  # shared by every caller
    return layout


def _loss_amplitudes(layout: _SwapLayout, params: ExperimentParams, amp) -> np.ndarray:
    """``amp`` times each row's channel-loss amplitude, the product over
    (aH, aV, bH, bV) of sqrt(C(n, l)) t^((n - l) / 2) (1 - t)^(l / 2)."""
    k = layout.root_comb.shape[0]
    for col, t in enumerate((params.t1H, params.t1V, params.t2H, params.t2V)):
        n, l = layout.n[:, col], layout.lost[:, col]
        kept = np.array([t ** (x / 2.0) for x in range(k)])
        gone = np.array([(1.0 - t) ** (x / 2.0) for x in range(k)])
        amp = amp * layout.root_comb[n, l] * kept[n - l] * gone[l]
    return amp


def _binned_blocks(bins: np.ndarray, weights: np.ndarray, cap: int) -> np.ndarray:
    """Block density with the sum of the weights of each bin."""
    k = cap + 1
    return np.bincount(bins, weights, minlength=k ** 6).reshape((k,) * 6)


def heralding_filter(params: ExperimentParams, basis: str = "A") -> np.ndarray:
    """Block density R (``detection.block_readout``) of the heralded state of
    the unit-amplitude input: amplitude 1 on every term of
    ``build_swapping_input`` with at most ``pair_cap`` pairs.

    It does not depend on the source strengths: the heralded state of any
    sources is R times the outer product of their ``source_amplitudes``.
    Each row's amplitude is its loss amplitude times that of
    K = sqrt(eta_d / 2) (sqrt(sfg_H eta_tH) aH bH +- sqrt(sfg_V eta_tV) aV bV)
    on its kept photons.
    """
    sign = herald_sign(basis)
    layout = _swap_layout(params.pair_cap)
    w = _loss_amplitudes(layout, params, 1.0)
    amps = []
    for rows, (ca, cb), eta, eta_t, s in (
            (layout.sfg_h, (0, 2), params.sfg.eta_H, params.eta_tH, 1.0),
            (layout.sfg_v, (1, 3), params.sfg.eta_V, params.eta_tV, sign)):
        root = layout.root_kept[rows]
        # The factors in the order the pure-branch pipeline applies them, so
        # that the lossless filter is the same to the last bit.
        amps.append(w[rows] * root[:, ca] * root[:, cb] * math.sqrt(eta) * eta_t ** 0.5
                    * s / math.sqrt(2.0) * math.sqrt(params.eta_d))
    h, v = amps
    return _binned_blocks(layout.sfg_bins, np.concatenate([h * h, v * v, h * v, v * h]),
                          params.pair_cap)


def source_amplitudes(eps1: SourceParams, eps2: SourceParams, pair_cap: int) -> np.ndarray:
    """c[N_d, a, N_e, b]: amplitude of ``build_swapping_input`` on the term
    with a H and N_d - a V pairs from source 1 and b H and N_e - b V pairs
    from source 2, zero past the cap."""
    n = np.arange(pair_cap + 1)
    down = n[:, None] - n

    def party(src):
        return np.where(down >= 0, src.gamma_H ** n * src.gamma_V ** np.abs(down), 0.0)

    c = np.multiply.outer(party(eps1), party(eps2))
    c *= (np.add.outer(n, n) <= pair_cap)[:, None, :, None]
    return c / math.sqrt(np.vdot(c, c))


@dataclass(frozen=True)
class HeraldedEnsemble:
    """Heralded state split by origin, as photon-number-block densities
    (``detection.block_readout``) weighted by their event probabilities:
    ``rho_sfg`` for a photon herald within the coincidence window and no
    dark count, ``rho_dark`` for a dark-count herald, which leaves the
    whole reduced input state.

    The photon-herald part scales linearly when the analyzer efficiency is
    multiplied by ``gain``, so one ensemble serves every gain factor.
    """

    rho_sfg: np.ndarray
    rho_dark: np.ndarray
    sfg_trace: float
    dark_trace: float

    def trace(self, gain: float = 1.0) -> float:
        return gain * self.sfg_trace + self.dark_trace


def filtered_ensemble(filt: np.ndarray, params: ExperimentParams, eps1: SourceParams,
                      eps2: SourceParams) -> HeraldedEnsemble:
    """Heralded ensemble of the sources ``eps1``, ``eps2`` from the
    ``heralding_filter`` of ``params`` (whose own sources are ignored)."""
    c = source_amplitudes(eps1, eps2, filt.shape[0] - 1)
    rho_sfg = ((1.0 - params.dark) * params.window_acceptance) * filt \
        * np.einsum("NaMb,NcMd->NacMbd", c, c)
    eye = np.eye(c.shape[1])
    rho_dark = params.dark * np.einsum("NaMb,ac,bd->NacMbd", c * c, eye, eye)
    return HeraldedEnsemble(rho_sfg=rho_sfg, rho_dark=rho_dark,
                            sfg_trace=float(np.einsum("NaaMbb->", rho_sfg)),
                            dark_trace=float(np.einsum("NaaMbb->", rho_dark)))


def heralded_ensemble(params: ExperimentParams, basis: str = "A") -> HeraldedEnsemble:
    """Heralded ensemble of the sources of ``params``."""
    return filtered_ensemble(heralding_filter(params, basis), params, params.eps1, params.eps2)


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
    ens = heralded_ensemble(params, basis=basis)
    effs = params.analyzer_efficiencies()
    p_sfg = _coincidence_tables(ens.rho_sfg, effs)
    p_acd = _coincidence_tables(ens.rho_dark, effs)
    p_mix = {name: {ij: p + p_acd[name][ij] for ij, p in table.items()}
             for name, table in p_sfg.items()}
    v_z = _visibility_z(p_mix["z"])
    v_x = _visibility_x(p_mix["x"])
    return VisibilityReport(
        v_z=v_z,
        v_x=v_x,
        fidelity_lower_bound=(v_z + v_x) / 2.0,
        # The photon herald within the window, before dark-count mixing.
        herald_prob=ens.sfg_trace / (1.0 - params.dark),
        p_z=p_mix["z"], p_x=p_mix["x"],
        p_sfg_z=p_sfg["z"], p_sfg_x=p_sfg["x"],
        p_acd_z=p_acd["z"], p_acd_x=p_acd["x"],
    )


def lo_swap(params: ExperimentParams, eta_bsa: float = 1.0) -> VisibilityReport:
    """Linear-optical Bell-state-analyzer counterpart of ``sfg_swap``.

    The a and b modes are mixed on a polarizing beamsplitter and the BSA
    heralds on a four-fold coincidence: the diagonal arm of each output
    (efficiency ``eta_bsa``) plus one analyzer arm on each of d and e.
    The BSA is assumed dark-count free; ``herald_prob`` is the probability
    of its two-fold click.

    The PBS sends aH and bV to one output and bH and aV to the other, each
    read in the diagonal basis with a threshold click on one arm, so the
    herald acts on the kept photons as the product of two analyzer operators
    (``detection.analyzer_operators``) at angle pi/4: on (aH, bV) clicking
    on the V arm and on (bH, aV) clicking on the H arm.
    """
    cap = params.pair_cap
    layout = _swap_layout(cap)
    c = source_amplitudes(params.eps1, params.eps2, cap).ravel()[layout.source]
    w = _loss_amplitudes(layout, params, c)
    clicks = arm_click_probs(eta_bsa, eta_bsa, cap)
    ops = analyzer_operators(rotation_blocks([-math.pi / 4], cap), clicks[::-1])[0]
    i, j = layout.pair_i, layout.pair_j
    rho = _binned_blocks(layout.pair_bins, w[i] * w[j] * ops[0].ravel()[layout.pair_ahbv]
                         * ops[1].ravel()[layout.pair_bhav], cap)
    tables = _coincidence_tables(rho, params.analyzer_efficiencies())
    v_z = _visibility_z(tables["z"])
    v_x = _visibility_x(tables["x"])
    return VisibilityReport(
        v_z=v_z, v_x=v_x,
        fidelity_lower_bound=(v_z + v_x) / 2.0,
        herald_prob=float(np.einsum("NaaMbb->", rho)),
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
    loss channels as pure Kraus branches, and reads the two loss patterns
    off the photon-number distribution of the analyzer modes.
    """
    two = _bell_pair_power(("aH", "aV"), ("dH", "dV"), 2)
    one = _bell_pair_power(("bH", "bV"), ("eH", "eV"), 1)
    # Lift the photon caps before the product: the joint sector carries six
    # photons, more than either factor's own cap.
    two = PureState(two.register, two.amps, n_max=6)
    one = PureState(one.register, one.amps, n_max=6)
    psi = tensor(two, one)
    ia = [psi.register.index(m) for m in ("aH", "aV")]
    ib = [psi.register.index(m) for m in ("bH", "bV")]
    p_one_lost_a = 0.0
    p_b_lost = 0.0
    for phi in loss_branches(psi, LossMap({"aH": t, "aV": t, "bH": t, "bV": t})):
        for occ, a in phi.amps.items():
            na = sum(occ[i] for i in ia)
            nb = sum(occ[i] for i in ib)
            if na == 1 and nb == 1:
                p_one_lost_a += abs(a) ** 2
            elif na == 2 and nb == 0:
                p_b_lost += abs(a) ** 2
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


def _one_photon_readout(branches, alpha: complex, beta: complex) -> tuple:
    """Herald probability, one-photon weight and fidelity to alpha|H> + beta|V>
    on the one-photon subspace of mode d, of heralded pure branches on
    (dH, dV)."""
    total = one = overlap = 0.0
    for phi in branches:
        h, v = phi.amps.get((1, 0), 0.0), phi.amps.get((0, 1), 0.0)
        total += phi.norm_sq()
        one += abs(h) ** 2 + abs(v) ** 2
        overlap += abs(alpha.conjugate() * h + beta.conjugate() * v) ** 2
    if one <= 0.0:
        raise ValueError("no one-photon component in the output state")
    return total, one / total, overlap / one


def teleport(params: ExperimentParams, input_polarization, input_mean_photons: float,
             herald_basis: str = "D") -> TeleportReport:
    """Heralded polarization transfer of a weak coherent input.

    The entangled pair comes from source 1 on modes (a, d); the coherent
    input enters the analyzer's b port with mean photon number
    ``input_mean_photons`` split over H/V as |alpha|^2 : |beta|^2.  The
    reported fidelity is evaluated on the one-photon subspace of mode d,
    mirroring the tomographic conditioning of a detected output photon.
    The amplitudes must be finite and normalized, and
    ``input_mean_photons`` finite and positive.
    """
    alpha, beta = (complex(x) for x in input_polarization)
    if not all(map(math.isfinite, (alpha.real, alpha.imag, beta.real, beta.imag))):
        raise ValueError(f"input_polarization must be finite, got {input_polarization!r}")
    nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"input_polarization must be normalized, got {input_polarization!r}")
    if not (math.isfinite(input_mean_photons) and input_mean_photons > 0.0):
        raise ValueError(
            f"input_mean_photons must be finite and positive, got {input_mean_photons!r}")
    pair = tmsv_pair(params.eps1, ("aH", "aV"), ("dH", "dV"), params.pair_cap)
    z = math.sqrt(input_mean_photons)
    coh = _coherent_state(("bH", "bV"), (z * alpha, z * beta), 2 * params.pair_cap)
    psi = tensor(pair, coh).reorder(("aH", "aV", "bH", "bV", "dH", "dV"))
    heralded = _herald(psi, params, herald_basis, register=("dH", "dV"))
    if not heralded:
        raise ValueError("herald probability is zero")
    # Heralding on D transfers (alpha, beta); heralding on A flips the sign
    # of the V component.
    tb = beta if herald_basis == "D" else -beta
    herald_prob, one_weight, fidelity = _one_photon_readout(heralded, alpha, tb)
    return TeleportReport(fidelity=fidelity, herald_prob=herald_prob,
                          one_photon_weight=one_weight, truncation_dropped=psi.dropped_weight)


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
    heralded = [phi if phi.register == ("dH", "dV") else phi.reorder(("dH", "dV"))
                for phi in herald_amplitude_branches([state], "D", DetectorModel(eta_d))]
    if not heralded:
        return QfcReport(fidelity=0.0, herald_prob=0.0,
                         conversion_angle_H=abs(alpha) * chi_tau,
                         conversion_angle_V=abs(beta) * chi_tau)
    nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    herald_prob, _, fidelity = _one_photon_readout(heralded, alpha / nrm, beta / nrm)
    return QfcReport(fidelity=fidelity, herald_prob=herald_prob,
                     conversion_angle_H=abs(alpha) * chi_tau,
                     conversion_angle_V=abs(beta) * chi_tau)
