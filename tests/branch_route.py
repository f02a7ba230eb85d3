"""Pure-branch reference route of the heralding pipeline.

The package computes the heralded states of the swap, teleportation and
frequency-conversion readouts as arrays over pair numbers or in closed
form.  This module is the route they are tested against, built on sparse
Fock states:

* pure states over occupation tuples with a hard total-photon cap, kept in
  plain dicts, so the cost of every operation scales with the number of
  nonzero terms; creation, annihilation, beamsplitter rotations and tensor
  products.  A mixed state is a list of unnormalized pure branches, and
  the weight removed by the total-photon truncation is accumulated in
  ``dropped_weight``;
* pair sources, the loss channel as its Kraus branches, the first-order
  SFG interaction, the exact frequency-conversion rotation, and the herald
  on the c modes;
* the teleport and frequency-conversion pipelines and the brute-force
  error-event count built from them.

The density-operator route of ``density_route.py`` is built on these
states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from sfgswap.detection import herald_sign
from sfgswap.protocols import ExperimentParams, QfcReport, TeleportReport

# Default cap on the *total* photon number across a register (three photon
# pairs in the swapping model).
DEFAULT_NMAX = 6

# Numerical tolerances.  EPS_AMP prunes stored amplitudes; EPS_NORM is the
# normalization check.
EPS_AMP = 1e-14
EPS_NORM = 1e-10

Occupation = tuple  # tuple[int, ...]
Register = tuple  # tuple[str, ...]


class ModeError(ValueError):
    """Unknown mode label or register mismatch."""


def _check_register(register) -> Register:
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        raise ModeError(f"duplicate mode labels in register {reg}")
    return reg


def mode_index(register: Register, mode: str) -> int:
    try:
        return register.index(mode)
    except ValueError:
        raise ModeError(f"unknown mode label {mode!r} in register {register}") from None


@dataclass(frozen=True)
class PureState:
    """Sparse pure state: complex amplitudes over occupation tuples."""

    register: Register
    amps: dict  # Occupation -> complex
    n_max: int = DEFAULT_NMAX
    dropped_weight: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "register", _check_register(self.register))

    @classmethod
    def vacuum(cls, register, n_max: int = DEFAULT_NMAX) -> "PureState":
        reg = tuple(register)
        return cls(reg, {(0,) * len(reg): 1.0 + 0.0j}, n_max=n_max)

    @classmethod
    def basis(cls, register, occupation, n_max: int = DEFAULT_NMAX) -> "PureState":
        occ = tuple(int(n) for n in occupation)
        if len(occ) != len(tuple(register)):
            raise ModeError("occupation length does not match register")
        if any(n < 0 for n in occ):
            raise ValueError("negative occupation")
        return cls(tuple(register), {occ: 1.0 + 0.0j}, n_max=n_max)

    def norm_sq(self) -> float:
        return float(sum((a * a.conjugate()).real for a in self.amps.values()))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_normalized(self, eps: float = EPS_NORM) -> bool:
        return abs(self.norm_sq() - 1.0) <= eps

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return PureState(
            self.register,
            {k: a / n for k, a in self.amps.items()},
            n_max=self.n_max,
            dropped_weight=self.dropped_weight,
        )

    def scaled(self, factor: complex) -> "PureState":
        return PureState(
            self.register,
            _prune({k: a * factor for k, a in self.amps.items()}),
            n_max=self.n_max,
            dropped_weight=self.dropped_weight,
        )

    def overlap(self, other: "PureState") -> complex:
        """<self|other>."""
        if self.register != other.register:
            raise ModeError("register mismatch in overlap")
        acc = 0.0 + 0.0j
        if len(self.amps) < len(other.amps):
            for k, a in self.amps.items():
                b = other.amps.get(k)
                if b is not None:
                    acc += a.conjugate() * b
        else:
            for k, b in other.amps.items():
                a = self.amps.get(k)
                if a is not None:
                    acc += a.conjugate() * b
        return acc

    def add(self, other: "PureState") -> "PureState":
        if self.register != other.register:
            raise ModeError("register mismatch in add")
        amps = dict(self.amps)
        for k, a in other.amps.items():
            amps[k] = amps.get(k, 0.0) + a
        return PureState(
            self.register,
            _prune(amps),
            n_max=self.n_max,
            dropped_weight=self.dropped_weight + other.dropped_weight,
        )

    def reorder(self, new_register) -> "PureState":
        """Permute the register (pure relabeling of tensor factors)."""
        new_reg = tuple(new_register)
        if set(new_reg) != set(self.register) or len(new_reg) != len(self.register):
            raise ModeError("new register must be a permutation of the old one")
        perm = [self.register.index(m) for m in new_reg]
        amps = {tuple(k[i] for i in perm): a for k, a in self.amps.items()}
        return PureState(new_reg, amps, n_max=self.n_max, dropped_weight=self.dropped_weight)


def _prune(amps: dict, eps: float = EPS_AMP) -> dict:
    return {k: complex(a) for k, a in amps.items() if abs(a) > eps}


def apply_creation(state: PureState, mode: str, truncate: bool = True) -> PureState:
    """Creation operator on one mode: |..n..> -> sqrt(n+1)|..n+1..>.

    Terms pushed past the total-photon cap are dropped and their squared
    weight is added to ``dropped_weight`` (only when ``truncate``).
    """
    i = mode_index(state.register, mode)
    amps = {}
    dropped = state.dropped_weight
    for occ, a in state.amps.items():
        n = occ[i]
        new = occ[:i] + (n + 1,) + occ[i + 1:]
        coeff = a * math.sqrt(n + 1)
        if truncate and sum(new) > state.n_max:
            dropped += abs(coeff) ** 2
            continue
        amps[new] = amps.get(new, 0.0) + coeff
    return PureState(state.register, _prune(amps), n_max=state.n_max, dropped_weight=dropped)


def apply_annihilation(state: PureState, mode: str) -> PureState:
    """Annihilation operator on one mode: |..n..> -> sqrt(n)|..n-1..>."""
    i = mode_index(state.register, mode)
    amps = {}
    for occ, a in state.amps.items():
        n = occ[i]
        if n == 0:
            continue
        new = occ[:i] + (n - 1,) + occ[i + 1:]
        amps[new] = amps.get(new, 0.0) + a * math.sqrt(n)
    return PureState(state.register, _prune(amps), n_max=state.n_max, dropped_weight=state.dropped_weight)


def two_mode_rotation(state: PureState, m1: str, m2: str, theta: float, phase: float = 0.0) -> PureState:
    """Beamsplitter-type mode rotation.

    Acts by m1+ -> cos(theta) m1+ + e^{i phase} sin(theta) m2+ and
    m2+ -> -e^{-i phase} sin(theta) m1+ + cos(theta) m2+, exactly unitary on
    the truncated space (total photon number is conserved).
    """
    if m1 == m2:
        raise ModeError("two_mode_rotation requires two distinct modes")
    i = mode_index(state.register, m1)
    j = mode_index(state.register, m2)
    c = math.cos(theta)
    s = math.sin(theta)
    ph = complex(math.cos(phase), math.sin(phase))
    amps = {}
    for occ, a in state.amps.items():
        n1, n2 = occ[i], occ[j]
        # Expand (c m1+ + s ph m2+)^n1 (-s/ph m1+ + c m2+)^n2 |vac> over the
        # two-mode number basis; other modes are spectators.
        base = a / math.sqrt(math.factorial(n1) * math.factorial(n2))
        for p in range(n1 + 1):
            coeff1 = math.comb(n1, p) * (c ** p) * ((s * ph) ** (n1 - p))
            for q in range(n2 + 1):
                coeff2 = math.comb(n2, q) * ((-s * ph.conjugate()) ** q) * (c ** (n2 - q))
                k1 = p + q
                k2 = n1 + n2 - k1
                w = base * coeff1 * coeff2 * math.sqrt(math.factorial(k1) * math.factorial(k2))
                new = list(occ)
                new[i] = k1
                new[j] = k2
                new = tuple(new)
                amps[new] = amps.get(new, 0.0) + w
    return PureState(state.register, _prune(amps), n_max=state.n_max, dropped_weight=state.dropped_weight)


def tensor(sA: PureState, sB: PureState) -> PureState:
    """Product state over the concatenated register."""
    if set(sA.register) & set(sB.register):
        raise ModeError("register collision in tensor product")
    reg = sA.register + sB.register
    n_max = max(sA.n_max, sB.n_max)
    amps = {}
    dropped = sA.dropped_weight + sB.dropped_weight
    for ka, aa in sA.amps.items():
        for kb, ab in sB.amps.items():
            occ = ka + kb
            w = aa * ab
            if sum(occ) > n_max:
                dropped += abs(w) ** 2
                continue
            amps[occ] = w
    return PureState(reg, _prune(amps), n_max=n_max, dropped_weight=dropped)


# Sources, channels and the SFG interaction.

class LossMap(dict):
    """Per-mode transmittance map, mode label -> t in [0, 1]."""

    def __init__(self, mapping=None, **kwargs):
        super().__init__(mapping or {}, **kwargs)
        for mode, t in self.items():
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"transmittance for {mode} outside [0, 1]: {t}")


def tmsv_pair(mu, signal_modes, idler_modes, pair_cap: int) -> PureState:
    """Truncated two-mode-squeezed-vacuum pair source with mean photon
    numbers ``mu`` = (mu_H, mu_V).

    ``signal_modes`` and ``idler_modes`` are (H, V) label pairs.  The state
    sums gamma_H^k gamma_V^l |k,l,k,l> over k + l <= pair_cap, with
    gamma = sqrt(mu / (1 + mu)), and is renormalized after truncation.
    """
    if pair_cap < 0:
        raise ValueError("pair_cap must be nonnegative")
    sH, sV = signal_modes
    iH, iV = idler_modes
    register = (sH, sV, iH, iV)
    gH, gV = (math.sqrt(m / (1.0 + m)) for m in mu)
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


def build_swapping_input(params: ExperimentParams) -> PureState:
    """Input state of the swapping experiment: the two pair sources of
    ``params`` feeding the analyzer modes a, b and the output modes d, e,
    truncated to at most ``pair_cap`` photon pairs in total."""
    pair_cap = params.pair_cap
    s1 = tmsv_pair((params.mu_1h, params.mu_1v), ("aH", "aV"), ("dH", "dV"), pair_cap)
    s2 = tmsv_pair((params.mu_2h, params.mu_2v), ("bH", "bV"), ("eH", "eV"), pair_cap)
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


def _sfg_operator(state: PureState, params: ExperimentParams) -> PureState:
    """Apply sqrt(sfg_h) aH bH cH+ + sqrt(sfg_v) aV bV cV+ to a pure state."""
    out = None
    for eta, (ma, mb, mc) in ((params.sfg_h, ("aH", "bH", "cH")),
                              (params.sfg_v, ("aV", "bV", "cV"))):
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


def sfg_branches(branches, params: ExperimentParams):
    """Converted-branch SFG, with the efficiencies of ``params``, on an
    iterable of pure branches."""
    out = []
    for phi in branches:
        if not all(m in phi.register for m in SFG_OUTPUT_MODES):
            phi = extend_state(phi, SFG_OUTPUT_MODES)
        conv = _sfg_operator(phi, params)
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


# The herald.

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


def click_prob(eta: float, n: int) -> float:
    """Threshold-click probability for n incident photons."""
    return 1.0 - (1.0 - eta) ** n


def herald_amplitude_branches(branches, basis: str, det: DetectorModel):
    """Pure-branch herald: <D/A| on the c modes of each branch.

    Returns pure states over the non-a/b/c modes whose outer products sum
    to the unnormalized heralded state; its trace is the herald probability.
    """
    sign = herald_sign(basis)
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


# Pipelines.

def channel_losses(params: ExperimentParams) -> LossMap:
    return LossMap({"aH": params.t_1h, "aV": params.t_1v, "bH": params.t_2h, "bV": params.t_2v})


def c_losses(params: ExperimentParams) -> LossMap:
    return LossMap({"cH": params.eta_th, "cV": params.eta_tv})


def scaled_sfg(params: ExperimentParams, gain: float) -> ExperimentParams:
    """``params`` with both SFG efficiencies multiplied by ``gain``."""
    return params.replace(sfg_h=params.sfg_h * gain, sfg_v=params.sfg_v * gain)


def _herald(psi: PureState, params: ExperimentParams, basis: str, gain: float = 1.0,
            register=OUTPUT_REGISTER):
    """Channel loss, first-order SFG, loss on c and the herald applied to
    ``psi``: pure branches on the output modes ``register`` whose
    outer-product sum is the event-weighted heralded operator."""
    branches = loss_branches(psi, channel_losses(params))
    branches = sfg_branches(branches, scaled_sfg(params, gain))
    out = []
    for phi in branches:
        out.extend(loss_branches(phi, c_losses(params)))
    heralded = herald_amplitude_branches(out, basis, DetectorModel(params.eta_d))
    return [phi if phi.register == register else phi.reorder(register) for phi in heralded]


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


def branch_teleport(params: ExperimentParams, input_polarization, input_mean_photons: float,
                    herald_basis: str = "D") -> TeleportReport:
    """``protocols.teleport`` on pure branches: the truncated pair and
    coherent input as one sparse state, then ``_herald`` and the one-photon
    readout of the heralded branches of d."""
    alpha, beta = (complex(x) for x in input_polarization)
    pair = tmsv_pair((params.mu_1h, params.mu_1v), ("aH", "aV"), ("dH", "dV"), params.pair_cap)
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


def branch_qfc_teleport(alpha: complex, beta: complex, chi_tau: float,
                        eta_d: float = 1.0) -> QfcReport:
    """``protocols.qfc_teleport_strong_pump`` on pure branches: the exact
    conversion rotation of the a modes of (|HH> + |VV>) / sqrt(2) on (a, d),
    then the |D> herald of the converted photon."""
    alpha, beta = complex(alpha), complex(beta)
    pair = PureState(("aH", "aV", "dH", "dV"),
                     {(1, 0, 1, 0): 1 / math.sqrt(2), (0, 1, 0, 1): 1 / math.sqrt(2)}, n_max=2)
    state = qfc_mode_transform(extend_state(pair, ("cH", "cV")), alpha, beta, chi_tau)
    heralded = [phi if phi.register == ("dH", "dV") else phi.reorder(("dH", "dV"))
                for phi in herald_amplitude_branches([state], "D", DetectorModel(eta_d))]
    herald_prob = fidelity = 0.0
    if heralded:
        nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        herald_prob, _, fidelity = _one_photon_readout(heralded, alpha / nrm, beta / nrm)
    return QfcReport(fidelity=fidelity, herald_prob=herald_prob,
                     conversion_angle_H=abs(alpha) * chi_tau,
                     conversion_angle_V=abs(beta) * chi_tau)
