"""Density-operator reference route of the swapping model.

The package computes every pipeline on arrays over pair numbers and
photon-number blocks, or in closed form.  This module is the independent
route the tests compare it against: sparse density operators over
occupation pairs, the loss and first-order SFG channels as conjugations of
those operators, the herald as a projection, threshold-detector POVMs, and
the sixteen joint click patterns read off the rotated photon-number
diagonal, with CHSH and QBER on top.  It shares no readout code with the
package.  Next to it sit the pure-branch swap pipelines, built from the
channels of ``branch_route.py``: the reference for the heralds of
``protocols.heralded_entries`` and ``protocols.lo_swap``, which gather into
the entries a herald can reach and never form a dense block.
``dense_block`` scatters such entries into a dense block density;
``scaled_filter_blocks`` builds the state ``protocols.sfg_swap`` reads as
dense block densities, by explicit products of the unit-amplitude herald
and the ``source_amplitudes``, and ``block_readout`` contracts every block
of such a density with the analyzer operators: the dense references for
the package's gathered entries and readout.

Entries are pruned relative to the operator's largest entry, so the route
stays exact on operators of tiny trace such as the ``paper-tableS1``
heralded state (trace about 7.5e-12).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from branch_route import (
    ANALYZER_MODES,
    DEFAULT_NMAX,
    EPS_AMP,
    OUTPUT_REGISTER,
    SFG_OUTPUT_MODES,
    SWAP_REGISTER,
    DetectorModel,
    LossMap,
    ModeError,
    PureState,
    _check_register,
    _herald,
    _prune,
    _sfg_operator,
    build_swapping_input,
    channel_losses,
    click_prob,
    loss_branches,
    mode_index,
    reduced_branches,
    two_mode_rotation,
)
from sfgswap.bell import BellSettings
from sfgswap.detection import HERALD_SIGNS, analyzer_operators, arm_click_probs, rotation_blocks
from sfgswap.protocols import (
    VISIBILITY_BASES,
    ExperimentParams,
    VisibilityReport,
    _visibility_x,
    _visibility_z,
    heralded_entries,
)

# Analyzer arms of unit efficiency (the ExperimentParams defaults).
UNIT_EFFICIENCIES = ExperimentParams()

# Validity-check tolerances.
EPS_HERM = 1e-10
EPS_PSD = 1e-10

TRACE_NORMALIZED = "normalized"
TRACE_EVENT = "event-probability"


def _prune_entries(entries: dict) -> dict:
    # Relative to the largest entry, so an operator of tiny trace stays exact.
    scale = max((abs(v) for v in entries.values()), default=0.0)
    return _prune(entries, EPS_AMP * min(1.0, scale))


@dataclass(frozen=True)
class DensityOperator:
    """Sparse operator: complex entries over (ket, bra) occupation pairs.

    ``trace_meaning`` records whether the trace is 1 (a normalized state) or
    an event probability (an unnormalized conditional state).
    """

    register: tuple
    entries: dict  # (Occupation, Occupation) -> complex
    trace_meaning: str = TRACE_NORMALIZED
    n_max: int = DEFAULT_NMAX

    def __post_init__(self):
        object.__setattr__(self, "register", _check_register(self.register))

    @classmethod
    def from_pure(cls, psi: PureState, trace_meaning: str = TRACE_NORMALIZED) -> "DensityOperator":
        entries = {}
        items = list(psi.amps.items())
        for k, ak in items:
            for b, ab in items:
                entries[(k, b)] = ak * ab.conjugate()
        return cls(psi.register, _prune_entries(entries), trace_meaning=trace_meaning, n_max=psi.n_max)

    @classmethod
    def from_branches(cls, branches, register=None, trace_meaning: str = TRACE_EVENT,
                      n_max: int = DEFAULT_NMAX) -> "DensityOperator":
        """Sum of |phi><phi| over an iterable of (unnormalized) pure states."""
        entries = {}
        reg = tuple(register) if register is not None else None
        for phi in branches:
            if reg is None:
                reg = phi.register
                n_max = phi.n_max
            elif phi.register != reg:
                phi = phi.reorder(reg)
            items = list(phi.amps.items())
            for k, ak in items:
                for b, ab in items:
                    key = (k, b)
                    entries[key] = entries.get(key, 0.0) + ak * ab.conjugate()
        if reg is None:
            raise ValueError("no branches given and no register specified")
        return cls(reg, _prune_entries(entries), trace_meaning=trace_meaning, n_max=n_max)

    def trace(self) -> float:
        return float(sum(v.real for (k, b), v in self.entries.items() if k == b))

    def normalized(self) -> "DensityOperator":
        t = self.trace()
        if t <= 0.0:
            raise ValueError("cannot normalize an operator with nonpositive trace")
        return DensityOperator(
            self.register,
            {kb: v / t for kb, v in self.entries.items()},
            trace_meaning=TRACE_NORMALIZED,
            n_max=self.n_max,
        )

    def scaled(self, factor: float) -> "DensityOperator":
        return DensityOperator(
            self.register,
            _prune_entries({kb: v * factor for kb, v in self.entries.items()}),
            trace_meaning=self.trace_meaning,
            n_max=self.n_max,
        )

    def add(self, other: "DensityOperator") -> "DensityOperator":
        if self.register != other.register:
            raise ModeError("register mismatch in add")
        entries = dict(self.entries)
        for kb, v in other.entries.items():
            entries[kb] = entries.get(kb, 0.0) + v
        return DensityOperator(self.register, _prune_entries(entries),
                               trace_meaning=self.trace_meaning, n_max=self.n_max)

    def is_hermitian(self, eps: float = EPS_HERM) -> bool:
        for (k, b), v in self.entries.items():
            if abs(v - self.entries.get((b, k), 0.0).conjugate()) > eps:
                return False
        return True

    def support(self):
        kets = set()
        for k, b in self.entries:
            kets.add(k)
            kets.add(b)
        return sorted(kets)

    def to_dense(self, basis=None) -> np.ndarray:
        basis = list(basis) if basis is not None else self.support()
        idx = {occ: i for i, occ in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for (k, b), v in self.entries.items():
            mat[idx[k], idx[b]] = v
        return mat

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue on the stored support (PSD check)."""
        if not self.entries:
            return 0.0
        return float(np.linalg.eigvalsh(self.to_dense()).min())

    def is_psd(self, eps: float = EPS_PSD) -> bool:
        return self.min_eigenvalue() >= -eps

    def reorder(self, new_register) -> "DensityOperator":
        new_reg = tuple(new_register)
        if set(new_reg) != set(self.register) or len(new_reg) != len(self.register):
            raise ModeError("new register must be a permutation of the old one")
        perm = [self.register.index(m) for m in new_reg]
        entries = {
            (tuple(k[i] for i in perm), tuple(b[i] for i in perm)): v
            for (k, b), v in self.entries.items()
        }
        return DensityOperator(new_reg, entries, trace_meaning=self.trace_meaning, n_max=self.n_max)


def tensor_density(rA: DensityOperator, rB: DensityOperator) -> DensityOperator:
    if set(rA.register) & set(rB.register):
        raise ModeError("register collision in tensor product")
    entries = {}
    for (ka, ba), va in rA.entries.items():
        for (kb, bb), vb in rB.entries.items():
            entries[(ka + kb, ba + bb)] = va * vb
    meaning = rA.trace_meaning if rA.trace_meaning == rB.trace_meaning else TRACE_EVENT
    return DensityOperator(rA.register + rB.register, _prune_entries(entries),
                           trace_meaning=meaning, n_max=max(rA.n_max, rB.n_max))


def partial_trace(rho: DensityOperator, modes) -> DensityOperator:
    """Trace out the given modes; the trace is preserved exactly."""
    modes = list(modes)
    idxs = [mode_index(rho.register, m) for m in modes]
    keep = [i for i in range(len(rho.register)) if i not in idxs]
    new_reg = tuple(rho.register[i] for i in keep)
    entries = {}
    for (k, b), v in rho.entries.items():
        if any(k[i] != b[i] for i in idxs):
            continue
        kk = tuple(k[i] for i in keep)
        bb = tuple(b[i] for i in keep)
        entries[(kk, bb)] = entries.get((kk, bb), 0.0) + v
    return DensityOperator(new_reg, _prune_entries(entries), trace_meaning=rho.trace_meaning,
                           n_max=rho.n_max)


def expectation(rho: DensityOperator, op: DensityOperator) -> float:
    """Tr[op . rho] for a Hermitian operator given in the same sparse format."""
    if set(rho.register) != set(op.register):
        raise ModeError("register mismatch in expectation")
    if op.register != rho.register:
        op = op.reorder(rho.register)
    acc = 0.0 + 0.0j
    small, big = (op, rho) if len(op.entries) < len(rho.entries) else (rho, op)
    for (k, b), v in small.entries.items():
        w = big.entries.get((b, k))
        if w is not None:
            acc += v * w
    return float(acc.real)


def sandwich(rho: DensityOperator, column_map) -> DensityOperator:
    """A rho A+ for a sparse operator A given as ket -> {ket: coeff}.

    ``column_map(occ)`` must return the expansion of A|occ> as a dict.
    """
    cache = {}

    def col(occ):
        r = cache.get(occ)
        if r is None:
            r = column_map(occ)
            cache[occ] = r
        return r

    entries = {}
    for (k, b), v in rho.entries.items():
        ck = col(k)
        cb = col(b)
        for nk, ak in ck.items():
            for nb, ab in cb.items():
                key = (nk, nb)
                entries[key] = entries.get(key, 0.0) + v * ak * ab.conjugate()
    return DensityOperator(rho.register, _prune_entries(entries),
                           trace_meaning=rho.trace_meaning, n_max=rho.n_max)


def unitary_column_map(register, n_max: int, apply_fn):
    """Build a column map for ``sandwich`` from a PureState -> PureState op."""

    def column(occ):
        out = apply_fn(PureState.basis(register, occ, n_max=n_max))
        return dict(out.amps)

    return column


# Channels: loss as an ancilla beamsplitter and a partial trace over the
# ancilla, and the first-order SFG interaction as a conjugation.

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


def extend_density(rho: DensityOperator, modes) -> DensityOperator:
    """Append fresh vacuum modes to an operator's register."""
    pad = (0,) * len(modes)
    return DensityOperator(rho.register + tuple(modes),
                           {(k + pad, b + pad): v for (k, b), v in rho.entries.items()},
                           trace_meaning=rho.trace_meaning, n_max=rho.n_max)


def apply_sfg_first_order(rho: DensityOperator, params: ExperimentParams) -> DensityOperator:
    """First-order converted branch of the sum-frequency interaction, with
    the efficiencies of ``params``.

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
        out = _sfg_operator(PureState.basis(reg, occ, n_max=n_max), params)
        return dict(out.amps)

    out = sandwich(rho, column)
    return DensityOperator(out.register, out.entries, trace_meaning=TRACE_EVENT, n_max=n_max)


def kraus_parity_check(state: PureState, params: ExperimentParams) -> PureState:
    """Ideal parity-check Kraus operator for at most two photons in a, b.

    K = sqrt(sfg_h)|H>_c<HH|_ab + sqrt(sfg_v)|V>_c<VV|_ab.  The a and b
    modes are replaced by the c modes in the output register; the squared
    norm of the result is the success probability.
    """
    reg = state.register
    idx = {m: mode_index(reg, m) for m in ANALYZER_MODES}
    keep = [i for i in range(len(reg)) if reg[i] not in ANALYZER_MODES]
    out_reg = tuple(reg[i] for i in keep) + SFG_OUTPUT_MODES
    amps = {}
    for occ, a in state.amps.items():
        ab = (occ[idx["aH"]], occ[idx["aV"]], occ[idx["bH"]], occ[idx["bV"]])
        if sum(ab) > 2:
            raise ValueError("kraus_parity_check requires at most two photons in modes a, b")
        if ab == (1, 0, 1, 0):
            c, w = (1, 0), math.sqrt(params.sfg_h)
        elif ab == (0, 1, 0, 1):
            c, w = (0, 1), math.sqrt(params.sfg_v)
        else:
            continue
        new = tuple(occ[i] for i in keep) + c
        amps[new] = amps.get(new, 0.0) + a * w
    return PureState(out_reg, amps, n_max=state.n_max)


# Detection: threshold POVMs, the herald projection and click patterns.

@dataclass(frozen=True)
class AnalyzerSetting:
    """Polarization-analyzer angle in radians."""

    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi:
            raise ValueError("analyzer angle must lie in [0, pi)")


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
    bare = DensityOperator(reg, entries, trace_meaning=TRACE_EVENT, n_max=cap)

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
    reduced = DensityOperator(out_reg, entries, trace_meaning=TRACE_EVENT, n_max=rho.n_max)
    drop = [m for m in out_reg if m in ANALYZER_MODES]
    return partial_trace(reduced, drop) if drop else reduced


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


def click_patterns(diag: dict, efficiencies: ExperimentParams) -> dict:
    """All sixteen joint click/no-click pattern probabilities of the four
    analyzer arms, with the arm efficiencies ``eta_1h`` to ``eta_2v`` of
    ``efficiencies``, given the photon-number diagonal on (dH, dV, eH, eV).

    Keys are ((click_dH, click_dV), (click_eH, click_eV)) with booleans.
    """
    eta_dH, eta_dV = efficiencies.eta_1h, efficiencies.eta_1v
    eta_eH, eta_eV = efficiencies.eta_2h, efficiencies.eta_2v
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
                              efficiencies: ExperimentParams) -> dict:
    """``click_patterns`` of a density operator for one setting pair."""
    return click_patterns(_rotated_diagonal(rho, theta1, theta2), efficiencies)


# Bell readouts: correlators, CHSH and QBER from the click patterns.

def outcome(click_first: bool, click_second: bool) -> int:
    """A party's +/-1 outcome: -1 when only the first (H-arm) detector
    clicks, +1 on the other three click patterns."""
    return -1 if click_first and not click_second else +1


def correlator(pattern_probs: dict) -> float:
    """Expectation of the +/-1 outcome product over joint click patterns."""
    return sum(p * outcome(*d) * outcome(*e) for (d, e), p in pattern_probs.items())


def _disagreement(pattern_probs: dict) -> float:
    """Probability that the two parties' +/-1 outcomes differ."""
    return sum(p for (d, e), p in pattern_probs.items() if outcome(*d) != outcome(*e))


def chsh_value(rho_herald: DensityOperator, settings: BellSettings,
               efficiencies: ExperimentParams = UNIT_EFFICIENCIES) -> float:
    """S = <A1 B1> + <A2 B1> + <A1 B2> - <A2 B2> on a normalized state."""
    if abs(rho_herald.trace() - 1.0) > 1e-6:
        raise ValueError("chsh_value requires a normalized density operator")

    def e(ta, tb):
        return correlator(joint_click_pattern_probs(rho_herald, ta, tb, efficiencies))

    a1, a2 = settings.theta_a1, settings.theta_a2
    b1, b2 = settings.theta_b1, settings.theta_b2
    return e(a1, b1) + e(a2, b1) + e(a1, b2) - e(a2, b2)


def qber(rho_herald: DensityOperator, theta_a0: float, theta_b1: float,
         efficiencies: ExperimentParams = UNIT_EFFICIENCIES) -> float:
    """Key-basis error rate Q = P(+1,-1) + P(-1,+1)."""
    if abs(rho_herald.trace() - 1.0) > 1e-6:
        raise ValueError("qber requires a normalized density operator")
    return _disagreement(joint_click_pattern_probs(rho_herald, theta_a0, theta_b1, efficiencies))


def heralded_state_with_dark(rho_sfg: DensityOperator, psi_in: PureState,
                             dark: float) -> DensityOperator:
    """Normalized heralded state mixing the photon and dark-count heralds.

    rho_sfg is the event-weighted analyzer-heralded operator, kept when no
    dark count fires (probability 1 - dark); a dark count heralds the
    unheralded reduced input state.
    """
    if not 0.0 <= dark < 1.0:
        raise ValueError("dark probability must be in [0, 1)")
    rho = rho_sfg.reorder(OUTPUT_REGISTER) if rho_sfg.register != OUTPUT_REGISTER else rho_sfg
    if dark > 0.0:
        acd = DensityOperator.from_branches(reduced_branches(psi_in),
                                            register=OUTPUT_REGISTER,
                                            n_max=rho.n_max).scaled(dark)
        rho = rho.scaled(1.0 - dark).add(acd)
    total = rho.trace()
    if total <= 0.0:
        raise ValueError("zero total herald probability")
    return rho.scaled(1.0 / total)


def source_amplitudes(params: ExperimentParams) -> np.ndarray:
    """c[N_d, a, N_e, b]: amplitude of the swapping input on the term with
    a H and N_d - a V pairs from source 1 (on a, d) and b H and N_e - b V
    pairs from source 2 (on b, e), at most ``pair_cap`` pairs in all and
    renormalized, zero past the cap."""
    cap = params.pair_cap
    n = np.arange(cap + 1)
    down = n[:, None] - n

    def gamma(mu):
        return math.sqrt(mu / (1.0 + mu))

    def party(mu_h, mu_v):
        return np.where(down >= 0, gamma(mu_h) ** n * gamma(mu_v) ** np.abs(down), 0.0)

    c = np.multiply.outer(party(params.mu_1h, params.mu_1v), party(params.mu_2h, params.mu_2v))
    c *= (np.add.outer(n, n) <= cap)[:, None, :, None]
    return c / math.sqrt(np.vdot(c, c))


def dense_block(entries, weights) -> np.ndarray:
    """The block density (``block_readout``) with ``weights`` at the
    ``protocols.HeraldedEntries`` ``entries`` and zero elsewhere."""
    rho = np.zeros((entries.n + 1,) * 6)
    rho[entries.index] = weights
    return rho


def scaled_filter_blocks(params: ExperimentParams, basis: str = "A") -> tuple:
    """The heralded state of ``params`` as block densities split by origin,
    (photon herald, dark-count herald), by explicit products: the photon
    herald of the unit-amplitude input, s R with s = (1 - dark)
    window_acceptance (``protocols.heralded_entries``), times c c', and
    dark c^2 on the (a, b) diagonal, c the ``source_amplitudes``."""
    c = source_amplitudes(params)
    eye = np.eye(c.shape[1])
    entries = heralded_entries(params, basis)
    return (dense_block(entries, entries.sfg) * np.einsum("NaMb,NcMd->NacMbd", c, c),
            params.dark * np.einsum("NaMb,ac,bd->NacMbd", c * c, eye, eye))


# Pure-branch swap pipelines: the states the array kernel of
# ``protocols.heralded_entries`` and ``protocols.lo_swap`` computes, built
# from the Kraus branches of the input state.

def block_density(pieces, n: int) -> np.ndarray:
    """Block density (``block_readout``) of the mixture of pure ``pieces``
    on (dH, dV, eH, eV), each party holding at most n photons."""
    k = n + 1
    rho = np.zeros((k * k, k * k, k * k))  # [(N_d, N_e), (a, b), (a', b')]
    for chunk in (pieces[i:i + 32] for i in range(0, len(pieces), 32)):  # bounded scratch
        psi = np.zeros((k * k, k * k, len(chunk)), dtype=complex)
        for i, phi in enumerate(chunk):
            for (dH, dV, eH, eV), amp in phi.amps.items():
                psi[(dH + dV) * k + eH + eV, dH * k + eH, i] = amp
        rho += (psi @ psi.conj().transpose(0, 2, 1)).real
    return np.ascontiguousarray(rho.reshape((k,) * 6).transpose(0, 2, 4, 1, 3, 5))


def block_readout(rho: np.ndarray, thetas_d, weights_d, thetas_e, weights_e) -> np.ndarray:
    """E[p, q, i, j] = Tr[rho (O(thetas_d[p], weights_d[i]) x O(thetas_e[q], weights_e[j]))]
    for a block density rho, with O(theta, o) = R(-theta)^T diag(o) R(-theta) for a
    weight o[N, a] per photon-number state after the analyzer: the dense
    contraction of every block.

    The block density of a state on (dH, dV, eH, eV) with at most n photons
    per party has entries [N_d, a, a', N_e, b, b'] =
    Re <a, N_d - a; b, N_e - b| rho |a', N_d - a'; b', N_e - b'> (a, b count
    H photons).  Readouts conserve N_d and N_e and their operators are real
    symmetric, so nothing else is kept."""
    k, n_d = rho.shape[0], len(thetas_d)
    r = rotation_blocks(-np.concatenate([thetas_d, thetas_e]), k - 1)
    e = (analyzer_operators(r[:n_d], weights_d).reshape(-1, k ** 3) @ rho.reshape(k ** 3, -1)
         @ analyzer_operators(r[n_d:], weights_e).reshape(-1, k ** 3).T)
    return e.reshape(n_d, -1, len(thetas_e), len(weights_e)).transpose(0, 2, 1, 3)


def coincidence_tables(rho: np.ndarray, params: ExperimentParams) -> dict:
    """The coincidence tables of ``protocols.VisibilityReport`` read off a
    block density by ``block_readout``, through the analyzers of ``params``."""
    n = rho.shape[0] - 1
    thetas = [theta for _, theta in VISIBILITY_BASES]
    c = block_readout(rho, thetas, arm_click_probs(params.eta_1h, params.eta_1v, n),
                      thetas, arm_click_probs(params.eta_2h, params.eta_2v, n))
    return {name: {d + e: float(c[k, k, i, j])
                   for i, d in enumerate("HV") for j, e in enumerate("HV")}
            for k, (name, _) in enumerate(VISIBILITY_BASES)}


def sfg_heralded_branches(params: ExperimentParams, basis: str = "A", gain: float = 1.0):
    """Pure branches of the unnormalized heralded state on (dH, dV, eH, eV).

    Returns (branches, psi_in).  The outer-product sum of the branches is
    the event-weighted heralded operator; its trace is the herald
    probability.
    """
    psi_in = build_swapping_input(params)
    return _herald(psi_in, params, basis, gain), psi_in


def branch_heralding_filter(params: ExperimentParams, basis: str = "A") -> np.ndarray:
    """The photon herald of the unit-amplitude input of ``params``,
    amplitude 1 on every term with at most ``pair_cap`` pairs, as a block
    density (``protocols.heralded_entries`` without dark counts and with
    the whole window), from its branches."""
    cap = params.pair_cap
    unit = {pairs + pairs: 1.0 for pairs in itertools.product(range(cap + 1), repeat=4)
            if sum(pairs) <= cap}
    return block_density(_herald(PureState(SWAP_REGISTER, unit, n_max=2 * cap), params, basis),
                         cap)


def _pbs_mix_branch(phi: PureState) -> PureState:
    """Polarizing beamsplitter on a and b: swaps the aV and bV occupations."""
    reg = phi.register
    i = reg.index("aV")
    j = reg.index("bV")
    amps = {}
    for occ, a in phi.amps.items():
        lst = list(occ)
        lst[i], lst[j] = lst[j], lst[i]
        amps[tuple(lst)] = a
    return PureState(reg, amps, n_max=phi.n_max)


def branch_lo_swap(params: ExperimentParams, eta_bsa: float = 1.0) -> VisibilityReport:
    """``protocols.lo_swap`` on pure branches: channel loss, the PBS, the
    -pi/4 rotations of a and b, and the square root of the BSA's two-fold
    click probability on each amplitude, split by the a, b occupations."""
    psi_in = build_swapping_input(params)
    i_aV, i_bH = SWAP_REGISTER.index("aV"), SWAP_REGISTER.index("bH")
    pieces = []
    for phi in loss_branches(psi_in, channel_losses(params)):
        phi = two_mode_rotation(_pbs_mix_branch(phi), "aH", "aV", -math.pi / 4)
        phi = two_mode_rotation(phi, "bH", "bV", -math.pi / 4)
        amps = {occ: a * math.sqrt(click_prob(eta_bsa, occ[i_bH]) * click_prob(eta_bsa, occ[i_aV]))
                for occ, a in phi.amps.items()}
        pieces.extend(reduced_branches(PureState(phi.register, amps, n_max=phi.n_max)))
    tables = coincidence_tables(block_density(pieces, params.pair_cap), params)
    v_z = _visibility_z(tables["z"])
    v_x = _visibility_x(tables["x"])
    return VisibilityReport(
        v_z=v_z, v_x=v_x,
        fidelity_lower_bound=(v_z + v_x) / 2.0,
        herald_prob=sum(p.norm_sq() for p in pieces),
        p_z=tables["z"], p_x=tables["x"],
    )


# Pipelines.

def sfg_heralded_operator(params: ExperimentParams, basis: str = "A",
                          gain: float = 1.0) -> tuple:
    """Event-weighted heralded density operator and the input pure state."""
    branches, psi_in = sfg_heralded_branches(params, basis=basis, gain=gain)
    if branches:
        rho = DensityOperator.from_branches(branches, register=OUTPUT_REGISTER,
                                            n_max=2 * params.pair_cap)
    else:
        rho = DensityOperator(OUTPUT_REGISTER, {}, trace_meaning=TRACE_EVENT,
                              n_max=2 * params.pair_cap)
    return rho, psi_in


def one_photon_fidelity(rho_d: DensityOperator, alpha: complex, beta: complex) -> tuple:
    """Fidelity to alpha|H> + beta|V> on the one-photon subspace of mode d,
    and the one-photon weight, of an operator on (dH, dV)."""
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
