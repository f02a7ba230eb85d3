"""End-to-end pipelines: SFG-based and linear-optical entanglement swapping,
teleportation, frequency-conversion teleportation, and the lowest-order
error-event analysis.

The heralding pipeline is

    pair sources -> channel loss on a, b -> first-order SFG -> loss on c
    -> projection of the SFG photon on |D> or |A> -> threshold analyzers
    on d and e, with a dark-count heralding branch mixed in at the end.

Loss, SFG and the herald act on the a, b and c modes only, and each pair
source puts as many photons in d as in a (in e as in b), so the heralded
state is that of a unit-amplitude input, whose every nonzero entry scales
with one monomial of the source amplitudes (``HeraldedEntries``).  The
layout (``_swap_layout``) is the unit-amplitude input's own entry list, one
per ``pair_cap``, and the squared norm of the sources (``_source_norm``) is
its trace.  One builder (``heralded_entries``) serves both swaps, the herald
its one input: it weighs the layout's entries (n, n') in closed form and
keeps the nonzero ones (``HeraldedEntries.gather``).  Loss commutes through
the SFG herald, and it turns each arm of the linear-optical analyzer into
an arm at another angle and efficiency (see the conventions), so no herald
sums over lost photons.  The swaps (``_swap_report``) and the Bell searches
(``bell.SearchKernel``) read those entries weighted at the sources
(``HeraldedEntries.state``), contracted with each party's analyzer
operators gathered at the same entries.
Teleportation runs the same SFG herald as sums over the number of pairs: it
acts on the coherent input as a number, so no input term is listed, and the
fidelity is closed form.
Frequency-conversion teleportation is closed form: one pair, one exact
rotation per polarization.  The pure-branch route of
``tests/branch_route.py`` and the density-operator route of
``tests/density_route.py`` are the references the tests compare against.

Conventions:
  * Each source emits two-mode-squeezed vacua in the H and V polarizations
    of a (signal, idler) mode pair; the squeezing parameter is
    gamma = sqrt(mu / (1 + mu)) for mean photon number mu per mode.
  * Loss on a mode with transmittance t is an ancilla beamsplitter of
    transmittance t followed by a partial trace over the ancilla: losing l
    of n photons has amplitude sqrt(C(n, l)) t^((n - l) / 2) (1 - t)^(l / 2).
  * The sum-frequency interaction is kept to first order in the coupling,
    with efficiency (chi tau)^2 per polarization; the converted branch
    creates exactly one photon in the c modes.
  * Loss commutes through the SFG herald.  Each loss Kraus operator E_l
    obeys a E_l = sqrt(t) E_l a, and a and b are traced after the herald,
    so the herald K after loss is K before it with its H term scaled by
    sqrt(t_1h t_2h) and its V term by sqrt(t_1v t_2v).
  * Loss turns a threshold arm into another arm.  An arm of efficiency eta
    on the mode c = u_x x + u_y y clicks with 1 - (1 - eta)^(c+ c), whose
    no-click part :exp(-eta c+ c): is normally ordered, and loss maps the
    no-click element Gamma(M) to Gamma(1 - T^(1/2) (1 - M) T^(1/2))
    (Quesada, Arrazola & Killoran, PRA 98, 062322 (2018)).  So loss t_x on
    x and t_y on y leaves the arm of efficiency eta (t_x u_x^2 + t_y u_y^2)
    on the mode along sqrt(t_x) u_x x + sqrt(t_y) u_y y.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _checks
from .detection import (
    HERALD_SIGNS,
    analyzer_operators,
    arm_click_probs,
    herald_sign,
    rotation_blocks,
)
from .efficiency import fidelity_lower_bound

# Analyzer angle of both parties in the Z and X visibility measurements.
VISIBILITY_BASES = (("z", 0.0), ("x", math.pi / 4))
# Largest pair_cap accepted.  The swap layout lists 2,583 entries at 10, built
# cold in about 1 ms and 0.45 MB (``_swap_layout``); 60 would list 8.0e6.
# The truncation has converged well before: no visibility moves by 1e-4 from 7 to 8.
PAIR_CAP_MAX = 10


def _normalized(alpha, beta) -> bool:
    """Whether the polarization (alpha, beta) has norm 1, to within 1e-9."""
    return abs(math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2) - 1.0) <= 1e-9


# The rule of each field of ExperimentParams but pair_cap (``_checks.fields``).
_FIELD_RULES = {
    **dict.fromkeys(("mu_1h", "mu_1v", "mu_2h", "mu_2v"), _checks.NONNEGATIVE),
    **dict.fromkeys(("sfg_h", "sfg_v", "t_1h", "t_1v", "t_2h", "t_2v", "eta_th", "eta_tv",
                     "eta_1h", "eta_1v", "eta_2h", "eta_2v", "eta_d"), _checks.UNIT),
    "dark": _checks.BELOW_ONE, "window_acceptance": _checks.UNIT}


@dataclass(frozen=True)
class ExperimentParams:
    """All physical parameters of the swapping experiment, one field per
    [params] key: the mean photon numbers of the H and V modes of sources 1
    (on a, d) and 2 (on b, e), the SFG efficiencies (chi tau)^2, the channel
    transmittances of a and b, the transmittances of c, the analyzer-arm
    efficiencies of d and e, the herald detector's efficiency, its
    dark-count probability per window, the coincidence-window acceptance,
    and the cap on the number of pairs."""

    mu_1h: float = 0.0
    mu_1v: float = 0.0
    mu_2h: float = 0.0
    mu_2v: float = 0.0
    sfg_h: float = 1.0
    sfg_v: float = 1.0
    t_1h: float = 1.0
    t_1v: float = 1.0
    t_2h: float = 1.0
    t_2v: float = 1.0
    eta_th: float = 1.0
    eta_tv: float = 1.0
    eta_1h: float = 1.0
    eta_1v: float = 1.0
    eta_2h: float = 1.0
    eta_2v: float = 1.0
    eta_d: float = 1.0
    dark: float = 0.0
    window_acceptance: float = 1.0
    pair_cap: int = 3

    def __post_init__(self):
        _checks.fields(self, _FIELD_RULES)
        if isinstance(self.pair_cap, bool) or not isinstance(self.pair_cap, numbers.Integral):
            raise ValueError(f"pair_cap must be an integer, got {self.pair_cap!r}")
        _checks.check("pair_cap", self.pair_cap, lambda n: n >= 2,
                      "at least 2 (the SFG herald needs one photon from each of two pairs)")
        _checks.check("pair_cap", self.pair_cap, lambda n: n <= PAIR_CAP_MAX,
                      f"at most {PAIR_CAP_MAX}")

    def replace(self, **kwargs) -> "ExperimentParams":
        return replace(self, **kwargs)


def _gamma(mu):
    """Squeezing parameter of a source mode (or of each) with mean photon number mu."""
    return np.sqrt(mu / (1.0 + mu))


@dataclass(frozen=True)
class VisibilityReport:
    """Figures of merit of a swapped state."""

    v_z: float
    v_x: float
    fidelity_lower_bound: float
    herald_prob: float
    p_z: dict  # ij -> coincidence prob of the heralded state, Z basis
    p_x: dict


def _bounded_rows(width: int, cap: int) -> np.ndarray:
    """Every row of ``width`` nonnegative integers summing to at most ``cap``,
    in lexicographic order."""
    rows, room = np.zeros((1, 0), dtype=np.intp), np.full(1, cap)  # room left per row
    for _ in range(width):
        count = room + 1
        x = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        rows = np.column_stack([np.repeat(rows, count, axis=0), x])
        room = np.repeat(room, count) - x
    return rows


@dataclass(frozen=True, eq=False)
class HeraldedEntries:
    """The nonzero entries of a heralded block density with at most ``n``
    photons per party, diagonal ones (a = a', b = b') first.

    The block density of a state on (dH, dV, eH, eV) has entries
    [N_d, a, a', N_e, b, b'] =
    Re <a, N_d - a; b, N_e - b| rho |a', N_d - a'; b', N_e - b'> (a, b count
    H photons).  Analyzer readouts conserve N_d and N_e and their operators
    are real symmetric, so nothing else is kept.

    Entry e of the state of sources with amplitude ratios gamma (``_gamma``)
    is (sfg[e] + dark[e]) * prod_m gamma_m ** powers[m, e] over the modes
    m = (1H, 1V, 2H, 2V) (``state``), up to a factor common to all entries:
    one over the squared norm of the source amplitudes (``_source_norm``),
    the trace of the unit-amplitude input's entries (``_swap_layout``).
    """

    index: tuple  # (N_d, a, a', N_e, b, b') per entry
    n_diagonal: int
    sfg: np.ndarray
    dark: np.ndarray
    n: int
    powers: np.ndarray

    def gather(self, sfg: np.ndarray, dark: float = 0.0) -> "HeraldedEntries":
        """These entries reached by a photon herald of weight ``sfg`` on each
        entry, or by a dark-count herald of weight ``dark``, which leaves the
        whole reduced input, on the diagonal, weighted by those heralds."""
        keep = sfg != 0.0
        if dark:
            keep[:self.n_diagonal] = True
        e = np.flatnonzero(keep)
        diagonal = e < self.n_diagonal
        # take keeps rows contiguous ([:, e] would not), which fixes the kernel's sum order
        return replace(self, index=tuple(np.take(self.index, e, axis=1)),
                       n_diagonal=int(diagonal.sum()), sfg=sfg[e], dark=dark * diagonal,
                       powers=self.powers.take(e, axis=1))

    @functools.cached_property
    def _table_index(self) -> np.ndarray:
        # entry e of mode m's row of the flattened table gamma_m ** k
        return np.arange(4)[:, None] * (2 * self.n + 1) + self.powers

    def monomials(self, mu) -> np.ndarray:
        """prod_m gamma_m ** powers[m, e] of each entry at the mean photon
        numbers mu[..., m] of the modes (1H, 1V, 2H, 2V); a stack of mu
        stacks the output."""
        gamma = _gamma(mu)
        table = (gamma[..., None] ** np.arange(2 * self.n + 1)).reshape(gamma.shape[:-1] + (-1,))
        return table.take(self._table_index, axis=-1).prod(axis=-2)

    def state(self, mu):
        """Entry weights rho[..., e] = (sfg[e] + dark[e]) monomial[e] at the
        mean photon numbers ``mu``, not divided by the source norm, and their
        trace, the sum of the diagonal ones; a stack of mu stacks both.  A
        zero trace is refused: nothing is heralded."""
        rho = (self.sfg + self.dark) * self.monomials(mu)
        total = rho[..., :self.n_diagonal].sum(axis=-1)
        if not all(t > 0.0 for t in np.ravel(total).tolist()):
            raise ValueError("herald probability is zero")
        return rho, total


@functools.lru_cache(maxsize=None)
def _swap_layout(cap: int) -> HeraldedEntries:
    """The read-only entries of the unit-amplitude input (amplitude 1 on every
    term of at most ``cap`` pairs), each of weight sfg = 1 and dark = 0.

    They are each entry (N_d, a, a', N_e, b, b') that an input term
    n = (a, N_d - a, b, N_e - b) of at most ``cap`` pairs in (1H, 1V, 2H, 2V)
    reaches together with the term n + d (1, -1, 1, -1): the terms the
    linear-optical analyzer, which conserves aH + bV and bH + aV, connects
    within one photon-number block of (d, e), so a' - a = b' - b = d.  Those
    with |d| <= 1 hold the SFG herald.  Diagonal entries (d = 0, one per
    input term, where the dark-count herald also lands) come first, and
    each part is in lexicographic order.
    """
    n = _bounded_rows(4, cap)  # pairs in (1H, 1V, 2H, 2V)
    low = -np.minimum(n[:, 0], n[:, 2])
    count = np.minimum(n[:, 1], n[:, 3]) - low + 1
    i = np.repeat(np.arange(len(n)), count)
    d = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count) + low[i]
    N, a, M, b = n[i, 0] + n[i, 1], n[i, 0], n[i, 2] + n[i, 3], n[i, 2]
    index = np.stack([N, a, a + d, M, b, b + d])
    N, a, a2, M, b, b2 = index = index[:, np.lexsort(
        (np.ravel_multi_index(index, (cap + 1,) * 6), d != 0))]
    powers = np.stack([a + a2, 2 * N - a - a2, b + b2, 2 * M - b - b2])
    sfg, dark = np.ones(i.size), np.zeros(i.size)
    for arr in (index, powers, sfg, dark):
        arr.setflags(write=False)
    return HeraldedEntries(tuple(index), int(np.count_nonzero(d == 0)), sfg, dark, cap, powers)


def _source_mu(params: ExperimentParams) -> np.ndarray:
    """The mean photon numbers (1H, 1V, 2H, 2V) of the sources of ``params``."""
    return np.array([params.mu_1h, params.mu_1v, params.mu_2h, params.mu_2v])


def _source_norm(mu, cap: int) -> float:
    """Squared norm of the pair sources' input at mean photon numbers mu: the
    trace of the unit-amplitude input's entries (``_swap_layout``), whose
    diagonal ones are its terms, with x_m pairs in mode m = (1H, 1V, 2H, 2V)
    and at most ``cap`` in all, of weight prod_m gamma_m ** (2 x_m)."""
    return float(_swap_layout(cap).state(mu)[1])


def heralded_entries(params: ExperimentParams, herald: str = "A",
                     eta_bsa: float = 1.0) -> HeraldedEntries:
    """Entries of the state heralded by ``herald``: the SFG photon projected
    on |D> or |A> ("D", "A") or the linear-optical Bell-state analyzer
    ("lo", diagonal-arm efficiency ``eta_bsa``) of the unit-amplitude input
    (amplitude 1 on every term with at most ``pair_cap`` pairs).

    The SFG herald is a photon herald within the window and no dark count,
    weighted (1 - dark) window_acceptance, plus a dark-count herald, under
    K = sqrt(eta_d / 2) (sqrt(sfg_h eta_th) aH bH + sign sqrt(sfg_v eta_tv) aV bV)
    with the channel loss commuted through it.  With h(n), v(n) the
    amplitudes of its two terms on input term n, entry (n, n') weighs
    h(n) h(n') + v(n) v(n') where d = a' - a = 0, v(n) h(n') where d = 1,
    h(n) v(n') where d = -1 and nothing where |d| >= 2.

    The BSA, dark-count free and with no window, mixes a and b on a
    polarizing beamsplitter, which sends aH and bV to one output and bH and
    aV to the other, and reads each output in the diagonal basis with a
    threshold click on one arm.  So it acts on the photons that reach it as
    the product of two analyzer operators (``detection.analyzer_operators``)
    at angle pi/4: on (aH, bV) clicking on the V arm, on (bH, aV) on the H
    arm.  The loss t_a of the a mode and t_b of the b mode of each pair
    turns its arm into the one at angle atan2(sqrt(t_a), sqrt(t_b)) with
    efficiency eta_bsa (t_a + t_b) / 2 (see the conventions), so entry
    (n, n') weighs the product of the two operators' (n, n') entries.
    """
    if herald == "lo":
        _checks.real("eta_bsa", eta_bsa, *_checks.UNIT)
    elif herald not in HERALD_SIGNS:
        raise ValueError(f"herald must be 'D', 'A' or 'lo', got {herald!r}")
    layout = _swap_layout(params.pair_cap)
    N, a, a2, M, b, b2 = layout.index
    if herald == "lo":
        # the V arm of (aH, bV) and the H arm of (bH, aV) after the loss t_a, t_b
        (theta_v, eta_v), (theta_h, eta_h) = (
            (math.atan2(math.sqrt(t_a), math.sqrt(t_b)), eta_bsa * (t_a + t_b) / 2.0)
            for t_a, t_b in ((params.t_1h, params.t_2v), (params.t_1v, params.t_2h)))
        ops = analyzer_operators(rotation_blocks([-theta_v, -theta_h], params.pair_cap),
                                 arm_click_probs(eta_h, eta_v, params.pair_cap)[::-1])
        return layout.gather(ops[0, 0][a + M - b, a, a2] * ops[1, 1][b + N - a, b, b2])
    ah, bh, root = np.stack([a, a2]), np.stack([b, b2]), np.sqrt(np.arange(params.pair_cap + 1))
    # K's H and V terms on n and n' (the H photons ah in a and bh in b), the
    # factors in the order the pure-branch route applies them, so that the
    # lossless swap state is the same to the last bit
    (h, h2), (v, v2) = (math.sqrt(t) * root[x] * root[y] * math.sqrt(eta) * eta_t ** 0.5 * s
                        / math.sqrt(2.0) * math.sqrt(params.eta_d) for t, x, y, eta, eta_t, s in (
        (params.t_1h * params.t_2h, ah, bh, params.sfg_h, params.eta_th, 1.0),
        (params.t_1v * params.t_2v, N - ah, M - bh, params.sfg_v, params.eta_tv,
         HERALD_SIGNS[herald])))
    sfg = np.select([a2 == a, a2 == a + 1, a2 == a - 1], [h * h2 + v * v2, v * h2, h * v2])
    return layout.gather((1.0 - params.dark) * params.window_acceptance * sfg, params.dark)


def _coincidence_sum(p: dict, basis: str) -> float:
    """Sum of a coincidence table, refused when it is zero (a blind
    analyzer): no visibility can be read from it."""
    s = p["HH"] + p["VV"] + p["HV"] + p["VH"]
    if s <= 0.0:
        raise ValueError(f"coincidence probability in the {basis} basis is zero")
    return s


def _visibility_z(p: dict, basis: str = "Z") -> float:
    return (p["HH"] + p["VV"] - p["HV"] - p["VH"]) / _coincidence_sum(p, basis)


def _visibility_x(p: dict, sign: float = -1.0) -> float:
    """X visibility of a state heralded with sign ``sign``: the diagonal
    outcomes of d and e agree on |D> (+1), as on HH + VV, and differ on |A>
    and through the BSA (-1), as on HH - VV."""
    if sign > 0.0:
        return _visibility_z(p, "X")
    return (p["HV"] + p["VH"] - p["HH"] - p["VV"]) / _coincidence_sum(p, "X")


def _visibility_report(entries: HeraldedEntries, rho, herald_prob: float,
                       params: ExperimentParams, sign: float) -> VisibilityReport:
    """Visibilities, fidelity bound and coincidence tables of the heralded
    state with weights ``rho`` on ``entries``, read through the analyzers of
    ``params``: each arm's click operator at the angle of each visibility
    basis, gathered at the entries.  An operator is formed at its angle, not
    read off its trig polynomial, so that an exact zero of the Z basis stays
    zero.  In a table, 'HV' means the H arm of d and the V arm of e."""
    N, a, a2, M, b, b2 = entries.index
    r = rotation_blocks([-theta for _, theta in VISIBILITY_BASES], entries.n)
    ops_d = analyzer_operators(r, arm_click_probs(params.eta_1h, params.eta_1v, entries.n))
    ops_e = analyzer_operators(r, arm_click_probs(params.eta_2h, params.eta_2v, entries.n))
    c = (ops_d[..., N, a, a2] * rho) @ ops_e[..., M, b, b2].swapaxes(-1, -2)
    # rounding can leave a probability that is zero a little below it, and a
    # visibility read from it an ulp outside [-1, 1]
    p_z, p_x = ({d + e: max(0.0, float(c[k, i, j])) for i, d in enumerate("HV")
                 for j, e in enumerate("HV")} for k in range(len(VISIBILITY_BASES)))
    if (p := max(herald_prob, *p_z.values(), *p_x.values())) > 1.0:
        raise ValueError(f"heralded probability {p:.3g} exceeds 1: sfg and mu are outside "
                         "the first-order model")
    v_z, v_x = _visibility_z(p_z), _visibility_x(p_x, sign)
    return VisibilityReport(v_z=v_z, v_x=v_x, fidelity_lower_bound=fidelity_lower_bound(v_z, v_x),
                            herald_prob=herald_prob, p_z=p_z, p_x=p_x)


def _swap_report(entries: HeraldedEntries, params: ExperimentParams, dark: float = 0.0,
                 sign: float = -1.0) -> VisibilityReport:
    """The report of ``entries`` heralded with sign ``sign`` at the sources of
    ``params`` over the source norm; ``herald_prob`` is their photon herald
    (``sfg``) within the window, before the mixing of a dark-count probability ``dark``."""
    mu = _source_mu(params)
    rho, norm = entries.state(mu)[0], _source_norm(mu, entries.n)
    photon = float((entries.sfg * entries.monomials(mu))[:entries.n_diagonal].sum()) / norm
    return _visibility_report(entries, rho / norm, photon / (1.0 - dark), params, sign)


def sfg_swap(params: ExperimentParams, basis: str = "A") -> VisibilityReport:
    """Full SFG-swapping pipeline: visibilities, fidelity bound and herald rate."""
    sign = herald_sign(basis)  # also the basis check: "lo" is no SFG herald
    return _swap_report(heralded_entries(params, basis), params, params.dark, sign)


def lo_swap(params: ExperimentParams, eta_bsa: float = 1.0) -> VisibilityReport:
    """Linear-optical Bell-state-analyzer counterpart of ``sfg_swap``
    (``heralded_entries`` with the "lo" herald); ``herald_prob`` is the
    probability of the BSA's two-fold click."""
    return _swap_report(heralded_entries(params, "lo", eta_bsa), params)


def error_event_probs(gamma: float, t: float) -> tuple:
    """Closed-form lowest-order error-event probabilities.

    With pair-generation probability gamma^2 per source and channel
    transmittance t, the (2, 1)-pair sector loses one of its three analyzer
    photons: losing a photon of the double-pair source happens with
    probability 2 gamma^6 t^2 (1 - t), losing the single-pair source's
    photon with gamma^6 t^2 (1 - t).  Only the first kind can still herald
    through the SFG analyzer.
    """
    _checks.real("gamma", gamma, *_checks.BELOW_ONE)
    _checks.real("t", t, *_checks.UNIT)
    base = (gamma ** 6) * t * t * (1.0 - t)
    return 2.0 * base, base


@dataclass(frozen=True)
class TeleportReport:
    """Outcome of a heralded polarization-transfer run."""

    fidelity: float
    herald_prob: float
    one_photon_weight: float
    truncation_dropped: float


def _poisson_cdf(lam: float, top: int) -> tuple:
    """P(m <= x) and P(m > x) for x = 0 .. ``top``, m Poisson of mean ``lam``;
    where 1 - P(m <= x) would cancel, the tail sums its terms until they vanish."""
    p = np.cumprod(np.r_[math.exp(-lam), lam / np.arange(1, top + 1)])
    cdf = np.cumsum(p)
    if lam >= top + 1:  # no tail is small
        return cdf, 1.0 - cdf
    beyond, term, m = 0.0, p[-1], top + 1
    while beyond + term * lam / m != beyond:
        term *= lam / m
        beyond += term
        m += 1
    return cdf, np.cumsum(np.r_[beyond, p[:0:-1]])[::-1]


def _one_photon_readout(h, v, alpha: complex, beta: complex) -> float:
    """Fidelity to alpha|H> + beta|V> of the pure states of d with amplitude
    h on |H> and v on |V>."""
    one = float(np.vdot(h, h).real + np.vdot(v, v).real)
    if one <= 0.0:
        raise ValueError("no one-photon component in the output state")
    overlap = alpha.conjugate() * h + beta.conjugate() * v
    return float(np.vdot(overlap, overlap).real) / one


def teleport(params: ExperimentParams, input_polarization, input_mean_photons: float,
             herald_basis: str = "D") -> TeleportReport:
    """Heralded polarization transfer of a weak coherent input.

    The entangled pair comes from source 1 on modes (a, d); the coherent
    input enters the analyzer's b port with mean photon number
    ``input_mean_photons`` = z^2 split over H/V as |alpha|^2 : |beta|^2.  The
    reported fidelity is evaluated on the one-photon subspace of mode d,
    mirroring the tomographic conditioning of a detected output photon.
    The amplitudes must be finite and normalized, and
    ``input_mean_photons`` finite and positive.

    The pair is cut at ``pair_cap`` pairs and renormalized, and its product
    with the input at 2 ``pair_cap`` photons; ``truncation_dropped`` is the
    weight this drops.  The report sums over the number j of pairs, exact
    for the truncated input.  Loss commutes through K (``heralded_entries``,
    see the conventions), and K acts on the coherent input as a number: its
    photons m = m_H + m_V are Poisson of mean z^2, and the sum over m <= N
    of p(m_H, m_V) m_H is z^2 |alpha|^2 P(m < N).  With
    c_H = eta_d / 2 sfg_h eta_th t_1h t_2h and P_H(j) the normalized weight
    of j pairs times their H pairs (likewise V), the herald probability is
    the sum over j of [c_H z^2 |alpha|^2 P_H(j) + c_V z^2 |beta|^2 P_V(j)]
    P(m < 2 (pair_cap - j)), and its j = 1 term leaves one photon in d.
    Each state of d it leaves is (sqrt(h) alpha, sign sqrt(v) beta) times
    an amplitude common to all, with h = c_H gamma_H^2, v = c_V gamma_V^2
    and the herald's sign, so the fidelity to alpha|H> + sign beta|V> is
    (|alpha|^2 sqrt(h) + |beta|^2 sqrt(v))^2 / (|alpha|^2 h + |beta|^2 v)
    at every ``pair_cap``, mean photon number and herald basis.
    """
    alpha, beta = map(complex, _checks.pair("input_polarization", input_polarization,
                                            _normalized, "finite and normalized", numbers.Complex))
    _checks.real("input_mean_photons", input_mean_photons, *_checks.POSITIVE)
    herald_sign(herald_basis)  # the basis check: the sign leaves every output as it is
    cap = params.pair_cap
    j = np.arange(cap + 1)
    g2_h, g2_v = _gamma(np.array([params.mu_1h, params.mu_1v])) ** 2  # the pair of source 1
    # weight of j pairs, and times their H (V) pairs, before the pair norm
    pair = np.convolve(g2_h ** j, g2_v ** j)[:cap + 1]
    pair_h = np.convolve(j * g2_h ** j, g2_v ** j)[:cap + 1]
    pair_v = np.convolve(g2_h ** j, j * g2_v ** j)[:cap + 1]
    lam_h, lam_v = (input_mean_photons * abs(x) ** 2 for x in (alpha, beta))
    cdf, tail = _poisson_cdf(lam_h + lam_v, 2 * cap)
    c_h = params.eta_d / 2.0 * params.sfg_h * params.eta_th * params.t_1h * params.t_2h
    c_v = params.eta_d / 2.0 * params.sfg_v * params.eta_tv * params.t_1v * params.t_2v
    norm = pair.sum()
    below = np.r_[0.0, cdf][2 * (cap - j)]  # P(m <= 2 (cap - j) - 1): one b photon to herald
    herald = (c_h * lam_h * pair_h + c_v * lam_v * pair_v) * below / norm
    herald_prob = float(herald.sum())
    if herald_prob <= 0.0:
        raise ValueError("herald probability is zero")
    fidelity = _one_photon_readout(math.sqrt(c_h * g2_h) * alpha, math.sqrt(c_v * g2_v) * beta,
                                   alpha, beta)
    return TeleportReport(fidelity=fidelity, herald_prob=herald_prob,
                          one_photon_weight=float(herald[1]) / herald_prob,
                          truncation_dropped=float(pair @ tail[::-2]) / norm)


@dataclass(frozen=True)
class QfcReport:
    fidelity: float
    herald_prob: float
    conversion_angle_H: float
    conversion_angle_V: float


def qfc_teleport_strong_pump(alpha: complex, beta: complex, chi_tau: float,
                             eta_d: float = 1.0) -> QfcReport:
    """Polarization transfer by frequency conversion with a classical pump.

    The input light acts as the pump with polarization amplitudes
    (alpha, beta); the exact conversion rotation is applied to the a modes
    of the Bell pair (|HH> + |VV>) / sqrt(2) on (a, d) and the converted
    photon is heralded on |D>.  Each polarization rotates its a photon into
    c by the angle |alpha| chi_tau (H) or |beta| chi_tau (V) with the
    pump's phase, so the herald leaves d with the amplitudes
    sqrt(eta_d) / 2 (e^{i arg alpha} sin(|alpha| chi_tau),
    e^{i arg beta} sin(|beta| chi_tau)).  In the weak-pump regime the d
    photon inherits (alpha, beta); for strong pumps the transfer degrades
    toward polarization-insensitive conversion.
    """
    alpha = complex(_checks.amplitude("alpha", alpha))
    beta = complex(_checks.amplitude("beta", beta))
    if alpha == 0 and beta == 0:
        raise ValueError("alpha and beta must not both be zero")
    _checks.real("chi_tau", chi_tau, *_checks.NONNEGATIVE)
    _checks.real("eta_d", eta_d, *_checks.UNIT)
    angles = abs(alpha) * chi_tau, abs(beta) * chi_tau
    h, v = (math.sqrt(eta_d) / 2.0 * cmath.rect(math.sin(theta), cmath.phase(x))
            for theta, x in zip(angles, (alpha, beta)))
    herald_prob = abs(h) ** 2 + abs(v) ** 2
    fidelity = 0.0
    if herald_prob > 0.0:
        nrm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        fidelity = _one_photon_readout(h, v, alpha / nrm, beta / nrm)
    return QfcReport(fidelity=fidelity, herald_prob=herald_prob,
                     conversion_angle_H=angles[0], conversion_angle_V=angles[1])
