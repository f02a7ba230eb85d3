"""Sparse multi-mode bosonic Fock-space algebra with a hard total-photon cap.

States live on a *register*, an ordered tuple of mode labels such as
``("aH", "aV", "dH", "dV")``.  Basis elements are occupation tuples (one
nonnegative integer per mode) and amplitudes are kept in plain dicts, so
the cost of every operation scales with the number of nonzero terms rather
than with the dimension of the truncated Hilbert space.

All values are immutable by convention: operations are pure functions that
return new states.  Mixed states are lists of unnormalized pure branches.
Amplitudes below ``EPS_AMP`` are discarded; weight removed by the
total-photon truncation is accumulated in ``dropped_weight`` so callers can
confirm it is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
