"""Sparse multi-mode bosonic Fock-space algebra with a hard total-photon cap.

States live on a *register*, an ordered tuple of mode labels such as
``("aH", "aV", "dH", "dV")``.  Basis elements are occupation tuples (one
nonnegative integer per mode) and amplitudes are kept in plain dicts, so
the cost of every operation scales with the number of nonzero terms rather
than with the dimension of the truncated Hilbert space.

All values are immutable by convention: operations are pure functions that
return new states.  Amplitudes below ``EPS_AMP`` (density-operator entries
below ``EPS_AMP`` relative to the largest, if that is below 1) are
discarded; weight removed by the total-photon truncation is accumulated in
``dropped_weight`` so callers can confirm it is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Default cap on the *total* photon number across a register (three photon
# pairs in the swapping model).
DEFAULT_NMAX = 6

# Numerical tolerances.  EPS_AMP prunes stored amplitudes; the others are
# used by validity checks.
EPS_AMP = 1e-14
EPS_NORM = 1e-10
EPS_HERM = 1e-10
EPS_PSD = 1e-10

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

    def to_text(self) -> str:
        """Canonical serialization: one basis term per line, lexicographic order."""
        lines = []
        for occ in sorted(self.amps):
            a = complex(self.amps[occ])
            counts = " ".join(str(n) for n in occ)
            lines.append(f"{counts}  {a.real:.17g}  {a.imag:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, register, text: str, n_max: int = DEFAULT_NMAX) -> "PureState":
        reg = tuple(register)
        amps = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            occ = tuple(int(x) for x in parts[:-2])
            if len(occ) != len(reg):
                raise ModeError("occupation length does not match register")
            amps[occ] = complex(float(parts[-2]), float(parts[-1]))
        return cls(reg, _prune(amps), n_max=n_max)


def _prune(amps: dict, eps: float = EPS_AMP) -> dict:
    return {k: complex(a) for k, a in amps.items() if abs(a) > eps}


def _prune_entries(entries: dict) -> dict:
    # Relative to the largest entry, so an operator of tiny trace stays exact.
    scale = max((abs(v) for v in entries.values()), default=0.0)
    return _prune(entries, EPS_AMP * min(1.0, scale))


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


TRACE_NORMALIZED = "normalized"
TRACE_EVENT = "event-probability"


@dataclass(frozen=True)
class DensityOperator:
    """Sparse operator: complex entries over (ket, bra) occupation pairs.

    ``trace_meaning`` records whether the trace is 1 (a normalized state) or
    an event probability (an unnormalized conditional state).
    """

    register: Register
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


def unitary_column_map(register: Register, n_max: int, apply_fn):
    """Build a column map for ``sandwich`` from a PureState -> PureState op."""

    def column(occ):
        out = apply_fn(PureState.basis(register, occ, n_max=n_max))
        return dict(out.amps)

    return column
