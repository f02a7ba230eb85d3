"""Dense-matrix reference implementation of the sparse Fock engine.

Everything here works on the full per-mode product basis (each mode holds
0..n_max photons); sparse states, which carry a *total*-photon cap, embed
into that space exactly.  Operations that conserve total photon number
(mode rotations, partial traces) agree with the sparse engine on the
embedded subspace; the creation operator reproduces the sparse engine's
total-photon truncation explicitly.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from density_route import DensityOperator, expectation, partial_trace, sandwich, unitary_column_map
from branch_route import PureState, apply_annihilation, apply_creation, tensor, two_mode_rotation

# Tsirelson's bound on |S|
TSIRELSON = 2.0 * math.sqrt(2.0)


def vacuum_share(entries, mu) -> float:
    """The weight of the heralded state of ``entries`` at the sources ``mu``
    that leaves a party with no photon (N_d = 0 or N_e = 0), over its trace."""
    rho, total = entries.state(mu)
    d = entries.n_diagonal
    empty = (entries.index[0][:d] == 0) | (entries.index[3][:d] == 0)
    return float(rho[:d][empty].sum() / total)


def faithful_chsh_bound(v: float) -> float:
    """The bound on |S| of a state with vacuum share v: a party with no
    photon has a fixed outcome, so that share's part of S is at most 2, and
    the rest obeys Tsirelson's bound."""
    return (1.0 - v) * TSIRELSON + 2.0 * v


def product_basis(n_modes: int, n_max: int):
    """All occupation tuples with 0..n_max photons per mode."""
    return list(itertools.product(range(n_max + 1), repeat=n_modes))


def dense_vector(psi: PureState, basis) -> np.ndarray:
    idx = {occ: i for i, occ in enumerate(basis)}
    v = np.zeros(len(basis), dtype=complex)
    for occ, a in psi.amps.items():
        v[idx[occ]] = a
    return v


def dense_density(rho: DensityOperator, basis) -> np.ndarray:
    idx = {occ: i for i, occ in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for (k, b), val in rho.entries.items():
        m[idx[k], idx[b]] = val
    return m


def creation_matrix(basis, mode_idx: int, n_max: int, truncate: bool = True) -> np.ndarray:
    """Dense a+ with the sparse engine's total-photon truncation."""
    idx = {occ: i for i, occ in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for occ in basis:
        n = occ[mode_idx]
        new = occ[:mode_idx] + (n + 1,) + occ[mode_idx + 1:]
        if new not in idx:
            continue
        if truncate and sum(new) > n_max:
            continue
        m[idx[new], idx[occ]] = math.sqrt(n + 1)
    return m


def annihilation_matrix(basis, mode_idx: int) -> np.ndarray:
    idx = {occ: i for i, occ in enumerate(basis)}
    m = np.zeros((len(basis), len(basis)), dtype=complex)
    for occ in basis:
        n = occ[mode_idx]
        if n == 0:
            continue
        new = occ[:mode_idx] + (n - 1,) + occ[mode_idx + 1:]
        m[idx[new], idx[occ]] = math.sqrt(n)
    return m


def rotation_generator(basis, i: int, j: int, phase: float) -> np.ndarray:
    """K = e^{i phase} aj+ ai - e^{-i phase} ai+ aj, anti-Hermitian."""
    n_max = max(sum(occ) for occ in basis)
    ai = annihilation_matrix(basis, i)
    aj = annihilation_matrix(basis, j)
    adi = creation_matrix(basis, i, n_max, truncate=False)
    adj = creation_matrix(basis, j, n_max, truncate=False)
    ph = complex(math.cos(phase), math.sin(phase))
    return ph * (adj @ ai) - ph.conjugate() * (adi @ aj)


@functools.lru_cache(maxsize=None)
def _generator_eigh(basis: tuple, i: int, j: int):
    """(w, V) = eigh of the Hermitian i K at phase 0."""
    return np.linalg.eigh(1j * rotation_generator(basis, i, j, 0.0))


def rotation_matrix(basis, i: int, j: int, theta: float, phase: float) -> np.ndarray:
    """exp(theta K) with K = e^{i phase} aj+ ai - e^{-i phase} ai+ aj.

    The adjoint action sends ai+ -> cos ai+ + e^{i phase} sin aj+, matching
    the sparse two_mode_rotation convention.  K conserves the total photon
    number, so the exponential is exact on the total-capped subspace.

    With D = diag(e^{i phase n_j}), K = D K0 D+ for K0 the generator at
    phase 0, so exp(theta K) = D V exp(-i theta w) V+ D+, where (w, V) is
    the eigendecomposition of the Hermitian i K0, computed once per
    (basis, i, j).
    """
    w, v = _generator_eigh(tuple(basis), i, j)
    d = np.exp(1j * phase * np.array([occ[j] for occ in basis]))
    u = (v * np.exp(-1j * theta * w)) @ v.conj().T
    return d[:, None] * u * d.conj()


def dense_partial_trace(mat: np.ndarray, n_modes: int, n_max: int, traced) -> np.ndarray:
    """Partial trace over the given mode indices, via per-mode reshaping."""
    d = n_max + 1
    t = mat.reshape((d,) * n_modes * 2)
    for count, mode in enumerate(sorted(traced)):
        axes = n_modes - count
        t = np.trace(t, axis1=mode - count, axis2=mode - count + axes)
    return t.reshape((d ** (n_modes - len(traced)),) * 2)


def random_state(rng, register, n_max: int, normalize: bool = True) -> PureState:
    basis = [occ for occ in product_basis(len(register), n_max) if sum(occ) <= n_max]
    k = int(rng.integers(1, min(6, len(basis)) + 1))
    picks = rng.choice(len(basis), size=k, replace=False)
    amps = {}
    for p in picks:
        amps[basis[p]] = complex(rng.normal(), rng.normal())
    psi = PureState(tuple(register), amps, n_max=n_max)
    return psi.normalized() if normalize else psi


def run_oracle_suite(n_cases: int = 1000, seed: int = 20260823, tol: float = 1e-10):
    """Compare every sparse operation against its dense counterpart.

    Each randomized case draws a register of at most 3 modes, a total cap
    n_max <= 3, and a random sparse state, then checks creation,
    annihilation, mode rotation, overlap, density construction, partial
    trace, the sandwich conjugation, and expectation values against dense
    linear algebra.  Returns (cases run, worst absolute deviation).
    """
    rng = np.random.default_rng(seed)
    labels = ("m0", "m1", "m2")
    max_err = 0.0

    for _ in range(n_cases):
        n_modes = int(rng.integers(1, 4))
        n_max = int(rng.integers(1, 4))
        register = labels[:n_modes]
        basis = product_basis(n_modes, n_max)
        psi = random_state(rng, register, n_max)
        v = dense_vector(psi, basis)
        mode = labels[int(rng.integers(0, n_modes))]
        mi = register.index(mode)

        # Creation (with total-photon truncation) and annihilation.
        out = apply_creation(psi, mode)
        ref = creation_matrix(basis, mi, n_max) @ v
        max_err = max(max_err, np.abs(dense_vector(out, basis) - ref).max())

        out = apply_annihilation(psi, mode)
        ref = annihilation_matrix(basis, mi) @ v
        max_err = max(max_err, np.abs(dense_vector(out, basis) - ref).max())

        # Two-mode rotation against the dense matrix exponential.
        if n_modes >= 2:
            other = labels[(mi + 1) % n_modes]
            oi = register.index(other)
            theta = float(rng.uniform(-math.pi, math.pi))
            phase = float(rng.uniform(-math.pi, math.pi))
            u = rotation_matrix(basis, mi, oi, theta, phase)
            out = two_mode_rotation(psi, mode, other, theta, phase=phase)
            max_err = max(max_err, np.abs(dense_vector(out, basis) - u @ v).max())
            max_err = max(max_err, abs(out.norm_sq() - psi.norm_sq()))

        # Overlap against the dense inner product.
        phi = random_state(rng, register, n_max)
        w = dense_vector(phi, basis)
        max_err = max(max_err, abs(psi.overlap(phi) - np.vdot(v, w)))

        # Density operator from a pure state is the dense outer product.
        rho = DensityOperator.from_pure(psi)
        mat = dense_density(rho, basis)
        max_err = max(max_err, np.abs(mat - np.outer(v, v.conjugate())).max())
        max_err = max(max_err, abs(rho.trace() - 1.0))

        # Mixture of two branches; partial trace against dense reshaping.
        mix = DensityOperator.from_branches([psi, phi.scaled(0.5)], register=register,
                                            n_max=n_max)
        mix_mat = dense_density(mix, basis)
        if n_modes >= 2:
            n_traced = int(rng.integers(1, n_modes))
            traced = sorted(rng.choice(n_modes, size=n_traced, replace=False).tolist())
            red = partial_trace(mix, [register[i] for i in traced])
            red_basis = product_basis(n_modes - n_traced, n_max)
            ref = dense_partial_trace(mix_mat, n_modes, n_max, traced)
            max_err = max(max_err, np.abs(dense_density(red, red_basis) - ref).max())
            max_err = max(max_err, abs(red.trace() - mix.trace()))

        # Sandwich conjugation by a rotation unitary: U rho U+.
        if n_modes >= 2:
            theta = float(rng.uniform(-math.pi, math.pi))
            m1, m2 = register[0], register[1]
            col = unitary_column_map(register, n_max,
                                     lambda s: two_mode_rotation(s, m1, m2, theta))
            conj = sandwich(mix, col)
            u = rotation_matrix(basis, 0, 1, theta, 0.0)
            ref = u @ mix_mat @ u.conjugate().T
            max_err = max(max_err, np.abs(dense_density(conj, basis) - ref).max())

        # Expectation Tr[op rho] against the dense trace.
        op = DensityOperator.from_pure(phi)
        ref = np.trace(dense_density(op, basis) @ mix_mat).real
        max_err = max(max_err, abs(expectation(mix, op) - ref))

        # Tensor product against the dense Kronecker product (disjoint labels).
        if n_modes <= 2:
            extra = PureState(("x0",), {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)},
                              n_max=n_max)
            prod = tensor(psi, extra)
            full_basis = product_basis(n_modes + 1, n_max)
            ref = np.zeros(len(full_basis), dtype=complex)
            idx = {occ: i for i, occ in enumerate(full_basis)}
            for occ, a in psi.amps.items():
                for ne, ae in extra.amps.items():
                    joint = occ + ne
                    if sum(joint) <= n_max:
                        ref[idx[joint]] = a * ae
            max_err = max(max_err, np.abs(dense_vector(prod, full_basis) - ref).max())

    return n_cases, float(max_err)
