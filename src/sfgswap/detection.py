"""Threshold detection, the sign of the SFG-photon herald, and the
analyzer-readout kernel.

A threshold detector with efficiency eta clicks on an n-photon mode with
probability 1 - (1 - eta)^n and cannot resolve photon number.  Polarization
analyzers are modeled as a beamsplitter rotation of angle theta between the
H and V mode of each output arm followed by threshold detection of each arm
(theta = 0 is the Z basis, theta = pi/4 the X basis): H+ -> cos(theta) H+
+ sin(theta) V+ and V+ -> -sin(theta) H+ + cos(theta) V+.

An analyzer rotation keeps each party's photon number N and acts on the
N-photon (H, V) block as the spin-N/2 representation of SU(2), so each
analyzer operator (``analyzer_operators``) is a small block per N and a
trig polynomial in its angle (``analyzer_coefficients``).  Every pipeline
reads a heralded state through these operators, gathered at the state's
nonzero entries (``protocols.HeraldedEntries``): the swaps at their fixed
angles, the Bell searches as trig polynomials.  The
rotation of each block comes from its generator's eigensystem, which is
closed form (``_rotation_eig``): the package makes no LAPACK call.  The
pure-branch herald of ``tests/branch_route.py`` and the density-operator
POVMs, herald projection and click patterns of ``tests/density_route.py``
are the references the tests compare against.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

HERALD_SIGNS = {"D": +1.0, "A": -1.0}


def herald_sign(basis: str) -> float:
    """Relative sign of the V term of the |D> or |A> herald projection."""
    try:
        return HERALD_SIGNS[basis]
    except KeyError:
        raise ValueError(f"herald basis must be 'D' or 'A', got {basis!r}") from None


@functools.lru_cache(maxsize=None)
def _rotation_eig(n: int):
    """Eigenvalues w of i K_N, where K_N[a-1, a] = -K_N[a, a-1] = sqrt(a (N - a + 1))
    generates the analyzer rotation on the N-photon block, the real and imaginary
    parts of its eigenprojectors, and the identity, for N <= n, zero-padded.

    The system is closed form.  The eigenvalue w[N, k] = 2k - N belongs to the
    circular-polarization state with k photons in (H + iV)/sqrt 2 and N - k in
    (H - iV)/sqrt 2, whose amplitude on |a, N - a> is i^(N - a) u[N, a, k] with
    u[N, a, k] = 2^(-N/2) sqrt(C(N, k) / C(N, a))
    sum_p (-1)^(N - k - a + p) C(k, p) C(N - k, a - p),
    a Wigner small-d matrix at pi/2; so the projector's entry [a, b] is
    u[N, a, k] u[N, b, k] i^(b - a).  Each sum is an exact integer."""
    w, u = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1, n + 1))
    for N in range(n + 1):
        w[N, :N + 1] = 2 * np.arange(N + 1) - N
        for a, k in itertools.product(range(N + 1), repeat=2):
            s = sum((-1) ** (N - k - a + p) * math.comb(k, p) * math.comb(N - k, a - p)
                    for p in range(a + 1))
            u[N, a, k] = s * math.sqrt(math.comb(N, k) / math.comb(N, a)) / 2.0 ** (N / 2)
    proj = np.einsum("Nak,Nbk->Nkab", u, u)
    phase = np.subtract.outer(np.arange(n + 1), np.arange(n + 1)) % 4  # (a - b) mod 4
    parts = (np.array([1.0, 0.0, -1.0, 0.0])[phase], np.array([0.0, -1.0, 0.0, 1.0])[phase])
    eye = np.eye(n + 1) * np.tri(n + 1)[:, :, None]
    out = w, np.concatenate([proj * part for part in parts], axis=1), eye
    for arr in out:
        arr.setflags(write=False)  # shared by every caller
    return out


def rotation_blocks(thetas, n: int) -> np.ndarray:
    """R[p, N, a, a'] = <a, N - a| U(theta_p) |a', N - a'> for the analyzer
    rotation U and N <= n, zero-padded: I + V (exp(-i theta w) - 1) V+, exact at 0."""
    w, proj, eye = _rotation_eig(n)
    wt = np.multiply.outer(np.asarray(thetas, dtype=float), w)
    trig = np.concatenate([np.cos(wt) - 1.0, np.sin(wt)], axis=2)
    return eye + np.einsum("pNk,Nkab->pNab", trig, proj)


@functools.lru_cache(maxsize=None)
def _trig_phases(n: int):
    """Frequencies, phases and factors of ``trig_basis_and_derivative``:
    sin x = cos(x - pi/2) and d/dx cos(f x - s) = f cos(f x - s + pi/2)."""
    freq = 2.0 * np.concatenate([np.arange(n + 1), np.arange(1, n + 1)])
    shift = np.where(np.arange(2 * n + 1) > n, np.pi / 2, 0.0)
    out = freq, np.stack((shift, shift - np.pi / 2)), np.stack((np.ones_like(freq), freq))
    for arr in out:
        arr.setflags(write=False)
    return out


def trig_basis_and_derivative(thetas, n: int) -> np.ndarray:
    """T[p, 0, t] = (1, cos 2 theta_p, ..., cos 2n theta_p, sin 2 theta_p, ...,
    sin 2n theta_p), the trig basis, and T[p, 1, t] its derivative in theta_p."""
    freq, phase, factor = _trig_phases(n)
    return factor * np.cos(np.multiply.outer(thetas, freq)[..., None, :] - phase)


def analyzer_coefficients(weight) -> np.ndarray:
    """C[t, N, a, a'] with the analyzer operator O(theta, weight) of
    ``analyzer_operators`` equal to sum_t T[t] C[t] over the trig basis
    T = ``trig_basis_and_derivative(theta)[0]``.
    On the N-photon block O(theta) is a trig polynomial of degree N in
    2 theta, so 2n + 1 equally spaced samples over one period fix every block
    exactly: a discrete Fourier transform, as the sampled basis is orthogonal
    with norms 2n + 1 and (2n + 1) / 2."""
    weight = np.asarray(weight)
    n = weight.shape[0] - 1
    thetas = np.pi * np.arange(2 * n + 1) / (2 * n + 1)
    ops = analyzer_operators(rotation_blocks(-thetas, n), [weight])[:, 0]
    norm = np.where(np.arange(2 * n + 1) == 0, 1.0, 2.0) / (2 * n + 1)
    basis = trig_basis_and_derivative(thetas, n)[:, 0]
    coef = norm[:, None] * (basis.T @ ops.reshape(2 * n + 1, -1))
    return coef.reshape(ops.shape)


def arm_click_probs(eta_H: float, eta_V: float, n: int) -> np.ndarray:
    """Click probabilities [arm, N, a] of the H and V arm of one analyzer
    when it holds N photons, a of them in the (rotated) H mode."""
    N, a = np.indices((n + 1, n + 1))
    return np.stack([1.0 - (1.0 - eta_H) ** a, 1.0 - (1.0 - eta_V) ** np.maximum(N - a, 0)])


def analyzer_operators(r: np.ndarray, weights) -> np.ndarray:
    """O[p, i, N, a, a'] = R_p^T diag(weights[i][N]) R_p on each N-photon block,
    for rotation blocks R = ``rotation_blocks(-thetas, n)``: the analyzer at
    angle thetas[p] with weight o[N, a] per photon-number state after it."""
    return np.einsum("pNca,iNc,pNcb->piNab", r, np.asarray(weights), r)
