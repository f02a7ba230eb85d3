"""Sparse Fock engine versus dense linear algebra, plus API contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dense_oracle import product_basis, rotation_generator, rotation_matrix, run_oracle_suite
from density_route import DensityOperator, partial_trace, tensor_density
from branch_route import ModeError, PureState, apply_creation, tensor, two_mode_rotation


def test_dense_oracle_property_suite():
    n_cases, max_err = run_oracle_suite(n_cases=1000, seed=20260823)
    assert n_cases >= 1000
    assert max_err < 1e-10


def test_oracle_rotation_eigh_form_matches_expm():
    # The oracle's rotation, D V exp(-i theta w) V+ D+, is scipy's matrix
    # exponential of its generator on every register the suite draws.
    rng = np.random.default_rng(7)
    for n_modes in (2, 3):
        for n_max in (1, 2, 3):
            basis = product_basis(n_modes, n_max)
            for i in range(n_modes):
                for j in range(n_modes):
                    if i == j:
                        continue
                    for _ in range(3):
                        theta, phase = rng.uniform(-math.pi, math.pi, size=2)
                        want = expm(theta * rotation_generator(basis, i, j, phase))
                        got = rotation_matrix(basis, i, j, theta, phase)
                        assert np.abs(got - want).max() < 1e-12, (n_modes, n_max, i, j)


def test_vacuum_and_basis_states():
    vac = PureState.vacuum(("a", "b"), n_max=2)
    assert vac.amps == {(0, 0): 1.0 + 0.0j}
    assert vac.is_normalized()
    one = PureState.basis(("a", "b"), (1, 0), n_max=2)
    assert one.norm() == 1.0
    with pytest.raises(ModeError):
        PureState.basis(("a", "b"), (1,), n_max=2)
    with pytest.raises(ValueError):
        PureState.basis(("a", "b"), (-1, 0), n_max=2)


def test_duplicate_register_labels_rejected():
    with pytest.raises(ModeError):
        PureState.vacuum(("a", "a"))


def test_normalize_zero_state_raises():
    zero = PureState(("a",), {}, n_max=2)
    with pytest.raises(ValueError):
        zero.normalized()


def test_reorder_roundtrip():
    psi = PureState(("a", "b", "c"), {(1, 0, 2): 0.6, (0, 1, 1): 0.8}, n_max=3)
    back = psi.reorder(("c", "a", "b")).reorder(("a", "b", "c"))
    assert back.amps == psi.amps
    with pytest.raises(ModeError):
        psi.reorder(("a", "b", "x"))


def test_creation_truncation_tracks_dropped_weight():
    psi = PureState.basis(("a",), (2,), n_max=2)
    out = apply_creation(psi, "a")
    assert out.amps == {}
    # |2> -> sqrt(3)|3> lies past the cap: squared weight 3 is dropped.
    assert out.dropped_weight == pytest.approx(3.0)
    kept = apply_creation(psi, "a", truncate=False)
    assert kept.amps[(3,)] == pytest.approx(math.sqrt(3.0))


def test_rotation_composition():
    psi = PureState(("a", "b"), {(1, 0): 1.0}, n_max=2)
    step = two_mode_rotation(two_mode_rotation(psi, "a", "b", 0.3), "a", "b", 0.5)
    once = two_mode_rotation(psi, "a", "b", 0.8)
    for occ in set(step.amps) | set(once.amps):
        assert step.amps.get(occ, 0.0) == pytest.approx(once.amps.get(occ, 0.0), abs=1e-12)


def test_rotation_requires_distinct_modes():
    psi = PureState.vacuum(("a", "b"))
    with pytest.raises(ModeError):
        two_mode_rotation(psi, "a", "a", 0.1)


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), phase=st.floats(-math.pi, math.pi),
       n1=st.integers(0, 2), n2=st.integers(0, 2))
def test_rotation_preserves_norm(theta, phase, n1, n2):
    psi = PureState.basis(("a", "b"), (n1, n2), n_max=4)
    out = two_mode_rotation(psi, "a", "b", theta, phase=phase)
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_tensor_register_collision():
    with pytest.raises(ModeError):
        tensor(PureState.vacuum(("a",)), PureState.vacuum(("a", "b")))
    with pytest.raises(ModeError):
        tensor_density(DensityOperator.from_pure(PureState.vacuum(("a",))),
                       DensityOperator.from_pure(PureState.vacuum(("a",))))


def test_density_mixture_is_hermitian_psd():
    rng = np.random.default_rng(7)
    reg = ("a", "b")
    branches = []
    for _ in range(3):
        amps = {(1, 0): complex(rng.normal(), rng.normal()),
                (0, 1): complex(rng.normal(), rng.normal())}
        branches.append(PureState(reg, amps, n_max=2))
    rho = DensityOperator.from_branches(branches, register=reg, n_max=2)
    assert rho.is_hermitian()
    assert rho.is_psd()
    assert rho.trace() == pytest.approx(sum(b.norm_sq() for b in branches))


def test_partial_trace_preserves_trace():
    psi = PureState(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8}, n_max=2)
    rho = DensityOperator.from_pure(psi)
    red = partial_trace(rho, ["b"])
    assert red.register == ("a",)
    assert red.trace() == pytest.approx(1.0)
    # Entangled two-mode state reduces to a mixed single-mode state.
    assert red.entries[((1,), (1,))].real == pytest.approx(0.36)
    assert red.entries[((0,), (0,))].real == pytest.approx(0.64)


def test_normalized_requires_positive_trace():
    empty = DensityOperator(("a",), {}, n_max=2)
    with pytest.raises(ValueError):
        empty.normalized()
