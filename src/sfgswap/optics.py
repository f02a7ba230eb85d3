"""Physical parameters of the photon-pair sources and the single-photon
sum-frequency interaction.

Conventions:
  * Each source emits two-mode-squeezed vacua in the H and V polarizations
    of a (signal, idler) mode pair; the squeezing parameter is
    gamma = sqrt(mu / (1 + mu)) for mean photon number mu per mode.
  * Loss on a mode with transmittance t is an ancilla beamsplitter of
    transmittance t followed by a partial trace over the ancilla: losing l
    of n photons has amplitude sqrt(C(n, l)) t^((n - l) / 2) (1 - t)^(l / 2).
  * The sum-frequency interaction is kept to first order in the coupling;
    the converted branch creates exactly one photon in the c modes.

The pipelines of ``protocols`` apply these channels to arrays over pair
numbers.  The pure-branch channels of ``tests/branch_route.py`` and the
density-operator channels of ``tests/density_route.py`` are the references
the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceParams:
    """Mean photon numbers per polarization mode of one pair source."""

    mu_H: float
    mu_V: float

    def __post_init__(self):
        if not (0.0 <= self.mu_H < math.inf and 0.0 <= self.mu_V < math.inf):
            raise ValueError("mean photon numbers must be finite and nonnegative")

    @property
    def gamma_H(self) -> float:
        return math.sqrt(self.mu_H / (1.0 + self.mu_H))

    @property
    def gamma_V(self) -> float:
        return math.sqrt(self.mu_V / (1.0 + self.mu_V))


@dataclass(frozen=True)
class SfgParams:
    """Single-photon SFG efficiency per polarization, (chi*tau)^2."""

    eta_H: float
    eta_V: float

    def __post_init__(self):
        for eta in (self.eta_H, self.eta_V):
            if not 0.0 <= eta <= 1.0:
                raise ValueError("SFG efficiency must be in [0, 1]")
