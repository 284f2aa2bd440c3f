"""Forward model of the partially transmitting PBS experiment.

The device transmits the horizontal and vertical polarization components
with amplitudes sqrt(T_H) and sqrt(T_V):

    alpha|H> + beta|V>  ->  alpha sqrt(T_H)|H> + beta sqrt(T_V)|V>

a single-Kraus lossy map whose success probability depends on the input
state whenever T_H != T_V.  The transmittivity ratio is Gamma = T_V / T_H;
sweeps fix T_H = 1 and scan Gamma.

Counts follow the six-in six-out protocol: each of the cardinal states is
prepared, sent through the device, and analyzed against all six cardinal
projectors.  Expected coincidences are N * Tr[Pi_b E(rho_a)], from the
Pauli-basis protocol plan the fits read (a chi in another basis is
changed into it), and the detection statistics are Poissonian (or exact
expectations for noiseless studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChiMatrix, change_basis, pauli_basis
from .errors import DataError
from .states import STATE_LABELS
from .tomography import MAX_EXPOSURE, MIN_EXPOSURE, CountTable, protocol_plan


@dataclass(frozen=True)
class PpbsParams:
    """Transmittivities of the partial polarizing beam splitter."""

    t_h: float
    t_v: float

    def __post_init__(self):
        if not (0.0 <= self.t_h <= 1.0 and 0.0 <= self.t_v <= 1.0):
            raise DataError(
                f"transmittivities must lie in [0, 1], got ({self.t_h}, {self.t_v})"
            )

    @property
    def gamma(self) -> float:
        """Ratio T_V / T_H (defined for T_H > 0)."""
        if self.t_h <= 0.0:
            raise DataError("gamma undefined for t_h = 0")
        return self.t_v / self.t_h

    @classmethod
    def from_gamma(cls, gamma: float) -> "PpbsParams":
        """Sweep convention: T_H = 1, T_V = Gamma."""
        if not 0.0 < gamma <= 1.0:
            raise DataError(f"gamma must lie in (0, 1], got {gamma}")
        return cls(1.0, gamma)


@dataclass(frozen=True)
class SimConfig:
    """One simulated acquisition of the six-in six-out protocol (or of the
    input and analyzer subsets named here) at a fixed exposure.

    The detectors are ideal: expected counts are exactly
    exposure * Tr[Pi_b E(rho_a)], with no dark counts or efficiency scale.
    seed is a non-negative integer (NumPy's too, kept as int); booleans
    are refused.
    """

    params: PpbsParams
    exposure: float = 1e4
    seed: int = 0
    noise: str = "poisson"
    inputs: tuple = STATE_LABELS
    analyzers: tuple = STATE_LABELS

    def __post_init__(self):
        if not MIN_EXPOSURE <= self.exposure <= MAX_EXPOSURE:
            raise DataError(
                f"exposure must lie in [{MIN_EXPOSURE:g}, {MAX_EXPOSURE:g}], "
                f"got {self.exposure}"
            )
        if self.noise not in ("poisson", "none"):
            raise DataError(f"noise must be 'poisson' or 'none', got {self.noise!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "analyzers", tuple(self.analyzers))


def ppbs_kraus(p: PpbsParams) -> np.ndarray:
    """The single Kraus operator diag(sqrt(T_H), sqrt(T_V))."""
    return np.diag([np.sqrt(p.t_h), np.sqrt(p.t_v)]).astype(complex)


def ppbs_chi(p: PpbsParams) -> ChiMatrix:
    """Analytic process matrix of the device in the Pauli basis.

    Nonzero entries (Pauli order I, x, y, z):

        chi_00 = (sqrt(T_H) + sqrt(T_V))^2 / 4
        chi_33 = (sqrt(T_H) - sqrt(T_V))^2 / 4
        chi_03 = chi_30 = (T_H - T_V) / 4

    a rank-one matrix, as expected for a single-Kraus map.
    """
    sh, sv = np.sqrt(p.t_h), np.sqrt(p.t_v)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = (sh + sv) ** 2 / 4.0
    mat[3, 3] = (sh - sv) ** 2 / 4.0
    mat[0, 3] = mat[3, 0] = (p.t_h - p.t_v) / 4.0
    return ChiMatrix(pauli_basis(), mat)


def expected_counts(
    chi: ChiMatrix,
    exposure: float,
    inputs=STATE_LABELS,
    analyzers=STATE_LABELS,
) -> np.ndarray:
    """Expected coincidences N * Tr[Pi_b E(rho_a)] for a generic channel,
    indexed (input, analyzer): c chi c^H for the amplitude row c of each
    cell, from the protocol plan the fits read, with chi changed into its
    Pauli basis."""
    mat = change_basis(chi, pauli_basis()).mat
    amps = protocol_plan(tuple(inputs), tuple(analyzers)).amplitudes
    mu = exposure * ((amps @ mat) * amps.conj()).sum(axis=1).real
    return np.clip(mu, 0.0, None).reshape(len(inputs), len(analyzers))


def simulate_counts(cfg: SimConfig, chi: ChiMatrix | None = None) -> CountTable:
    """Generate one count table for the configured device.

    With noise="poisson" every cell is an independent Poisson draw from
    its expectation; with noise="none" the exact expectations are stored,
    which keeps the noiseless pipeline algebraically closed.  A chi
    override replaces the analytic device model (same protocol).
    """
    if chi is None:
        chi = ppbs_chi(cfg.params)
    mu = expected_counts(chi, cfg.exposure, cfg.inputs, cfg.analyzers)
    if cfg.noise == "poisson":
        rng = np.random.default_rng(cfg.seed)
        counts = rng.poisson(mu).astype(float)
    else:
        counts = mu
    return CountTable(chi.dim, cfg.inputs, cfg.analyzers, cfg.exposure, counts)


def derive_seed(*parts) -> int:
    """Deterministic child seed from integer parts (sweep decorrelation)."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
