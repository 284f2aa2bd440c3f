"""The six cardinal polarization states used for preparation and analysis.

H/V is the computational basis, D/A = (|H> +- |V>)/sqrt(2) and
R/L = (|H> +- i|V>)/sqrt(2).  These are the input states prepared in the
count tables and the projectors of the standard polarization analyzer.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

STATE_LABELS = ("H", "V", "D", "A", "R", "L")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    "A": np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
    "R": np.array([_INV_SQRT2, 1j * _INV_SQRT2], dtype=complex),
    "L": np.array([_INV_SQRT2, -1j * _INV_SQRT2], dtype=complex),
}


def state_ket(label: str) -> np.ndarray:
    """Return the normalized ket for one of the six polarization labels."""
    try:
        return _KETS[label].copy()
    except KeyError:
        raise DataError(
            f"unknown polarization label {label!r}; expected one of {STATE_LABELS}"
        ) from None


def state_density(label: str) -> np.ndarray:
    """Return the pure-state density matrix |label><label|."""
    ket = state_ket(label)
    return np.outer(ket, ket.conj())


def state_catalog() -> dict[str, np.ndarray]:
    """Map each of the six labels to its density matrix (the projector
    onto the state)."""
    return {lab: state_density(lab) for lab in STATE_LABELS}


def kets_for(labels) -> np.ndarray:
    """Stack kets for a sequence of labels into an (n, 2) array."""
    return np.array([state_ket(lab) for lab in labels])
