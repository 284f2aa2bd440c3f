"""JSON interchange for chi matrices, count tables and fit reports.

All files carry "schema": 1 and a "kind" tag.  Complex matrices are
stored row-major with each entry as an [re, im] pair; floats go through
Python's shortest round-trip repr, so writing and re-reading a value is
exact and identical inputs produce byte-identical files.  Chi matrices
are identified by (dim, basis label); only the named bases ("pauli",
"elementary-scaled") can be reconstructed from a label, so a chi in any
other basis is written in the named basis of its label, or refused.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .channels import ChiMatrix, ProbabilityOperator, change_basis, named_basis
from .errors import DataError
from .tomography import CountTable

SCHEMA_VERSION = 1

_SPECTRUM_CLAMP = 1e-9  # rounding-level excursions outside [0, 1]

#: The largest real or imaginary part a chi file's entry may have.
#: ChiMatrix adds m and m^H, and P sums d^4 products of entries with basis
#: operators, so entries of ~1e307 overflow to NaN there; from entries of
#: at most 1e150 every such sum stays far inside the floating-point range.
MAX_CHI_ENTRY = 1e150


def _json_numbers(values) -> bool:
    """Whether every value is a JSON number: float() and complex() would
    take True as 1, and float() would take "1e4"."""
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values)


def complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def complex_matrix_from_json(data, what: str = "matrix") -> np.ndarray:
    """The matrix of rows of [re, im] pairs of JSON numbers."""
    try:
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in data], dtype=complex
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {what}: {exc}") from None
    # every entry unpacked into two numbers, but complex() takes True as 1
    if not _json_numbers(v for row in data for pair in row for v in pair):
        raise DataError(f"{what} entries must be pairs of JSON numbers")
    return mat


def _check_kind(doc: dict, kind: str):
    if not isinstance(doc, dict):
        raise DataError(f"expected a JSON object for {kind}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported schema {doc.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    if doc.get("kind") != kind:
        raise DataError(f"expected kind {kind!r}, found {doc.get('kind')!r}")


def chi_to_dict(chi: ChiMatrix) -> dict:
    """The chi file of chi.  A basis whose operators are not those its
    label names (say, a reordered Pauli basis labelled "pauli") is changed
    into the named basis first; a label that names no basis raises
    RepresentationError."""
    chi = change_basis(chi, named_basis(chi.basis.label, chi.dim))
    return {
        "schema": SCHEMA_VERSION,
        "kind": "chi_matrix",
        "dim": chi.dim,
        "basis": chi.basis.label,
        "mat": complex_matrix_to_json(chi.mat),
    }


def chi_from_dict(doc: dict) -> ChiMatrix:
    _check_kind(doc, "chi_matrix")
    try:
        dim, label = doc["dim"], doc["basis"]
        mat = complex_matrix_from_json(doc["mat"], "chi matrix")
    except KeyError as exc:
        raise DataError(f"chi file missing field {exc}") from None
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 2:
        raise DataError(f"chi dim must be an integer of at least 2, got {dim!r}")
    # checked before the basis is built, so that dim stays bounded by the
    # file; NaN fails the bound too
    if (mat.shape != (dim**2, dim**2)
            or not np.all(np.abs(mat.view(float)) <= MAX_CHI_ENTRY)):
        raise DataError(f"dim {dim} needs a {dim**2}x{dim**2} chi matrix with "
                        f"finite entries of at most {MAX_CHI_ENTRY:g} in each part")
    try:
        return ChiMatrix(named_basis(label, dim), mat)
    except Exception as exc:
        raise DataError(f"invalid chi matrix: {exc}") from None


def count_table_to_dict(table: CountTable) -> dict:
    counts = [
        [int(c) if float(c).is_integer() else float(c) for c in row]
        for row in table.counts
    ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "count_table",
        "dim": table.dim,
        "inputs": list(table.inputs),
        "projectors": list(table.projectors),
        "exposure": float(table.exposure),
        "counts": counts,
    }


def count_table_from_dict(doc: dict) -> CountTable:
    """The count table of a file; exposure and every count must be JSON
    numbers, not strings or booleans."""
    _check_kind(doc, "count_table")
    try:
        for what in ("inputs", "projectors"):
            if not isinstance(doc[what], list):
                raise DataError(f"count table {what} must be a list of labels")
        exposure, counts = doc["exposure"], doc["counts"]
        if not _json_numbers([exposure, *(c for row in counts for c in row)]):
            raise DataError("count table exposure and counts must be JSON numbers")
        return CountTable(
            dim=doc["dim"],
            inputs=tuple(doc["inputs"]),
            projectors=tuple(doc["projectors"]),
            exposure=float(exposure),
            counts=np.array(counts, dtype=float),
        )
    except KeyError as exc:
        raise DataError(f"count table missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed count table: {exc}") from None


def probability_operator_to_dict(p: ProbabilityOperator) -> dict:
    """Serialize P; rounding-level excursions outside [0, 1] are clamped
    and anything larger is kept as-is with a warning on stderr."""
    w = p.eigenvalues.copy()
    beyond = (w < -_SPECTRUM_CLAMP) | (w > 1.0 + _SPECTRUM_CLAMP)
    if beyond.any():
        print(
            f"warning: P eigenvalues outside [0, 1]: {w[beyond]}",
            file=sys.stderr,
        )
    w[(w >= -_SPECTRUM_CLAMP) & (w < 0.0)] = 0.0
    w[(w > 1.0) & (w <= 1.0 + _SPECTRUM_CLAMP)] = 1.0
    return {
        "schema": SCHEMA_VERSION,
        "kind": "probability_operator",
        "dim": p.mat.shape[0],
        "mat": complex_matrix_to_json(p.mat),
        "eigenvalues": [float(x) for x in w],
        "classification": p.classification,
    }


def write_json(path, doc: dict):
    """Write doc as indented JSON and a newline.  The text is encoded
    before the file is opened and written in one call, so a document that
    cannot be encoded raises and leaves no file."""
    text = json.dumps(doc, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
