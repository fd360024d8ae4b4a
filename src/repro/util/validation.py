"""Input-validation helpers shared across the library.

Validation failures raise :class:`~repro.util.errors.ConfigurationError`
with a message naming the offending argument, so errors surface at API
boundaries rather than deep inside a heuristic.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple, Type

import numpy as np

from repro.util.errors import ConfigurationError


def check_binary_matrix(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``x`` is a 2-D 0/1 array and return it as ``int8``."""
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-D, got shape {arr.shape}")
    # Elementwise compare instead of np.isin: same predicate, ~50x faster
    # on the large 0/1 matrices the scaling benchmarks feed through here.
    if arr.size and not ((arr == 0) | (arr == 1)).all():
        raise ConfigurationError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int8, copy=False)


#: The two byte values a packed 0/1 row may contain.
_BINARY_BYTES = bytes((0, 1))


def decode_binary_rows(
    value: Any, name: str, error: Type[Exception] = ConfigurationError
) -> Tuple[List[List[int]], List[bytes]]:
    """Strictly decode a JSON 0/1 matrix: a non-empty list of equal-length
    lists whose cells are 0 or 1.

    Returns the rows with every cell an ``int``, and each row packed as
    ``bytes`` for :func:`binary_rows_matrix`. A row of exact ints is
    kept as is, and its check runs at C speed: ``bytes(row)`` rejects
    anything that is neither an int nor in 0-255, ``translate`` leaves
    nothing of a 0/1 row, and a type check rejects ``bool`` and every
    other int look-alike. Any other row takes a per-cell loop that
    accepts the integral floats 0.0/1.0 and rejects everything else,
    booleans included, raising ``error`` with a message naming ``name``.
    """
    if not isinstance(value, list) or not value:
        raise error(f"{name} must be a non-empty list of rows")
    rows: List[List[int]] = []
    packed: List[bytes] = []
    width = len(value[0]) if isinstance(value[0], list) else None
    for row in value:
        if not isinstance(row, list):
            raise error(f"{name} rows must be lists")
        if len(row) != width:
            raise error(f"{name} rows must have equal length")
        try:
            data = bytes(row)
        except (TypeError, ValueError):
            data = None
        if (
            data is None
            or data.translate(None, _BINARY_BYTES)
            or not set(map(type, row)) <= {int}
        ):
            cells: List[int] = []
            for cell in row:
                if isinstance(cell, bool) or cell not in (0, 1):
                    raise error(f"{name} entries must be 0/1, got {cell!r}")
                cells.append(int(cell))
            row, data = cells, bytes(cells)
        rows.append(row)
        packed.append(data)
    return rows, packed


def binary_rows_matrix(rows: Sequence[Any]) -> np.ndarray:
    """The read-only ``int8`` matrix of decoded 0/1 rows (int lists or
    packed ``bytes``), built with one ``bytes`` join instead of a
    nested-list conversion."""
    width = len(rows[0]) if rows else 0
    packed = b"".join(map(bytes, rows))
    return np.frombuffer(packed, dtype=np.int8).reshape(len(rows), width)


def check_nonnegative(values: Sequence[float], name: str = "values") -> np.ndarray:
    """Validate that every entry of ``values`` is >= 0; return float array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and float(arr.min()) < 0:
        raise ConfigurationError(f"{name} must be non-negative")
    return arr


def check_positive(values: Sequence[float], name: str = "values") -> np.ndarray:
    """Validate that every entry of ``values`` is > 0; return float array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and float(arr.min()) <= 0:
        raise ConfigurationError(f"{name} must be strictly positive")
    return arr


def check_probability(p: float, name: str = "p") -> float:
    """Validate ``p`` lies in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {p}")
    return p


def check_symmetric(x: np.ndarray, name: str = "matrix", atol: float = 1e-9) -> np.ndarray:
    """Validate that ``x`` is a square symmetric matrix; return float array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {arr.shape}")
    if arr.size and not np.allclose(arr, arr.T, atol=atol):
        raise ConfigurationError(f"{name} must be symmetric")
    return arr
