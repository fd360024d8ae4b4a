"""Input-validation helpers shared across the library.

Validation failures raise :class:`~repro.util.errors.ConfigurationError`
with a message naming the offending argument, so errors surface at API
boundaries rather than deep inside a heuristic.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Type

import numpy as np
import orjson

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


#: ``translate`` table from the JSON text of a 0/1 cell to its packed byte.
_DIGIT_CELLS = bytes.maketrans(b"01", b"\x00\x01")


def _fast_binary_rows(
    value: List[Any],
) -> Optional[Tuple[List[List[int]], List[bytes]]]:
    """The fast path of :func:`decode_binary_rows`: the rows and packed
    rows of a matrix of exact 0/1 ints, or ``None`` for anything else.

    The whole matrix is written with one ``orjson.dumps``. Rows of exact
    0/1 ints write as ``rows * (2 * width + 2) + 1`` bytes drawn from
    ``01,[]``. Every other cell writes as at least one more byte (a
    bool as ``true``, a float as ``1.0``, a list as ``[]``) or is not
    written at all (an int subclass raises under
    ``OPT_PASSTHROUGH_SUBCLASS``, and so do numpy ints). Enum members
    write as their value, so the rows are rebuilt from the packed bytes
    and must compare equal to the input: an ``IntEnum`` cell comes back
    as a plain int, and a plain ``Enum`` cell, which equals no int,
    falls through to the per-cell check.
    """
    width = len(value[0]) if type(value[0]) is list else 0
    if (
        not width
        or set(map(type, value)) != {list}
        or set(map(len, value)) != {width}
    ):
        return None
    try:
        text = orjson.dumps(value, option=orjson.OPT_PASSTHROUGH_SUBCLASS)
    except orjson.JSONEncodeError:
        return None
    if len(text) != len(value) * (2 * width + 2) + 1 or text.translate(
        None, b"01,[]"
    ):
        return None
    cells = text.translate(_DIGIT_CELLS, b",[]")
    packed = [cells[i : i + width] for i in range(0, len(cells), width)]
    rows = list(map(list, packed))
    return (rows, packed) if rows == value else None


def decode_binary_rows(
    value: Any, name: str, error: Type[Exception] = ConfigurationError
) -> Tuple[List[List[int]], List[bytes]]:
    """Strictly decode a JSON 0/1 matrix: a non-empty list of equal-length
    lists whose cells are 0 or 1.

    Returns the rows with every cell an ``int``, and each row packed as
    ``bytes`` for :func:`binary_rows_matrix`. A matrix of exact 0/1
    ints is checked in C by one ``orjson.dumps`` of the whole matrix
    (see :func:`_fast_binary_rows`). Anything else is checked cell by
    cell: the integral floats 0.0/1.0 are accepted, and everything
    else, booleans included, raises ``error`` with a message naming
    ``name``.
    """
    if not isinstance(value, list) or not value:
        raise error(f"{name} must be a non-empty list of rows")
    fast = _fast_binary_rows(value)
    if fast is not None:
        return fast
    rows: List[List[int]] = []
    width = len(value[0]) if isinstance(value[0], list) else None
    for row in value:
        if not isinstance(row, list):
            raise error(f"{name} rows must be lists")
        if len(row) != width:
            raise error(f"{name} rows must have equal length")
        cells: List[int] = []
        for cell in row:
            if isinstance(cell, bool) or cell not in (0, 1):
                raise error(f"{name} entries must be 0/1, got {cell!r}")
            cells.append(int(cell))
        rows.append(cells)
    return rows, list(map(bytes, rows))


#: The exact types a JSON number decodes to.
_NUMBER_TYPES = frozenset((int, float))


def decode_number_list(
    value: Any, name: str, error: Type[Exception] = ConfigurationError
) -> List[float]:
    """Strictly decode a JSON list of numbers: a non-empty list whose
    entries are ints or floats.

    Returns the entries as floats. Strings such as ``"1"`` or ``"5e0"``
    and the booleans are rejected, raising ``error`` with a message
    naming ``name``, where a numpy cast would have taken them as
    numbers; so are ints beyond the double range, which ``float``
    cannot convert. A list of exact ints and floats is checked by one type
    scan in C; any other list is checked entry by entry.
    """
    if not isinstance(value, list) or not value:
        raise error(f"{name} must be a non-empty list")
    if not set(map(type, value)) <= _NUMBER_TYPES:
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise error(f"{name} entries must be numbers, got {item!r}")
    try:
        return list(map(float, value))
    except OverflowError:
        raise error(f"{name} entries must be numbers in the double range") from None


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
