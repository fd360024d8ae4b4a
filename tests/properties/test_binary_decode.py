"""Property-based tests: the C fast path of ``decode_binary_rows``.

A matrix of exact 0/1 ints is checked by one ``orjson.dumps`` of the
whole matrix; everything else takes the per-row code. On random
matrices with injected look-alikes (booleans, integral floats, other
numbers, ``None``, strings, nested lists, tuple rows, ragged rows,
width 0, int subclasses, enum members and numpy ints), the decode must
agree with a per-cell reference: accept the same inputs, return equal
rows of plain ``int`` cells and equal packed bytes, or raise the same
message.
"""

import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.validation import _fast_binary_rows, decode_binary_rows


class Bit(enum.IntEnum):
    ZERO = 0
    ONE = 1


class Flag(enum.Enum):
    ONE = 1


class Int(int):
    pass


#: Cells that are not a plain 0 or 1, each accepted or rejected by the
#: reference below.
ODD_CELLS = [
    True,
    False,
    0.0,
    1.0,
    0.5,
    float("nan"),
    2,
    -1,
    10,
    2**70,
    None,
    "0",
    "1",
    "",
    [],
    [0],
    {},
    Int(1),
    Int(0),
    Bit.ONE,
    Bit.ZERO,
    Flag.ONE,
    np.int64(1),
    np.int8(0),
    np.float64(1.0),
]


def reference(value, name):
    """The per-cell decode every input must agree with."""
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{name} must be a non-empty list of rows")
    width = len(value[0]) if isinstance(value[0], list) else None
    rows = []
    for row in value:
        if not isinstance(row, list):
            raise ConfigurationError(f"{name} rows must be lists")
        if len(row) != width:
            raise ConfigurationError(f"{name} rows must have equal length")
        cells = []
        for cell in row:
            if isinstance(cell, bool) or cell not in (0, 1):
                raise ConfigurationError(f"{name} entries must be 0/1, got {cell!r}")
            cells.append(int(cell))
        rows.append(cells)
    return rows, [bytes(row) for row in rows]


def outcome(decode, value):
    try:
        return "ok", decode(value, "x")
    except ConfigurationError as exc:
        return "error", str(exc)


@st.composite
def matrices(draw):
    """A list of rows, mostly plain 0/1 ints, with optional damage."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(0, 6))
    rows = [
        draw(st.lists(st.sampled_from([0, 1]), min_size=width, max_size=width))
        for _ in range(height)
    ]
    if width:
        for _ in range(draw(st.integers(0, 2))):
            i, k = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
            rows[i][k] = draw(st.sampled_from(ODD_CELLS))
    damage = draw(st.sampled_from([None, "tuple", "ragged", "row"]))
    i = draw(st.integers(0, height - 1))
    if damage == "tuple":
        rows[i] = tuple(rows[i])
    elif damage == "ragged":
        rows[i] = rows[i] + [draw(st.sampled_from([0, 1]))]
    elif damage == "row":
        rows[i] = draw(st.sampled_from([0, None, "01", Bit.ONE]))
    return rows


def assert_agrees(value):
    got, want = outcome(decode_binary_rows, value), outcome(reference, value)
    assert got[0] == want[0], (value, got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        if isinstance(value, list) and value:
            assert _fast_binary_rows(value) is None
        return
    (rows, packed), (want_rows, want_packed) = got[1], want[1]
    assert rows == want_rows
    assert all(type(cell) is int for row in rows for cell in row)
    assert packed == want_packed
    assert all(type(data) is bytes for data in packed)
    fast = _fast_binary_rows(value)
    if fast is not None:
        assert fast[0] == want_rows and fast[1] == want_packed
        assert all(type(cell) is int for row in fast[0] for cell in row)


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_decode_agrees_with_per_cell_reference(value):
    assert_agrees(value)


@pytest.mark.parametrize("cell", ODD_CELLS, ids=repr)
def test_every_odd_cell_agrees(cell):
    for position in (0, 2):
        rows = [[0, 1, 1], [1, 0, 1]]
        rows[1][position] = cell
        assert_agrees(rows)
        assert_agrees([[cell] * 3, [1, 0, 1]])


@pytest.mark.parametrize("value", [[], [[]], [[], []], (), None, [(0, 1)], "01"])
def test_degenerate_shapes_agree(value):
    assert_agrees(value)


def test_plain_matrices_take_the_fast_path():
    rows = np.random.default_rng(0).integers(0, 2, (20, 30)).tolist()
    fast = _fast_binary_rows(rows)
    assert fast is not None
    assert fast == reference(rows, "x")
    # Enum members write as their value: an IntEnum matrix is decoded
    # on the fast path to plain ints, a plain Enum one is not.
    assert _fast_binary_rows([[Bit.ONE, Bit.ZERO]]) == ([[1, 0]], [b"\x01\x00"])
    assert _fast_binary_rows([[Flag.ONE, 0]]) is None
