"""Deterministic artifact writers: tables as CSV or JSON, and JSON payloads.

Each table is written by one of three writers, all with the same bytes:

- `Table.chunks` formats one Python scalar at a time, in chunks. It takes a
  table with fewer than RENDER_FLOATS float cells, and a table with a column
  that is not a float64 or int64 array.
- `_splice_rows` takes the other tables with fewer than 1/SPLICE_SHARE of
  their cells outside their zero row, the row of all-zero-bit cells. It
  makes the zero row's text once and writes each row as that text, with the
  texts of the row's other cells spliced in.
- `_Renderer` renders the rest, dense float and int tables, if all their
  cells are finite, with numpy in blocks of about BLOCK_CELLS cells. A float
  gets the text of Python's repr: its digits come from `_shortest`, a
  vectorized form of Ryu's shortest round-trip digits (Adams, PLDI 2018),
  and are laid out by repr's rules. An int gets its decimal digits. Each
  block's CSV lines or JSON row objects are cut out of one byte array in
  which every cell has the same fixed-width fields. A dense table with a
  nan or inf goes to `Table.chunks`.
"""

import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np


def _fmt_cell(value, fmt: str = "csv") -> str:
    """The text of one Python scalar: a float's repr, an int in decimal,
    true or false, a string as is. In JSON a string is quoted and a
    non-finite float is null."""
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    if fmt == "json":
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is float and not math.isfinite(value):
            return "null"
    return repr(value) if kind is float else str(value)


# a chunk of a Table holds at most this many cells, or one row if wider
CHUNK_CELLS = 2**16

# a table with at least this many float cells is rendered in blocks by numpy
RENDER_FLOATS = 2**12

# a render block holds about this many cells: whole rows, or a piece of a
# row if wider. With SHORTEST_VALUES, this keeps a block's numpy
# temporaries under 2 MiB, less than a chunk of Python strings holds
BLOCK_CELLS = 2**13

# _float_cells finds the digits of about this many values at a time
SHORTEST_VALUES = 2**12

# a table with fewer than 1/SPLICE_SHARE of its cells outside its zero row
# is written by _splice_rows, not rendered
SPLICE_SHARE = 8


@dataclass(frozen=True)
class Coded:
    """A table column whose row r is values[codes[r]], so each distinct value
    is formatted once."""

    values: list
    codes: np.ndarray


class Table:
    """Table rows held as columns, for write_table. A column is a 1-D array
    (one table column), a 2-D array (one table column per array column) or a
    Coded column; every column has the same number of rows."""

    def __init__(self, *columns):
        self.columns = [column if isinstance(column, Coded) or column.ndim == 2
                        else column[:, None] for column in columns]
        self.width = sum(1 if isinstance(c, Coded) else c.shape[1]
                         for c in self.columns)

    def __len__(self) -> int:
        column = self.columns[0]
        return len(column.codes if isinstance(column, Coded) else column)

    def float_cells(self) -> int:
        """The number of cells in float columns."""
        return len(self) * sum(column.shape[1] for column in self.columns
                               if not isinstance(column, Coded)
                               and column.dtype.kind == "f")

    def chunks(self, fmt: str):
        """The rows as tuples of cell texts (_fmt_cell in format fmt), in
        chunks of consecutive rows with at most CHUNK_CELLS cells."""
        coded = {i: np.array([_fmt_cell(v, fmt) for v in column.values],
                             dtype=object)
                 for i, column in enumerate(self.columns)
                 if isinstance(column, Coded)}
        step = max(1, CHUNK_CELLS // self.width)
        for first_row in range(0, len(self), step):
            rows = slice(first_row, min(first_row + step, len(self)))
            chunk = np.empty((rows.stop - first_row, self.width), dtype=object)
            first = 0
            for i, column in enumerate(self.columns):
                if i in coded:
                    chunk[:, first] = coded[i][column.codes[rows]]
                    first += 1
                    continue
                block = column[rows]
                out = chunk[:, first:first + block.shape[1]]
                first += block.shape[1]
                # cells whose bits are all zero (0, +0.0, false; never -0.0)
                # share one text, so only the others are formatted
                out.fill(_fmt_cell(block.dtype.type(0).item()))
                nonzero = block.view(f"u{block.itemsize}") != 0
                values = block[nonzero].tolist()
                text = _fmt_cell if block.dtype.kind == "b" else repr
                out[nonzero] = np.fromiter(map(text, values), dtype=object,
                                           count=len(values))
                if fmt == "json" and block.dtype.kind == "f":
                    out[~np.isfinite(block)] = "null"
            # one flat list, grouped by a zip that reuses its row tuple: a
            # list per row would leave the garbage collector many to scan
            yield zip(*[iter(chunk.ravel().tolist())] * self.width)


# --------------------------------------------------------------------------
# shortest round-trip digits of float64, vectorized (Ryu's d2s)

_LIMB = 27
_LOW = (1 << _LIMB) - 1
_MANTISSA = np.uint64(2**52 - 1)
_SIGN = np.uint64(2**63)


@cache
def _pow5_limbs() -> np.ndarray:
    """Ryu's 125-bit multipliers as five rows of 27-bit limbs, lowest first;
    entries 0–341 are ⌊2^(b(q) + 124) / 5^q⌋ + 1 for binary exponents e2 ≥ 0,
    entries 342– are 5^i with its top bit moved to bit 124 for e2 < 0, where
    b(e) is the bit length of 5^e."""

    def bits(e):
        return ((e * 1217359) >> 19) + 1

    inverse = [(1 << (bits(q) + 124)) // 5**q + 1 for q in range(342)]
    direct = [(5**i << 125) >> bits(i) for i in range(326)]
    return np.array([[(v >> (_LIMB * t)) & _LOW for v in inverse + direct]
                     for t in range(5)], dtype=np.int64)


def _shortest(bits: np.ndarray):
    """(digits, exponent) with digits·10^exponent the shortest decimal that
    reads back as each positive finite float64 of the bit patterns `bits`,
    the nearest one to it where several are shortest: repr's digits. Every
    product of Ryu's is taken exactly in int64 over 27-bit limbs."""
    mantissa = (bits & _MANTISSA).view(np.int64)
    biased = (bits >> np.uint64(52)).view(np.int64)
    mv = (mantissa | ((biased != 0).astype(np.int64) << 52)) << 2
    e2 = np.maximum(biased, 1) - 1077
    accept = (mv & 4) == 0
    mm_shift = (mantissa != 0) | (biased <= 1)
    # Ryu's branch for e2 < 0 everywhere, then the one for e2 >= 0 where it
    # applies (often nowhere: the values of a probability table are below 1,
    # and a call skips about 20 array operations then); the product is
    # shifted right by 108 + shift, shift in [10, 17]
    down = e2 < 0
    q = ((-e2 * 732923) >> 20) - (e2 < -1)
    exponent = q + e2
    row = 342 - e2 - q
    shift = q - (((row - 342) * 1217359) >> 19) + 16
    up = np.flatnonzero(~down)
    if up.size:
        e = e2[up]
        q[up] = exponent[up] = row[up] = ((e * 78913) >> 18) - (e > 3)
        shift[up] = q[up] - e + ((q[up] * 1217359) >> 19) + 17
    b = [np.take(limb, row) for limb in _pow5_limbs()]
    a0, a1 = mv & _LOW, mv >> _LIMB
    c = [a0 * b[0], a0 * b[1] + a1 * b[0], a0 * b[2] + a1 * b[1],
         a0 * b[3] + a1 * b[2], a0 * b[4] + a1 * b[3], a1 * b[4]]
    rest = _LIMB - shift

    def mul_shift(delta=None):
        # ⌊(mv + delta)·multiplier / 2^(108 + shift)⌋
        columns = c if delta is None else [
            c[k] + delta * b[k] for k in range(5)] + c[5:]
        carry = columns[0] >> _LIMB
        for k in range(1, 4):
            carry = (columns[k] + carry) >> _LIMB
        t4 = columns[4] + carry
        return ((t4 & _LOW) >> shift) + ((columns[5] + (t4 >> _LIMB)) << rest)

    vr, vp, vm = mul_shift(), mul_shift(2), mul_shift(-1 - mm_shift)
    vr_zeros = down & (q <= 1)
    vm_zeros = vr_zeros & accept & mm_shift
    vp -= vr_zeros & ~accept
    vr_zeros |= down & (q < 63) & ((mv & ((1 << np.minimum(q, 62)) - 1)) == 0)
    i = up[q[up] <= 21]
    if i.size:
        p5, m, accepted = 5 ** q[i], mv[i], accept[i]
        fives = m % 5 == 0
        vr_zeros[i] = fives & (m % p5 == 0)
        vm_zeros[i] = ~fives & accepted & ((m - 1 - mm_shift[i]) % p5 == 0)
        vp[i] -= ~fives & ~accepted & ((m + 2) % p5 == 0)

    # drop the most digits that keep vp and vm apart, in steps of 16, 8, 4,
    # 2 and 1 digits, keeping the last digit dropped from vr and, for the
    # values with a trailing-zero flag, whether all digits dropped below it,
    # and from vm, were zeros; a step that few values take works on those
    last = np.zeros_like(vr)
    flagged = np.flatnonzero(vr_zeros | vm_zeros)
    for s in 16, 8, 4, 2, 1:
        p, t = 10**s, 10**(s - 1)
        high = vm // p
        step = vp >= (high + 1) * p
        if not step.any():
            continue
        f = flagged[step[flagged]]
        dropped = vr[f] - vr[f] // p * p
        vm_zeros[f] &= vm[f] == high[f] * p
        vr_zeros[f] &= (last[f] == 0) & (dropped % t == 0)
        kept = vr // p
        np.putmask(last, step, (vr - kept * p) // t)
        np.putmask(vr, step, kept)
        np.putmask(vm, step, high)
        np.putmask(vp, step, vp // p)
        exponent += step * s
    i = np.flatnonzero(vm_zeros)
    while i.size:
        m = vm[i] // 10
        i, m = i[vm[i] == m * 10], m[vm[i] == m * 10]
        r = vr[i] // 10
        vr_zeros[i] &= last[i] == 0
        last[i] = vr[i] - r * 10
        vr[i], vm[i] = r, m
        exponent[i] += 1
    # an exact half rounds to even
    last[vr_zeros & (last == 5) & ((vr & 1) == 0)] = 4
    digits = vr + (((vr == vm) & ~(accept & vm_zeros)) | (last >= 5))
    return digits, exponent


# --------------------------------------------------------------------------
# the block renderer

# the fields of a cell's text, in order, as rows of an int64 array: a sign;
# an integer part and the number of its last digits that show; the same for
# a fraction part, after a point where it shows; and a row of _exponents()
_NEG, _INT, _INT_LEN, _FRAC, _FRAC_LEN, _EXP = range(6)

_POW10 = 10 ** np.arange(20, dtype=np.uint64)


@cache
def _shown(size: int, last: bool) -> np.ndarray:
    """Row k: which bytes of a field of `size` bytes show its last (or
    first) k bytes."""
    count = np.arange(size)
    return (count >= size - np.arange(size + 1)[:, None] if last
            else count < np.arange(size + 1)[:, None])


@cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0–9999, one uint32 each."""
    return np.frombuffer(b"".join(b"%04d" % k for k in range(10000)),
                         dtype=np.uint32)


@cache
def _exponents() -> tuple:
    """repr's exponent suffixes ("e-05", "e+100") as rows of 8 bytes in
    uint64, row e + 325 for the decimal exponent e, row 0 empty, and their
    lengths."""
    texts = [b""] + [b"e%+03d" % e for e in range(-324, 309)]
    rows = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts),
                         dtype=np.uint64)
    return rows, np.array([len(t) for t in texts], dtype=np.int8)


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The last `width` (at most 20) decimal digits of each uint64 value, as
    ASCII bytes on a new last axis."""
    quads = (width + 3) // 4
    out = np.empty(values.shape + (quads,), dtype=np.uint32)
    table = _quads()
    for k in range(quads - 1, -1, -1):
        high = values // 10000
        out[..., k] = table[(values - high * 10000).astype(np.intp)]
        values = high
    return out.view(np.uint8)[..., 4 * quads - width:]


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The (6, n) cell fields of n finite float64 values: repr's text."""
    bits = values.view(np.uint64)
    magnitude = bits & ~_SIGN
    cells = np.zeros((6, len(bits)), dtype=np.int64)
    cells[_NEG] = bits >> np.uint64(63)
    # -0.0 and 0.0
    cells[_INT_LEN] = cells[_FRAC_LEN] = 1
    i = np.flatnonzero(magnitude)
    # Ryu in equal pieces of about SHORTEST_VALUES values, so that its
    # temporaries stay small
    digits, exponent = map(np.concatenate, zip(*[
        _shortest(magnitude[piece]) for piece in
        np.array_split(i, max(1, round(len(i) / SHORTEST_VALUES)))]))
    length = _lengths(digits)
    point = exponent + length
    # repr's rule: the exponent notation outside 1e-4 <= |x| < 1e16
    sci = (point < -3) | (point > 16)
    whole = point + sci * (1 - point)
    fraction = length - whole
    powers = _POW10[:19].view(np.int64)
    down = powers[np.clip(fraction, 0, 18)]
    high = digits // down
    cells[_INT, i] = high * powers[np.clip(-fraction, 0, 18)]
    cells[_INT_LEN, i] = np.maximum(whole, 1)
    cells[_FRAC, i] = digits - high * down
    cells[_FRAC_LEN, i] = np.maximum(fraction, 1 - sci)
    cells[_EXP, i] = sci * (point + 324)
    return cells


def _lengths(values: np.ndarray) -> np.ndarray:
    """The decimal digit counts of int64 or uint64 values, none negative."""
    powers = _POW10[1:]
    if values.dtype != np.uint64:
        powers = powers[:18].view(np.int64)
    return np.searchsorted(powers, values, side="right") + 1


def _int_cells(values: np.ndarray) -> np.ndarray:
    """The (6, n) cell fields of n int64 values: a sign and the decimal
    digits."""
    cells = np.zeros((6, len(values)), dtype=np.int64)
    cells[_NEG] = values < 0
    # -(-2^63) wraps to -2^63, whose bits read as uint64 are 2^63
    magnitude = np.where(values < 0, -values, values).view(np.uint64)
    cells[_INT] = magnitude.view(np.int64)
    cells[_INT_LEN] = _lengths(magnitude)
    return cells


class _Renderer:
    """Renders blocks of a table of finite float64 and int64 columns."""

    def __init__(self, rows: Table, pre: list):
        self.width, self.columns = rows.width, rows.columns
        # the table column where each column starts
        self.firsts = list(accumulate((c.shape[1] for c in self.columns),
                                      initial=0))
        pre = [p.encode() for p in pre]
        pre_len = np.array([len(p) for p in pre])
        size = pre_len.max()
        self.pre_shown = np.arange(size) >= size - pre_len[:, None]
        self.pre = np.zeros(self.pre_shown.shape, np.uint8)
        self.pre[self.pre_shown] = np.frombuffer(b"".join(pre), np.uint8)

    def blocks(self, count: int):
        """The (rows, columns) slices of the blocks of a table of count rows,
        in order: runs of whole rows of about BLOCK_CELLS cells, or where a
        row is wider, equal pieces of one row of about that many."""
        step = max(1, round(BLOCK_CELLS / self.width))
        piece = -(-self.width // max(1, round(self.width / BLOCK_CELLS)))
        for first_row in range(0, count, step):
            rows = slice(first_row, min(first_row + step, count))
            for first in range(0, self.width, piece):
                yield rows, slice(first, min(first + piece, self.width))

    def _layout(self, cells: np.ndarray) -> list:
        """The sizes of the fields of cells (6, ...) cell fields: the text
        before the cell, a sign, an integer part, a point, a fraction part
        and an exponent."""
        return [self.pre.shape[1], int(cells[_NEG].any()),
                int(cells[_INT_LEN].max(initial=0)),
                int(cells[_FRAC_LEN].any()),
                int(cells[_FRAC_LEN].max(initial=0)),
                int(_exponents()[1][cells[_EXP]].max(initial=0))]

    def _fill(self, cells: np.ndarray, sizes: list, first: int,
              slab: np.ndarray, shown: np.ndarray):
        """Lay out cells (6, ...) cell fields, each after the text before its
        table column (first, ...), in slab (..., sum(sizes)), and mark in
        shown the bytes of their texts."""
        bounds = np.cumsum([0] + sizes).tolist()
        pre, neg, whole, point, fraction, suffix = (
            (slab[..., a:b], shown[..., a:b])
            for a, b in zip(bounds, bounds[1:]))

        def digits(field, values, length):
            size = field[0].shape[-1]
            if size:
                field[0][:] = _digits(values.view(np.uint64), size)
                field[1][:] = np.take(_shown(size, last=True), length, axis=0)

        width = cells.shape[-1]
        pre[0][:] = self.pre[first:first + width]
        pre[1][:] = self.pre_shown[first:first + width]
        neg[0][:] = ord("-")
        np.not_equal(cells[_NEG, ..., None], 0, out=neg[1])
        digits(whole, cells[_INT], cells[_INT_LEN])
        point[0][:] = ord(".")
        np.greater(cells[_FRAC_LEN, ..., None], 0, out=point[1])
        digits(fraction, cells[_FRAC], cells[_FRAC_LEN])
        size = suffix[0].shape[-1]
        if size:
            texts, lengths = _exponents()
            index = cells[_EXP]
            text = np.take(texts, index).view(np.uint8)
            suffix[0][:] = text.reshape(index.shape + (-1,))[..., :size]
            suffix[1][:] = np.take(_shown(size, last=False), lengths[index],
                                   axis=0)

    def render(self, rows: slice, columns: slice) -> np.ndarray:
        """The bytes of a block, the table columns `columns` of a run of
        rows, each cell's text after its `pre`. The block is laid out as a
        (rows, cells, bytes) array, every cell in the same fields, with a
        mask of the bytes that show."""
        lo, hi = columns.start, columns.stop
        pieces = [column[rows, max(lo - first, 0):max(hi - first, 0)]
                  for first, column in zip(self.firsts, self.columns)]
        # the cell fields of each run of adjacent pieces of one dtype
        runs = [np.concatenate(list(run), axis=1) for _, run in groupby(
            (piece for piece in pieces if piece.size), lambda p: p.dtype)]
        cells = np.concatenate([
            (_float_cells if v.dtype == np.float64 else _int_cells)(
                v.ravel()).reshape((6,) + v.shape) for v in runs], axis=-1)
        sizes = self._layout(cells)
        slab = np.empty(cells.shape[1:] + (sum(sizes),), np.uint8)
        shown = np.empty(slab.shape, bool)
        self._fill(cells, sizes, lo, slab, shown)
        return slab[shown]


# --------------------------------------------------------------------------
# the writers


def _pre(header: list, fmt: str) -> list:
    """The text written before each cell of a row: in CSV, a newline before
    the first and a comma before the others; in JSON, the end of the row
    before, then each key of header, quoted."""
    if fmt == "csv":
        return ["\n"] + [","] * (len(header) - 1)
    keys = map(encode_basestring_ascii, header)
    return ([f"\n  }},\n  {{\n    {next(keys)}: "]
            + [f",\n    {key}: " for key in keys])


def _splice_rows(out, rows: Table, fmt: str, pre: list, skip: int):
    """Write every row as _write_rows does, as the text of the zero row (the
    row of all-zero-bit cells, made once) with the texts of the row's other
    cells, each from _fmt_cell, in place of its own."""
    zeros = [text for column in rows.columns
             for text in [_fmt_cell(column.dtype.type(0).item())]
             * column.shape[1]]
    zero_row = memoryview("".join(chain.from_iterable(zip(pre, zeros)))
                          .encode())
    # where each cell's text starts and ends in the zero row
    pre_len, zero_len = (np.fromiter(map(len, texts), np.int64, rows.width)
                         for texts in (pre, zeros))
    ends = np.cumsum(pre_len + zero_len)
    starts = ends - zero_len
    firsts = list(accumulate((c.shape[1] for c in rows.columns), initial=0))
    step = max(1, CHUNK_CELLS // rows.width)
    for first_row in range(0, len(rows), step):
        chunk = slice(first_row, min(first_row + step, len(rows)))
        # the cells outside the zero row, column by column: their places in
        # the chunk and their texts
        places, texts = [], []
        for first, column in zip(firsts, rows.columns):
            values = column[chunk].ravel()
            i = np.flatnonzero(values.view(np.uint64))
            row, col = np.divmod(i, column.shape[1])
            places.append(row * rows.width + first + col)
            texts += map(str.encode, map(_fmt_cell, values[i].tolist(),
                                         repeat(fmt)))
        places = np.concatenate(places)
        order = np.argsort(places)
        row, col = np.divmod(places[order], rows.width)
        # each row's cells, in order: a text and where the text it replaces
        # starts and ends in the zero row
        cells = zip([texts[k] for k in order.tolist()], starts[col].tolist(),
                    ends[col].tolist())
        counts = np.bincount(row, minlength=chunk.stop - first_row)
        pieces = []
        for count in counts.tolist():
            last = 0
            for text, start, end in islice(cells, count):
                pieces += zero_row[last:start], text
                last = end
            pieces.append(zero_row[last:])
        pieces[0] = pieces[0][skip:]
        skip = 0
        out.writelines(pieces)


def _write_rows(out, rows: Table, fmt: str, pre: list):
    """Write every row: CSV lines, each after a newline, or JSON row objects
    without their closing brace, joined by that brace and ",\\n"; pre is
    _pre's text before each cell."""
    # the first JSON row closes no row before it
    skip = 0 if fmt == "csv" else len("\n  },\n")
    if rows.float_cells() >= RENDER_FLOATS and all(
            not isinstance(column, Coded)
            and column.dtype in (np.float64, np.int64)
            for column in rows.columns):
        outside = sum(int(np.count_nonzero(column.view(np.uint64)))
                      for column in rows.columns)
        if outside * SPLICE_SHARE < len(rows) * rows.width:
            _splice_rows(out, rows, fmt, pre, skip)
            return
        if all(np.isfinite(column).all() for column in rows.columns):
            renderer = _Renderer(rows, pre)
            del pre  # the renderer holds its own copy
            for block in renderer.blocks(len(rows)):
                out.write(memoryview(renderer.render(*block))[skip:])
                skip = 0
            return
    if fmt == "csv":
        for chunk in rows.chunks(fmt):
            out.write(("\n" + "\n".join(map(",".join, chunk))).encode())
        return
    row = "".join(text.replace("%", "%%") + "%s" for text in pre)
    for chunk in rows.chunks(fmt):
        out.write(memoryview("".join(map(row.__mod__, chunk)).encode())[skip:])
        skip = 0


def write_table(out_dir: Path, stem: str, header: list, rows: Table,
                fmt: str) -> str:
    """Write one tabular artifact; returns the file name. CSV has a header
    line and one line per row; JSON is the indent=2 layout of a list of flat
    row objects, as json.dumps(indent=2) would write it."""
    name = f"{stem}.{fmt}"
    with (out_dir / name).open("wb") as out:
        if fmt == "csv":
            out.write(",".join(header).encode())
            _write_rows(out, rows, fmt, _pre(header, fmt))
            out.write(b"\n")
        elif len(rows):
            out.write(b"[\n")
            _write_rows(out, rows, fmt, _pre(header, fmt))
            out.write(b"\n  }\n]\n")
        else:
            out.write(b"[]\n")
    return name


def write_json(out_dir: Path, stem: str, payload: dict) -> str:
    name = f"{stem}.json"

    def sanitize(obj):
        if isinstance(obj, dict):
            return {k: sanitize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [sanitize(v) for v in obj]
        if isinstance(obj, (float, np.floating)):
            return float(obj) if math.isfinite(obj) else None
        return obj.item() if isinstance(obj, np.generic) else obj

    (out_dir / name).write_text(
        json.dumps(sanitize(payload), indent=2, sort_keys=True) + "\n")
    return name
