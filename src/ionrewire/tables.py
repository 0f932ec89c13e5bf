"""Deterministic artifact writers: tables as CSV or JSON, and JSON payloads.

Every table is formatted in chunks by `Table.chunks`. A table with many
nonzero float cells, whose shortest-repr formatting is most of its cost, is
split by rows between forked workers, one per usable CPU; the parts are
joined in order, so the bytes do not depend on the split.
"""

import io
import json
import math
import os
import shutil
import signal
import tempfile
import warnings
from dataclasses import dataclass
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

# a table with at least this many nonzero float cells is split between
# forked workers, into at most one part per usable CPU, per row and per
# SPLIT_VALUES of those cells (rounded up); 0 splits every table of 2+ rows
SPLIT_VALUES = 2**16


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

    def float_values(self) -> int:
        """The number of float cells whose bits are not all zero: the cells
        that chunks formats one by one with repr."""
        return sum(np.count_nonzero(column.view(f"u{column.itemsize}"))
                   for column in self.columns
                   if not isinstance(column, Coded) and column.dtype.kind == "f")

    def chunks(self, fmt: str, start: int = 0, stop: int | None = None):
        """The rows start to stop as tuples of cell texts (_fmt_cell in
        format fmt), in chunks of consecutive rows with at most CHUNK_CELLS
        cells."""
        stop = len(self) if stop is None else stop
        coded = {i: np.array([_fmt_cell(v, fmt) for v in column.values],
                             dtype=object)
                 for i, column in enumerate(self.columns)
                 if isinstance(column, Coded)}
        step = max(1, CHUNK_CELLS // self.width)
        for first_row in range(start, stop, step):
            rows = slice(first_row, min(first_row + step, stop))
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


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _parts(rows: Table) -> int:
    """How many parts write_table splits the table's rows into."""
    cpus = _usable_cpus()
    if cpus < 2:
        return 1
    values = rows.float_values()
    if values < SPLIT_VALUES:
        return 1
    shares = -(-values // SPLIT_VALUES) if SPLIT_VALUES else len(rows)
    return min(cpus, len(rows), shares)


def _write_part(out, rows: Table, fmt: str, row: str | None, start: int,
                stop: int, lead: str):
    """Write rows start to stop: CSV lines, or JSON row objects (the row
    template filled in) joined by ",\\n", the first one led by `lead`."""
    for chunk in rows.chunks(fmt, start, stop):
        if fmt == "csv":
            out.write("\n".join(map(",".join, chunk)) + "\n")
        else:
            out.write(lead + ",\n".join(map(row.__mod__, chunk)))
            lead = ",\n"


def _fork_part(part, rows: Table, fmt: str, row: str | None, start: int,
               stop: int) -> int:
    """Fork a worker that writes rows start to stop into the file `part`,
    as a JSON part after the first, and exits; returns its pid."""
    with warnings.catch_warnings():
        # Python 3.12+ warns about a fork while other threads (BLAS) run;
        # the worker only formats text and writes its own file
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        with io.TextIOWrapper(part, encoding="utf-8") as text:
            _write_part(text, rows, fmt, row, start, stop, ",\n")
        code = 0
    finally:
        # never return into the caller: no atexit handlers, no flushes
        os._exit(code)


def _write_rows(out, out_dir: Path, name: str, rows: Table, fmt: str,
                row: str | None):
    """Write every row of the table, in _parts parts: the first here, each
    later one by a forked worker into an anonymous file in out_dir, which is
    appended once every worker has exited."""
    parts = _parts(rows)
    if parts < 2:
        _write_part(out, rows, fmt, row, 0, len(rows), "")
        return
    bounds = [len(rows) * k // parts for k in range(parts + 1)]
    # a worker gets a copy of out's buffer, which must hold nothing
    out.flush()
    files, pids = [], []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            files.append(tempfile.TemporaryFile(dir=out_dir))
            pids.append(_fork_part(files[-1], rows, fmt, row, start, stop))
        _write_part(out, rows, fmt, row, 0, bounds[1], "")
        while pids:
            _, status = os.waitpid(pids[0], 0)
            pids.pop(0)
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(f"{name}: a table writer worker failed "
                                   f"(exit status {code})")
        out.flush()
        for part in files:
            part.seek(0)
            shutil.copyfileobj(part, out.buffer)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in files:
            part.close()


def write_table(out_dir: Path, stem: str, header: list, rows: Table,
                fmt: str) -> str:
    """Write one tabular artifact; returns the file name. CSV has a header
    line and one line per row; JSON is the indent=2 layout of a list of flat
    row objects, as json.dumps(indent=2) would write it."""
    name = f"{stem}.{fmt}"
    with (out_dir / name).open("w", encoding="utf-8") as out:
        if fmt == "csv":
            out.write(",".join(header) + "\n")
            _write_rows(out, out_dir, name, rows, fmt, None)
        elif len(rows):
            keys = (encode_basestring_ascii(key).replace("%", "%%")
                    for key in header)
            row = ("  {\n" + ",\n".join(f"    {key}: %s" for key in keys)
                   + "\n  }")
            out.write("[\n")
            _write_rows(out, out_dir, name, rows, fmt, row)
            out.write("\n]\n")
        else:
            out.write("[]\n")
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
