"""CSV ingestion, random-walk forecast construction, and serialization of
test results and confidence-set grids to JSON, CSV and SVG.

Output is deterministic: no timestamps, fixed key order, data CSV floats at
17 significant digits (lossless round trip) and SVG coordinates at 6.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from pathlib import Path

import numpy as np

from .central_tendency import (
    DEFAULT_ALPHA_LEVELS,
    ConfidenceSetGrid,
    _check_alpha_levels,
    _lattice,
    _member_header,
    _theta_array,
)
from .errors import MissingColumnError, check_integer
from .identification import ForecastDataset
from .numerics import chi_square_quantile, chi_square_sf
from .rationality import TestResult

SCHEMA_VERSION = 1

REALIZATION_COLUMN = "y"
FORECAST_COLUMN = "x"
PRICE_COLUMN = "price"

# Input CSVs are UTF-8; "-sig" drops a leading byte-order mark, as Excel
# writes one. The line count reads the file in chunks of this many characters.
_ENCODING = "utf-8-sig"
_BOM = b"\xef\xbb\xbf"
_CHUNK_CHARS = 1 << 16
# np.loadtxt opens a file whose name ends in one of these as compressed.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

# Figure shading: member of the tightest (largest-alpha) set, member of some
# set only, outside every set.
_SVG_SHADES = ("#000000", "#808080", "#d3d3d3")


def _fmt_data(x: float) -> str:
    return f"{x:.17g}"


def _fmt_svg(x: float) -> str:
    return f"{x:.6g}"


# Labels are parsed as float64, which holds every integer below 2**53 in
# magnitude exactly; at and above it distinct labels can parse equal.
_LABEL_LIMIT = 2.0 ** 53


def _integral(labels: np.ndarray) -> np.ndarray:
    """Which labels are integers below 2**53 in magnitude (NaN and inf are
    not)."""
    return (labels == np.trunc(labels)) & (np.abs(labels) < _LABEL_LIMIT)


def _strict_float(cell: str) -> float | None:
    """float(cell), refused where loadtxt's C parser refuses it: non-ASCII
    digits and "_" digit separators. None when the cell is not a number."""
    if not cell.isascii() or "_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _records(rows, start: int):
    """The csv records of ``rows``, numbered from ``start``. A record that
    csv cannot read (a field above its size limit, say) raises a ValueError
    naming its row."""
    number = start - 1
    try:
        for number, row in enumerate(rows, start):
            yield number, row
    except csv.Error as exc:
        raise ValueError(f"row {number + 1} is not valid CSV: {exc}") from None


def _undecodable(path, data: bytes) -> ValueError:
    """The fault of a file that is not UTF-8: its first undecodable byte,
    by its row and its offset in the file."""
    start = len(_BOM) if data.startswith(_BOM) else 0
    try:
        data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = start + exc.start
        # the record count of the text before the byte, with a stand-in for
        # it, so that a byte at the start of a line opens its row
        text = io.StringIO(data[start:offset].decode("utf-8") + "?", newline=None)
        row = max(n for n, _ in _records(csv.reader(text), 1))
        return ValueError(f"{path}: row {row} is not UTF-8: byte 0x{data[offset]:02x} "
                          f"at offset {offset} of the file ({exc.reason})")
    return ValueError(f"{path} changed while it was read")


def _find_fault(rows, header, index, label_column) -> int:
    """Walk the data rows and raise the first fault, naming its row and
    column: a row csv cannot read, a short or blank row, a non-numeric cell,
    then a non-integer label. Return the number of rows when there is
    none."""
    labels, label_cells = [], []
    row_number = 1
    for row_number, row in _records(rows, 2):
        for name, j in index.items():
            if j >= len(row):
                raise ValueError(
                    f"row {row_number} has {len(row)} of {len(header)} fields; "
                    f"column {name!r} is missing"
                )
            cell = row[j].strip()
            value = _strict_float(cell)
            if value is None:
                raise ValueError(
                    f"non-numeric value {cell!r} at row {row_number}, column {name!r}"
                )
            if name == label_column:
                labels.append(value)
                label_cells.append(cell)
    if label_column is not None:
        labels = np.array(labels)
        integral = _integral(labels)
        if not integral.all():
            r = int(np.argmin(integral))
            where = (f"cluster label {label_cells[r]!r} at row {r + 2}, "
                     f"column {label_column!r}")
            if np.isfinite(labels[r]) and labels[r] == np.trunc(labels[r]):
                raise ValueError(f"{where} is not below 2**53 in magnitude, "
                                 "so it cannot be read exactly")
            raise ValueError(f"{where} is not an integer")
    return row_number - 1


def _scan_lines(stream) -> tuple[int, bool]:
    """The number of lines left in a text stream, a last one without a line
    break included, and whether any of them holds more than whitespace; the
    stream is read in fixed-size chunks."""
    n_lines, data, last = 0, False, "\n"
    while chunk := stream.read(_CHUNK_CHARS):
        n_lines += chunk.count("\n")
        data = data or not chunk.isspace()
        last = chunk[-1]
    return n_lines + (last != "\n"), data


def _read_columns(path, names, label_column: str | None = None) -> dict:
    """Parse the named numeric columns of a headered CSV into float arrays.

    The file is decoded as UTF-8, past a byte-order mark if it starts with
    one. The header is read with ``csv`` and one streamed pass counts the
    data lines; ``np.loadtxt`` then reads the file by name, in chunks, and
    parses the needed columns of every data line, so the load holds about
    its returned arrays, not the file's text. A pipe, or a file named like a
    compressed one, is held as text once instead. Cells may be quoted with
    ``"`` and padded with whitespace, and must be ASCII decimal numbers. A
    ``label_column``, if given, is parsed too and must hold integers below
    2**53 in magnitude, which float64 holds exactly. An empty file, a
    missing column, a needed column that the header names twice, a short or
    blank row, a non-numeric cell or a label that is not such an integer
    raises ``MissingColumnError`` or a ``ValueError`` naming the row and
    column, found by a walk over the rows that reads the file again only
    when loadtxt fails, its row count is not the line count, or a label is
    not such an integer. Bytes that are not UTF-8, and a record that ``csv``
    cannot read, raise a ValueError naming the row, and for the bytes their
    offset in the file.
    """
    path = Path(path)
    # loadtxt and the walk open the file again by name. That reads the same
    # text only from a regular file that numpy's opener does not take for a
    # compressed one by its suffix; other input is read here once and held.
    reopen = (stat.S_ISREG(path.stat().st_mode)
              and os.path.splitext(path)[1] not in _COMPRESSED_SUFFIXES)
    held = None if reopen else path.read_bytes()
    try:
        with (path.open(encoding=_ENCODING) if reopen
              else io.StringIO(held.decode(_ENCODING), newline=None)) as handle:
            rows = csv.reader(handle)
            try:
                header = [name.strip() for name in next(rows)]
            except StopIteration:
                raise ValueError(f"{path} is empty") from None
            except csv.Error as exc:
                raise ValueError(f"row 1 is not valid CSV: {exc}") from None
            body = None if reopen else handle.read()
            n_lines, data = _scan_lines(handle if body is None else io.StringIO(body))
    except UnicodeDecodeError:
        raise _undecodable(path, path.read_bytes() if reopen else held) from None
    del held  # a held input lives on as its text, body
    wanted = [*names] if label_column is None else [*names, label_column]
    for name in wanted:
        if name not in header:
            raise MissingColumnError(name)
        if header.count(name) > 1:
            raise ValueError(f"{path}: the header names column {name!r} "
                             f"{header.count(name)} times")
    index = {name: header.index(name) for name in wanted}

    table = np.empty((0, len(index)))
    if data:  # loadtxt warns when it finds no data
        try:
            table = np.loadtxt(
                path if body is None else io.StringIO(body),
                skiprows=rows.line_num if body is None else 0,
                encoding=_ENCODING, delimiter=",", quotechar='"', comments=None,
                usecols=list(index.values()), ndmin=2,
            )
        except ValueError:
            table = None
    # loadtxt skips blank lines and keeps a quoted line break inside its row,
    # so when its row count is not the line count the walk decides.
    if (
        table is None
        or len(table) != n_lines
        or (label_column is not None
            and not _integral(table[:, list(index).index(label_column)]).all())
    ):
        if body is None:
            with path.open(encoding=_ENCODING) as handle:
                rows = csv.reader(handle)
                next(rows)
                n_rows = _find_fault(rows, header, index, label_column)
        else:
            n_rows = _find_fault(csv.reader(io.StringIO(body)), header, index,
                                 label_column)
        if table is None or len(table) != n_rows:
            raise ValueError(f"{path}: the data rows could not be parsed")
    return dict(zip(index, np.ascontiguousarray(table.T)))


def load_csv(
    path,
    instrument_columns,
    cluster_column: str | None = None,
    with_const: bool = False,
) -> ForecastDataset:
    """Read a forecast dataset from a headered CSV.

    The file must contain numeric columns ``y`` (realizations) and ``x``
    (forecasts) plus the named instrument columns; ``with_const`` synthesizes
    a constant instrument named ``const`` in front of them. Short rows, parse
    failures and non-integer cluster labels raise ValueError naming the
    offending row and column.
    """
    instrument_columns = list(instrument_columns)
    columns = _read_columns(
        path,
        [REALIZATION_COLUMN, FORECAST_COLUMN, *instrument_columns],
        label_column=cluster_column,
    )
    n_rows = len(columns[REALIZATION_COLUMN])
    if n_rows < 2:
        raise ValueError(f"{Path(path)} has {n_rows} data rows; need at least 2")

    instruments = [columns[name] for name in instrument_columns]
    if with_const:
        instruments.insert(0, np.ones(n_rows))
    if not instruments:
        raise ValueError(
            "no instruments selected; pass instrument columns or with_const"
        )
    clusters = None
    if cluster_column is not None:
        clusters = columns[cluster_column].astype(np.int64)
    return ForecastDataset(
        realizations=columns[REALIZATION_COLUMN],
        forecasts=columns[FORECAST_COLUMN],
        instruments=np.column_stack(instruments),
        cluster_labels=clusters,
    )


def load_prices(path) -> np.ndarray:
    """Read the ``price`` column of a headered CSV, for random_walk_forecasts."""
    return _read_columns(path, [PRICE_COLUMN])[PRICE_COLUMN]


def write_dataset_csv(dataset: ForecastDataset, path, instrument_names=None) -> None:
    """Write a dataset back out in the format load_csv reads."""
    path = Path(path)
    k = dataset.n_instruments
    if instrument_names is None:
        instrument_names = [f"h{i + 1}" for i in range(k)]
    if len(instrument_names) != k:
        raise ValueError(f"need {k} instrument names, got {len(instrument_names)}")
    header = [REALIZATION_COLUMN, FORECAST_COLUMN, *instrument_names]
    if dataset.cluster_labels is not None:
        header.append("cluster")
    lines = [",".join(header)]
    for t in range(dataset.n_obs):
        cells = [
            _fmt_data(dataset.realizations[t]),
            _fmt_data(dataset.forecasts[t]),
            *(_fmt_data(v) for v in dataset.instruments[t]),
        ]
        if dataset.cluster_labels is not None:
            cells.append(str(int(dataset.cluster_labels[t])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_walk_forecasts(prices) -> ForecastDataset:
    """Dataset testing the lagged level as a forecast of the next level.

    Prices p_1..p_n become T = n-1 pairs X_t = p_t, Y_{t+1} = p_{t+1} with
    default instruments (1, X_t).
    """
    p = np.asarray(prices, dtype=float)
    if p.size < 3:
        raise ValueError(f"need at least 3 prices, got {p.size}")
    x = p[:-1]
    y = p[1:]
    return ForecastDataset(
        realizations=y,
        forecasts=x,
        instruments=np.column_stack([np.ones(x.size), x]),
    )


def test_result_to_dict(result: TestResult, alpha_levels=DEFAULT_ALPHA_LEVELS) -> dict:
    _check_alpha_levels(alpha_levels)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "rationality_test",
        "functional": result.functional.value,
        "statistic": result.statistic,
        "df": result.df,
        "p_value": result.p_value,
        "bandwidth": result.bandwidth,
        "reject_at": {f"{a:g}": bool(result.reject_at(a)) for a in alpha_levels},
    }


_INF = float("inf")


def _json_number(x) -> str:
    """A number as json.dumps writes it, with NaN as null."""
    if x != x:
        return "null"
    return float.__repr__(x) if type(x) is float and -_INF < x < _INF else json.dumps(x)


def _json_numbers(column: np.ndarray) -> list[str]:
    """A float column's numbers as json.dumps writes them, NaN as null."""
    text = list(map(float.__repr__, column.tolist()))
    for n in np.flatnonzero(~np.isfinite(column)).tolist():
        text[n] = _json_number(column[n].item())
    return text


def _distinct_text(values: np.ndarray, fmt) -> list[str]:
    """``fmt`` of every entry of a float array, in C order, each distinct
    value (bit for bit, so -0.0 apart from 0.0) formatted once: a lattice's
    coordinates are the m + 1 values k/m."""
    bits, inverse = np.unique(np.ascontiguousarray(values).view(np.int64).ravel(),
                              return_inverse=True)
    text = list(map(fmt, bits.view(np.float64).tolist()))
    return list(map(text.__getitem__, inverse.tolist()))


def _notes_text(grid: ConfidenceSetGrid, fmt, blank: str) -> list[str]:
    """One cell per point: ``fmt`` of its note, or ``blank``."""
    cells = [blank] * len(grid.objective)
    for n, note in grid.notes.items():
        cells[n] = fmt(note)
    return cells


def grid_to_json(grid: ConfidenceSetGrid) -> str:
    """The scan as a JSON document, laid out as json.dumps(..., indent=2,
    sort_keys=True) lays it out, with NaN objectives and p-values as null.

    The points are written through one fixed template, filled from the
    grid's columns; the top-level fields go through json.dumps.
    """
    members = sorted((f"{a:g}", n) for n, a in enumerate(grid.alpha_levels))
    slots = ",\n".join(f"        {json.dumps(key)}: {{}}" for key, _ in members)
    point = (
        '    {{\n      "index": [\n        {},\n        {}\n      ],\n'
        '      "member": {{\n' + slots + '\n      }},\n'
        '      "note": {},\n      "objective": {},\n      "p_value": {},\n'
        '      "theta": [\n        {},\n        {},\n        {}\n      ]\n    }}'
    ).format
    flags = grid.member[[n for _, n in members]].tolist()
    theta = _distinct_text(grid.theta, float.__repr__)
    body = ",\n".join(map(
        point, grid.index[:, 0].tolist(), grid.index[:, 1].tolist(),
        *(map(("false", "true").__getitem__, row) for row in flags),
        _notes_text(grid, json.dumps, "null"),
        _json_numbers(grid.objective), _json_numbers(grid.p_value),
        theta[0::3], theta[1::3], theta[2::3]))
    head = json.dumps({
        "schema": SCHEMA_VERSION,
        "kind": "confidence_set",
        "resolution": grid.resolution,
        "alpha_levels": list(grid.alpha_levels),
        "bandwidth": grid.bandwidth,
        "df": grid.df,
        "n_obs": grid.n_obs,
        "points": [],
    }, indent=2, sort_keys=True)
    points = "[\n" + body + "\n  ]" if len(grid.objective) else "[]"
    return head.replace('"points": []', f'"points": {points}', 1) + "\n"


def _field(mapping, key: str, where: str, kind: type = object):
    """``mapping[key]``, of type ``kind``; a ValueError names the missing key
    or the wrong type."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ValueError(f"{where} has no {key!r} field")
    if not isinstance(mapping[key], kind):
        raise ValueError(f"{where} field {key!r} must be a {kind.__name__}, "
                         f"got {type(mapping[key]).__name__}")
    return mapping[key]


def _number(mapping, key: str, where: str, null: bool = True) -> float:
    """A number field, where ``null`` allows a null that stands for NaN; a
    bool is not a number."""
    value = _field(mapping, key, where)
    if value is None and null:
        return float("nan")
    if type(value) not in (int, float):
        raise ValueError(f"{where} field {key!r} must be a number"
                         f"{' or null' if null else ''}, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{where} field {key!r}: {exc}") from None


def _integer(mapping, key: str, where: str) -> int:
    """An integer field; a bool is not an integer."""
    return check_integer(_field(mapping, key, where), f"{where} field {key!r}")


def grid_from_dict(payload: dict) -> ConfidenceSetGrid:
    """Inverse of grid_to_json (after json.loads), for re-plotting stored
    scans. A malformed document raises ValueError naming the missing field
    or the wrong type, and so does one that contradicts itself (see
    _check_scan)."""
    if _field(payload, "kind", "document") != "confidence_set":
        raise ValueError("payload is not a confidence_set document")
    alpha_levels = _field(payload, "alpha_levels", "document", list)
    if not alpha_levels or not all(type(a) in (int, float) and 0.0 < a < 1.0
                                   for a in alpha_levels):
        raise ValueError("document field 'alpha_levels' must hold numbers in (0, 1), "
                         f"got {json.dumps(alpha_levels)}")
    alpha_levels = _check_alpha_levels(float(a) for a in alpha_levels)
    labels = [f"{a:g}" for a in alpha_levels]
    indexes, thetas, objectives, p_values, flags, notes = [], [], [], [], [], {}
    for i, entry in enumerate(_field(payload, "points", "document", list)):
        where = f"point {i}"
        index = _field(entry, "index", where, list)
        if len(index) != 2 or not all(type(v) is int for v in index):
            raise ValueError(f"{where} field 'index' must hold two integers, "
                             f"got {json.dumps(index)}")
        note = entry.get("note")
        if note is not None and not isinstance(note, str):
            raise ValueError(f"{where} field 'note' must be a string or null, "
                             f"got {type(note).__name__}")
        theta = _field(entry, "theta", where, list)
        if len(theta) != 3 or not all(type(v) in (int, float) for v in theta):
            raise ValueError(f"{where} field 'theta' must hold three numbers, "
                             f"got {json.dumps(theta)}")
        try:
            thetas.append(_theta_array(theta))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{where} field 'theta': {exc}") from None
        member = _field(entry, "member", where)
        indexes.append(index)
        objectives.append(_number(entry, "objective", where))
        p_values.append(_number(entry, "p_value", where))
        flags.append([_field(member, label, f"{where} member", bool) for label in labels])
        if note is not None:
            notes[i] = note
    grid = ConfidenceSetGrid(
        resolution=_integer(payload, "resolution", "document"),
        alpha_levels=alpha_levels,
        bandwidth=_number(payload, "bandwidth", "document", null=False),
        df=_integer(payload, "df", "document"),
        n_obs=_integer(payload, "n_obs", "document"),
        # an integer beyond int64 makes an object column, which _check_scan
        # reports as off the lattice
        index=np.array(indexes).reshape(-1, 2),
        theta=np.array(thetas).reshape(-1, 3),
        objective=np.array(objectives),
        p_value=np.array(p_values),
        member=np.array(flags, dtype=bool).reshape(-1, len(labels)).T,
        notes=notes,
    )
    _check_scan(grid)
    return grid


def _check_scan(grid: ConfidenceSetGrid) -> None:
    """Raise ValueError unless the header holds what confidence_set writes
    (resolution and df >= 1, df within the float range, n_obs >= 2, df below
    n_obs, a positive finite bandwidth), the points are the resolution's
    lattice (central_tendency._lattice), index and theta, in its order, and
    every member flag and p-value is what confidence_set sets: member when
    objective <= Q_df(1 - alpha), false for a NaN objective; the p-value null
    exactly when the objective is, and else chi_square_sf(df, objective) up
    to a relative 1e-12 * max(1, objective), the slack for another platform's
    libm and for scans from earlier versions, whose tail was scipy's
    gammaincc. df is the instrument count k, which confidence_set keeps below
    n_obs; the bound also caps the O(df) cost of the tail. The columns are
    compared whole; the message names the first offending point, and of its
    faults the first in the order above."""
    m = grid.resolution
    if m < 1:
        raise ValueError(f"document field 'resolution' must be >= 1, got {m}")
    if grid.df < 1:
        raise ValueError(f"document field 'df' must be >= 1, got {grid.df}")
    try:
        float(grid.df)  # the chi-square functions take df / 2 as a float
    except OverflowError as exc:
        raise ValueError(f"document field 'df': {exc}") from None
    if grid.n_obs < 2:
        raise ValueError(f"document field 'n_obs' must be >= 2, got {grid.n_obs}")
    if grid.df >= grid.n_obs:
        raise ValueError(f"document field 'df' must be below n_obs = {grid.n_obs}, "
                         f"got {grid.df}")
    if not 0.0 < grid.bandwidth < np.inf:  # NaN fails too
        raise ValueError("document field 'bandwidth' must be positive and finite, "
                         f"got {grid.bandwidth!r}")
    size = (m + 1) * (m + 2) // 2
    objective, p_value = grid.objective, grid.p_value
    if len(objective) != size:
        raise ValueError(f"document holds {len(objective)} points, but the "
                         f"resolution-{m} lattice has {size}")
    i, j, rows = _lattice(m)
    quantiles = [chi_square_quantile(grid.df, 1.0 - a) for a in grid.alpha_levels]
    negative = np.flatnonzero(objective < 0.0)
    if negative.size:
        n = int(negative[0])
        raise ValueError(f"point {n} field 'objective' must be >= 0, "
                         f"got {objective[n].item()!r}")
    tails = chi_square_sf(grid.df, objective)
    # no slack when the tail is 0 (an infinite objective) or NaN
    slack = np.zeros(size)
    scored = tails > 0.0
    slack[scored] = 1e-12 * np.maximum(1.0, objective[scored]) * tails[scored]
    faults = (
        (grid.index != np.column_stack([i, j])).any(axis=1)
        | (grid.theta != rows).any(axis=1)
        | (grid.member != (objective <= np.array(quantiles)[:, None])).any(axis=0)
        | (np.isnan(objective) != np.isnan(p_value))
        | (np.abs(p_value - tails) > slack)
    )
    if not faults.any():
        return
    n = int(np.argmax(faults))
    index, lattice_index = grid.index[n].tolist(), [i[n].item(), j[n].item()]
    if index != lattice_index:
        raise ValueError(f"point {n} field 'index' is {json.dumps(index)}, but "
                         f"point {n} of the lattice is {json.dumps(lattice_index)}")
    theta, row = grid.theta[n].tolist(), rows[n].tolist()
    if theta != row:
        raise ValueError(f"point {n} field 'theta' is {json.dumps(theta)}, but "
                         f"point {n} of the lattice is {json.dumps(row)}")
    s, p, tail = objective[n].item(), p_value[n].item(), tails[n].item()
    for a, q, flag in zip(grid.alpha_levels, quantiles, grid.member[:, n].tolist()):
        if flag != (s <= q):
            raise ValueError(
                f"point {n} member field '{a:g}' is {json.dumps(flag)}, "
                f"but objective {s!r} <= quantile {q!r} is {json.dumps(not flag)}")
    if (s != s) != (p != p):
        raise ValueError(f"point {n} field 'p_value' is {_json_number(p)}, "
                         f"but its objective is {_json_number(s)}")
    raise ValueError(f"point {n} field 'p_value' is {p!r}, but the chi-square "
                     f"tail of its objective {s!r} at df = {grid.df} is {tail!r}")


def report_to_dict(report) -> dict:
    """JSON form of a SimulationReport."""
    config = report.config
    return {
        "schema": SCHEMA_VERSION,
        "kind": f"{report.kind}_experiment",
        "config": {
            "dgp": config.dgp.value,
            "skewness": config.skewness,
            "n_obs": config.n_obs,
            "seed": config.seed,
            "burn_in": config.burn_in,
        },
        "instrument_set": int(report.instrument_set),
        "replications": report.replications,
        "successes": report.successes,
        "rate": report.rate,
        "mc_standard_error": report.mc_standard_error,
        "nominal_level": report.nominal_level,
        "failures": dict(report.failures),
        "details": report.details,
    }


def grid_to_csv(grid: ConfidenceSetGrid) -> str:
    header = [
        "theta_mean", "theta_median", "theta_mode", "objective", "p_value",
        *(_member_header(a) for a in grid.alpha_levels),
        "note",
    ]
    row = ",".join(["{}"] * len(header)).format
    theta = _distinct_text(grid.theta, _fmt_data)
    lines = [",".join(header), *map(
        row, theta[0::3], theta[1::3], theta[2::3],
        map(_fmt_data, grid.objective.tolist()), map(_fmt_data, grid.p_value.tolist()),
        *(map(("0", "1").__getitem__, flags) for flags in grid.member.tolist()),
        _notes_text(grid, _csv_field, ""))]
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted by csv's QUOTE_MINIMAL rules: a
    note holding a comma, a quote or a line break stays one field."""
    line = io.StringIO()
    csv.writer(line).writerow([text])
    return line.getvalue()[:-2]  # the writer's "\r\n" line end


def _triangle_vertices() -> dict[str, tuple[float, float]]:
    # Mean lower-left, Median apex, Mode lower-right; side 500 px.
    side = 500.0
    x0, y0 = 70.0, 540.0
    return {
        "mean": (x0, y0),
        "median": (x0 + side / 2.0, y0 - side * np.sqrt(3.0) / 2.0),
        "mode": (x0 + side, y0),
    }


def grid_to_svg(grid: ConfidenceSetGrid) -> str:
    """Ternary diagram: black inside the tightest set, grey inside a looser
    one, light grey outside all of them."""
    verts = _triangle_vertices()
    by_threshold = sorted(grid.alpha_levels, reverse=True)  # tightest first
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="640" height="600" viewBox="0 0 640 600">',
        '<rect width="640" height="600" fill="#ffffff"/>',
        '<polygon points="{} {},{} {},{} {}" fill="none" stroke="#000000" '
        'stroke-width="1"/>'.format(
            _fmt_svg(verts["mean"][0]), _fmt_svg(verts["mean"][1]),
            _fmt_svg(verts["median"][0]), _fmt_svg(verts["median"][1]),
            _fmt_svg(verts["mode"][0]), _fmt_svg(verts["mode"][1]),
        ),
        f'<text x="{_fmt_svg(verts["mean"][0] - 20)}" '
        f'y="{_fmt_svg(verts["mean"][1] + 25)}" font-family="sans-serif" '
        'font-size="16">Mean</text>',
        f'<text x="{_fmt_svg(verts["median"][0] - 28)}" '
        f'y="{_fmt_svg(verts["median"][1] - 12)}" font-family="sans-serif" '
        'font-size="16">Median</text>',
        f'<text x="{_fmt_svg(verts["mode"][0] - 20)}" '
        f'y="{_fmt_svg(verts["mode"][1] + 25)}" font-family="sans-serif" '
        'font-size="16">Mode</text>',
    ]
    # the weighted sum of the vertices, added in the order mean, median, mode
    mean, median, mode = grid.theta.T
    px = mean * verts["mean"][0] + median * verts["median"][0] + mode * verts["mode"][0]
    py = mean * verts["mean"][1] + median * verts["median"][1] + mode * verts["mode"][1]
    tightest, *looser = (grid.alpha_levels.index(a) for a in by_threshold)
    shade = np.where(grid.member[tightest], 0,
                     np.where(grid.member[looser].any(axis=0), 1, 2))
    parts.extend(map('<circle cx="{}" cy="{}" r="3" fill="{}"/>'.format,
                     map(_fmt_svg, px.tolist()), map(_fmt_svg, py.tolist()),
                     map(_SVG_SHADES.__getitem__, shade.tolist())))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_confidence_set(
    grid: ConfidenceSetGrid,
    json_path=None,
    csv_path=None,
    svg_path=None,
) -> None:
    """Write the requested serializations of a scanned grid."""
    if json_path is not None:
        Path(json_path).write_text(grid_to_json(grid), encoding="utf-8")
    if csv_path is not None:
        Path(csv_path).write_text(grid_to_csv(grid), encoding="utf-8")
    if svg_path is not None:
        Path(svg_path).write_text(grid_to_svg(grid), encoding="utf-8")


def write_json(payload: dict, path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
