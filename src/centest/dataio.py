"""CSV ingestion, random-walk forecast construction, and serialization of
test results and confidence-set grids to JSON, CSV and SVG.

Output is deterministic: no timestamps, fixed key order, data CSV floats at
17 significant digits (lossless round trip) and SVG coordinates at 6.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .central_tendency import ConfidenceSetGrid
from .errors import MissingColumnError
from .identification import ForecastDataset
from .rationality import TestResult

SCHEMA_VERSION = 1

REALIZATION_COLUMN = "y"
FORECAST_COLUMN = "x"
CONST_COLUMN = "const"
PRICE_COLUMN = "price"

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


def _find_fault(rows, header, index, label_column) -> int:
    """Walk the data rows and raise the first fault, naming its row and
    column: a short or blank row, a non-numeric cell, then a non-integer
    label. Return the number of rows when there is none."""
    labels, label_cells = [], []
    row_number = 1
    for row_number, row in enumerate(rows, start=2):
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


def _read_columns(path, names, label_column: str | None = None) -> dict:
    """Parse the named numeric columns of a headered CSV into float arrays.

    The header is read with ``csv``; the needed columns of every data line
    are parsed in one ``np.loadtxt`` pass. Cells may be quoted with ``"``
    and padded with whitespace, and must be ASCII decimal numbers. A
    ``label_column``, if given, is parsed too and must hold integers below
    2**53 in magnitude, which float64 holds exactly. An empty file, a
    missing column, a short or blank row, a non-numeric cell or a label
    that is not such an integer raises ``MissingColumnError`` or a
    ``ValueError`` naming the row and column.
    """
    import io

    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        try:
            header = [name.strip() for name in next(csv.reader(handle))]
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        body = handle.read()
    wanted = [*names] if label_column is None else [*names, label_column]
    for name in wanted:
        if name not in header:
            raise MissingColumnError(name)
    index = {name: header.index(name) for name in wanted}
    n_lines = body.count("\n")
    if body and not body.endswith("\n"):
        n_lines += 1

    table = np.empty((0, len(index)))
    if body and not body.isspace():  # loadtxt warns when it finds no data
        try:
            table = np.loadtxt(
                io.StringIO(body), delimiter=",", quotechar='"', comments=None,
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


def test_result_to_dict(result: TestResult, alpha_levels=(0.05, 0.10)) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "rationality_test",
        "functional": result.functional.value,
        "statistic": result.statistic,
        "df": result.df,
        "p_value": result.p_value,
        "bandwidth": result.bandwidth,
        "reject_at": {f"{a:g}": bool(result.p_value < a) for a in alpha_levels},
    }


_INF = float("inf")


def _json_number(x) -> str:
    """A number as json.dumps writes it, with NaN as null."""
    if x != x:
        return "null"
    return float.__repr__(x) if type(x) is float and -_INF < x < _INF else json.dumps(x)


def grid_to_json(grid: ConfidenceSetGrid) -> str:
    """The scan as a JSON document, laid out as json.dumps(..., indent=2,
    sort_keys=True) lays it out, with NaN objectives and p-values as null.

    The points are written through one fixed template, filled per point;
    the top-level fields go through json.dumps.
    """
    members = sorted({f"{a:g}": a for a in grid.alpha_levels}.items())
    slots = ",\n".join(f"        {json.dumps(key)}: {{}}" for key, _ in members)
    point = (
        '    {{\n      "index": [\n        {},\n        {}\n      ],\n'
        '      "member": {{\n' + slots + '\n      }},\n'
        '      "note": {},\n      "objective": {},\n      "p_value": {},\n'
        '      "theta": [\n        {},\n        {},\n        {}\n      ]\n    }}'
    ).format
    body = ",\n".join(
        point(*p.index,
              *("true" if p.memberships[a] else "false" for _, a in members),
              "null" if p.note is None else json.dumps(p.note),
              *map(_json_number, (p.objective, p.p_value, p.weights.mean,
                                  p.weights.median, p.weights.mode)))
        for p in grid.points
    )
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
    points = "[\n" + body + "\n  ]" if grid.points else "[]"
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
    return float(value)


def _integer(mapping, key: str, where: str) -> int:
    """An integer field; a bool is not an integer."""
    value = _field(mapping, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} field {key!r} must be an integer, "
                         f"got {type(value).__name__}")
    return value


def grid_from_dict(payload: dict) -> ConfidenceSetGrid:
    """Inverse of grid_to_json (after json.loads), for re-plotting stored
    scans. A malformed document raises ValueError naming the missing field
    or the wrong type, and so does one that contradicts itself (see
    _check_scan)."""
    from .central_tendency import GridPoint, SimplexWeights

    if _field(payload, "kind", "document") != "confidence_set":
        raise ValueError("payload is not a confidence_set document")
    alpha_levels = _field(payload, "alpha_levels", "document", list)
    if not alpha_levels or not all(type(a) in (int, float) and 0.0 < a < 1.0
                                   for a in alpha_levels):
        raise ValueError("document field 'alpha_levels' must hold numbers in (0, 1), "
                         f"got {json.dumps(alpha_levels)}")
    alpha_levels = tuple(float(a) for a in alpha_levels)
    points = []
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
        member = _field(entry, "member", where)
        points.append(
            GridPoint(
                index=tuple(index),
                weights=SimplexWeights.from_array(_field(entry, "theta", where, list)),
                objective=_number(entry, "objective", where),
                p_value=_number(entry, "p_value", where),
                memberships={a: _field(member, f"{a:g}", f"{where} member", bool)
                             for a in alpha_levels},
                note=note,
            )
        )
    grid = ConfidenceSetGrid(
        resolution=_integer(payload, "resolution", "document"),
        points=points,
        alpha_levels=alpha_levels,
        bandwidth=_number(payload, "bandwidth", "document", null=False),
        df=_integer(payload, "df", "document"),
        n_obs=_integer(payload, "n_obs", "document"),
    )
    _check_scan(grid)
    return grid


def _check_scan(grid: ConfidenceSetGrid) -> None:
    """Raise ValueError unless the points are the resolution's lattice
    (central_tendency._lattice), index and weights, in its order, and every
    member flag is what confidence_set sets: objective <= Q_df(1 - alpha),
    false for a NaN objective."""
    from .central_tendency import _lattice
    from .numerics import chi_square_quantile

    m = grid.resolution
    if m < 1:
        raise ValueError(f"document field 'resolution' must be >= 1, got {m}")
    size = (m + 1) * (m + 2) // 2
    if len(grid.points) != size:
        raise ValueError(f"document holds {len(grid.points)} points, but the "
                         f"resolution-{m} lattice has {size}")
    i, j, rows = _lattice(m)
    quantiles = {a: chi_square_quantile(grid.df, 1.0 - a) for a in grid.alpha_levels}
    for n, (p, index, row) in enumerate(zip(grid.points, zip(i.tolist(), j.tolist()),
                                            rows.tolist())):
        if p.index != index:
            raise ValueError(f"point {n} field 'index' is {json.dumps(p.index)}, but "
                             f"point {n} of the lattice is {json.dumps(index)}")
        theta = [p.weights.mean, p.weights.median, p.weights.mode]
        if theta != row:
            raise ValueError(f"point {n} field 'theta' is {json.dumps(theta)}, but "
                             f"point {n} of the lattice is {json.dumps(row)}")
        for a, q in quantiles.items():
            if p.memberships[a] != (p.objective <= q):
                raise ValueError(
                    f"point {n} member field '{a:g}' is {json.dumps(p.memberships[a])}, "
                    f"but objective {p.objective!r} <= quantile {q!r} is "
                    f"{json.dumps(not p.memberships[a])}")


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


def _member_header(alpha: float) -> str:
    return f"member_{round((1.0 - alpha) * 100):d}"


def grid_to_csv(grid: ConfidenceSetGrid) -> str:
    header = [
        "theta_mean", "theta_median", "theta_mode", "objective", "p_value",
        *(_member_header(a) for a in grid.alpha_levels),
        "note",
    ]
    lines = [",".join(header)]
    for p in grid.points:
        cells = [
            _fmt_data(p.weights.mean),
            _fmt_data(p.weights.median),
            _fmt_data(p.weights.mode),
            _fmt_data(p.objective),
            _fmt_data(p.p_value),
            *(str(int(p.memberships[a])) for a in grid.alpha_levels),
            p.note or "",
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
    for p in grid.points:
        w = p.weights
        px = (
            w.mean * verts["mean"][0]
            + w.median * verts["median"][0]
            + w.mode * verts["mode"][0]
        )
        py = (
            w.mean * verts["mean"][1]
            + w.median * verts["median"][1]
            + w.mode * verts["mode"][1]
        )
        if p.memberships[by_threshold[0]]:
            shade = _SVG_SHADES[0]
        elif any(p.memberships[a] for a in by_threshold[1:]):
            shade = _SVG_SHADES[1]
        else:
            shade = _SVG_SHADES[2]
        parts.append(
            f'<circle cx="{_fmt_svg(px)}" cy="{_fmt_svg(py)}" r="3" fill="{shade}"/>'
        )
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
