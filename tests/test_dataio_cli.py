import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centest

from centest import (
    MEAN_VERTEX,
    MEDIAN_VERTEX,
    MODE_VERTEX,
    ConfidenceSetGrid,
    Dgp,
    DgpConfig,
    Distortion,
    ForecastDataset,
    Functional,
    InstrumentSet,
    MissingColumnError,
    RandomStream,
    build_instruments,
    chi_square_quantile,
    chi_square_sf,
    confidence_set,
    emit_confidence_set,
    instrument_moment_test,
    load_csv,
    mode_test,
    optimal_forecasts,
    random_walk_forecasts,
    run_coverage_experiment,
    run_size_experiment,
    simulate_dgp,
    write_dataset_csv,
)
from centest import dataio
from centest.central_tendency import _lattice
from centest.cli import build_parser, main
from centest.dataio import (
    grid_from_dict,
    grid_to_csv,
    grid_to_json,
    grid_to_svg,
    load_prices,
)
from centest.numerics import KERNELS

from conftest import make_dataset


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x,z\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        ds = load_csv(f, ["z"], with_const=True)
        assert ds.n_obs == 3
        assert ds.n_instruments == 2
        assert np.array_equal(ds.realizations, [1.0, 4.0, 7.0])
        assert np.array_equal(ds.instruments[:, 0], np.ones(3))
        assert np.array_equal(ds.instruments[:, 1], [3.0, 6.0, 9.0])

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,z\n1,2\n3,4\n")
        with pytest.raises(MissingColumnError) as exc:
            load_csv(f, [], with_const=True)
        assert exc.value.column == "x"

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=r"row 3.*'x'"):
            load_csv(f, [], with_const=True)

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1,2\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_csv(f, [], with_const=True)

    def test_cluster_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x,w\n1,2,0\n3,4,0\n5,6,1\n")
        ds = load_csv(f, [], cluster_column="w", with_const=True)
        assert np.array_equal(ds.cluster_labels, [0, 0, 1])

    def test_fractional_cluster_label_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x,w\n1,2,1.5\n3,4,1.7\n5,6,2\n")
        with pytest.raises(ValueError, match=r"'1.5' at row 2, column 'w'"):
            load_csv(f, [], cluster_column="w", with_const=True)
        f.write_text("y,x,w\n1,2,3.0\n3,4,nan\n")
        with pytest.raises(ValueError, match=r"'nan' at row 3"):
            load_csv(f, [], cluster_column="w", with_const=True)

    def test_labels_at_or_above_two_to_the_53_rejected(self, tmp_path, capsys):
        # float64 parsing would read both labels as 2**53 and merge the waves
        f = tmp_path / "d.csv"
        f.write_text("y,x,wave\n1,2,9007199254740993\n3,4,9007199254740992\n"
                     "5,6,1\n")
        code = main(["test", "--input", str(f), "--functional", "mean",
                     "--with-const", "--cluster", "wave"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert ("cluster label '9007199254740993' at row 2, column 'wave' is not "
                "below 2**53 in magnitude") in err
        f.write_text("y,x,wave\n1,2,1\n3,4,-9007199254740992\n")
        with pytest.raises(ValueError, match=r"'-9007199254740992' at row 3, "
                                             r"column 'wave' is not below 2\*\*53"):
            load_csv(f, [], cluster_column="wave", with_const=True)

    def test_largest_exact_labels_load(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x,w\n1,2,9007199254740991\n3,4,-9007199254740991\n"
                     "5,6,9007199254740990\n")
        ds = load_csv(f, [], cluster_column="w", with_const=True)
        assert ds.cluster_labels.tolist() == [2 ** 53 - 1, 1 - 2 ** 53, 2 ** 53 - 2]

    def test_integer_valued_float_labels_load(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x,w\n1,2,3.0\n3,4,-1\n5,6,3\n")
        ds = load_csv(f, [], cluster_column="w", with_const=True)
        assert ds.cluster_labels.dtype == np.int64
        assert np.array_equal(ds.cluster_labels, [3, -1, 3])

    def test_needed_column_named_twice_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x,z,x\n1,2,3,4\n5,6,7,8\n9,1,2,3\n")
        with pytest.raises(ValueError, match="the header names column 'x' 2 times$"):
            load_csv(f, ["z"], with_const=True)
        # a repeated column that is not needed is not read
        f.write_text("y,x,z,z\n1,2,3,4\n5,6,7,8\n9,1,2,3\n")
        assert load_csv(f, [], with_const=True).n_obs == 3

    def test_needed_column_named_twice_exits_2(self, tmp_path, capsys):
        f = tmp_path / "d.csv"
        f.write_text("y,x,z,x\n1,2,3,4\n5,6,7,8\n9,1,2,3\n")
        out = tmp_path / "out.json"
        code = main(["test", "--input", str(f), "--functional", "mean",
                     "--instruments", "z", "--with-const", "--out-json", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"centest: error: {f}: the header names column 'x' 2 times\n")
        assert not out.exists()

    def test_no_instruments_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="no instruments"):
            load_csv(f, [])

    def test_round_trip_simulated_dataset(self, tmp_path):
        cfg = DgpConfig(dgp="ar-garch", skewness=0.5, n_obs=60, seed=31)
        path = simulate_dgp(cfg)
        x = optimal_forecasts(path, cfg, [0, 0, 1])
        ds = ForecastDataset(
            path.realizations, x, build_instruments(path, x, 3),
            cluster_labels=np.arange(60) % 5,
        )
        f = tmp_path / "roundtrip.csv"
        write_dataset_csv(ds, f, instrument_names=["const", "xf", "ylag"])
        back = load_csv(f, ["const", "xf", "ylag"], cluster_column="cluster")
        assert np.array_equal(back.realizations, ds.realizations)
        assert np.array_equal(back.forecasts, ds.forecasts)
        assert np.array_equal(back.instruments, ds.instruments)
        assert np.array_equal(back.cluster_labels, ds.cluster_labels)

    def test_bit_exact_with_quoted_and_padded_cells(self, tmp_path):
        y = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0,
                      np.nextafter(1.0, 2.0), -2.2250738585072014e-308, 7.0])
        x = np.array([1e-300 / 3.0, -1.7976931348623157e308, 2.0 / 3.0, 0.0,
                      -5e-324, 123456789.12345679, np.pi, -np.e])
        ds = ForecastDataset(y, x, np.column_stack([np.ones(8), x[::-1]]),
                             cluster_labels=np.array([3, -1, 0, 7, 7, 2, -40, 3]))
        f = tmp_path / "exact.csv"
        write_dataset_csv(ds, f, instrument_names=["const", "xr"])
        lines = f.read_text().splitlines()
        # quote every cell of the odd data rows, pad every cell of the even ones
        edited = [lines[0]] + [
            ",".join(f'"{c}"' if t % 2 else f"  {c}\t" for c in line.split(","))
            for t, line in enumerate(lines[1:])
        ]
        f.write_text("\n".join(edited) + "\n")
        back = load_csv(f, ["const", "xr"], cluster_column="cluster")
        for name in ("realizations", "forecasts", "instruments"):
            written, read = getattr(ds, name), getattr(back, name)
            assert np.array_equal(read, written)
            assert np.array_equal(read.view(np.int64), written.view(np.int64))
        assert back.cluster_labels.dtype == np.int64
        assert np.array_equal(back.cluster_labels, ds.cluster_labels)

    @pytest.mark.parametrize("text, message", [
        ("y,x\n1,2\n\n3,4\n", "row 3 has 0 of 2 fields; column 'y' is missing"),
        ("y,x\n1,2\n3,4\n\n", "row 4 has 0 of 2 fields; column 'y' is missing"),
        ("y,x\n1,2\n  \n3,4\n", "non-numeric value '' at row 3, column 'y'"),
    ])
    def test_blank_line_is_an_error(self, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_csv(f, [], with_const=True)

    def test_quoted_line_break_in_another_column_loads(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text('y,note,x\n1,"two\nlines",2\n3,plain,4\n5,"",6\n')
        ds = load_csv(f, [], with_const=True)
        assert np.array_equal(ds.realizations, [1.0, 3.0, 5.0])
        assert np.array_equal(ds.forecasts, [2.0, 4.0, 6.0])


def _survey_text(n=40, seed=5):
    """A small LF-terminated survey CSV: y, x, one instrument h, a wave
    label, a price column and an unread text column."""
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 1.0, n)
    y = x + rng.normal(0.0, 1.0, n) + 0.3 * rng.standard_normal(n) ** 2
    h = rng.normal(0.0, 1.0, n)
    price = 100.0 + np.cumsum(rng.normal(0.0, 1.0, n))
    lines = ["y,x,h,wave,price,note"] + [
        f"{a!r},{b!r},{c!r},{t // 5},{p!r},plain"
        for t, (a, b, c, p) in enumerate(zip(y.tolist(), x.tolist(), h.tolist(),
                                            price.tolist()))
    ]
    return "\n".join(lines) + "\n"


def _insert_line(text, row, line):
    """``text`` with ``line`` inserted as its line number ``row``."""
    lines = text.split("\n")
    lines.insert(row - 1, line)
    return "\n".join(lines)


def _read_through_cli(tmp_path, data: bytes, name="d.csv"):
    """Exit code, stdout, stderr and JSON bytes of a clustered mode test and
    a random-walk mean test of one input file."""
    f = tmp_path / name
    f.write_bytes(data)
    results = []
    for flags in (["--functional", "mode", "--instruments", "h", "--with-const",
                   "--cluster", "wave"],
                  ["--functional", "mean", "--random-walk"]):
        js = tmp_path / "out.json"
        js.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["test", "--input", str(f), *flags, "--out-json", str(js)])
        results.append((code, out.getvalue(), err.getvalue(),
                        js.read_bytes() if js.exists() else None))
    return results


class TestReaderInputs:
    """What the reader accepts and rejects, through the command line: the
    line endings, byte-order mark, quoted line breaks and faults of a real
    file, and the file's memory."""

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n").encode(),
        lambda text: text.replace("\n", "\r").encode(),
        lambda text: text[:-1].encode(),
        lambda text: b"\xef\xbb\xbf" + text.encode(),
        lambda text: b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode(),
        lambda text: text.replace(",note\n", ',"no\nte"\n', 1).encode(),
        lambda text: text.replace(",plain\n", ',"two\nlines"\n', 7).encode(),
        lambda text: text.replace(",plain\n", ',"two\r\nlines"\n', 3)
                         .replace("\n", "\r\n").encode(),
    ], ids=["crlf", "lone-cr", "no-final-newline", "byte-order-mark",
            "byte-order-mark-crlf", "quoted-break-in-header",
            "quoted-break-in-unread-cells", "quoted-crlf-in-unread-cells-crlf"])
    def test_same_json_as_the_lf_file(self, tmp_path, edit):
        text = _survey_text()
        want = _read_through_cli(tmp_path, text.encode())
        assert [code for code, *_ in want] == [0, 0]
        assert all(js is not None for *_, js in want)
        assert _read_through_cli(tmp_path, edit(text)) == want

    def test_file_named_like_a_compressed_one_is_read_as_text(self, tmp_path):
        # np.loadtxt would open a path ending in .gz as gzip data
        text = _survey_text().encode()
        want = _read_through_cli(tmp_path, text)
        assert _read_through_cli(tmp_path, text, name="d.csv.gz") == want

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        # a pipe cannot be opened again, so its text is held and parsed once
        text = _survey_text().encode()
        (tmp_path / "d.csv").write_bytes(text)
        ds = load_csv(tmp_path / "d.csv", ["h"], cluster_column="wave",
                      with_const=True)
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        piped = {}

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(text)

        def read():
            piped["dataset"] = load_csv(fifo, ["h"], cluster_column="wave",
                                        with_const=True)

        # daemon threads: a reader that opened the pipe a second time would
        # wait for a writer for ever
        threads = [threading.Thread(target=f, daemon=True) for f in (feed, read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert piped["dataset"] == ds

    @pytest.mark.parametrize("edit, messages", [
        (lambda text: _insert_line(text, 5, ""),
         ["row 5 has 0 of 6 fields; column 'y' is missing",
          "row 5 has 0 of 6 fields; column 'price' is missing"]),
        (lambda text: text + "\n",
         ["row 42 has 0 of 6 fields; column 'y' is missing",
          "row 42 has 0 of 6 fields; column 'price' is missing"]),
        (lambda text: _insert_line(text, 6, " \t "),
         ["non-numeric value '' at row 6, column 'y'",
          "row 6 has 1 of 6 fields; column 'price' is missing"]),
        (lambda text: text.split("\n", 1)[0] + "\n",
         ["{path} has 0 data rows; need at least 2",
          "need at least 3 prices, got 0"]),
        (lambda text: text.split("\n", 1)[0] + "\n \n\n",
         ["non-numeric value '' at row 2, column 'y'",
          "row 2 has 1 of 6 fields; column 'price' is missing"]),
    ], ids=["blank-line", "blank-last-line", "whitespace-line", "header-only",
            "whitespace-body"])
    def test_fault_is_located_and_exits_2(self, tmp_path, edit, messages):
        results = _read_through_cli(tmp_path, edit(_survey_text()).encode())
        for (code, out, err, js), message in zip(results, messages):
            message = message.format(path=tmp_path / "d.csv")
            assert (code, out, err, js) == (2, "", f"centest: error: {message}\n",
                                            None)

    @pytest.mark.parametrize("rows, bom, newline", [
        (40, False, "\n"), (4000, False, "\n"), (4000, True, "\r\n"), (4000, False, "\r"),
    ], ids=["first-block", "later-block", "byte-order-mark-crlf", "lone-cr"])
    def test_invalid_utf8_exits_2(self, tmp_path, rows, bom, newline):
        # the fault names the byte's row and its offset in the file, which
        # counts the byte-order mark, not its position in a decoder's block
        data = (b"\xef\xbb\xbf" if bom else b"") + _survey_text(rows).replace(
            "\n", newline).encode()
        at = len(data) - 50
        row = data[:at].count(newline.encode()) + 1
        message = (f"centest: error: {tmp_path / 'd.csv'}: row {row} is not UTF-8: "
                   f"byte 0xff at offset {at} of the file (invalid start byte)\n")
        assert _read_through_cli(tmp_path, data[:at] + b"\xff" + data[at:]) == [
            (2, "", message, None)] * 2

    @pytest.mark.parametrize("row", [1, 3], ids=["header", "data-row"])
    def test_record_csv_cannot_read_exits_2(self, tmp_path, row):
        # a quoted line break in row 2 sends the load to the walk, whose csv
        # reader refuses a field above its size limit
        lines = _survey_text().split("\n")
        lines[1] = lines[1].replace(",plain", ',"two\nlines"')
        lines[row - 1] += ',"' + "a" * 140_000 + '"'
        message = (f"centest: error: row {row} is not valid CSV: field larger than "
                   f"field limit ({csv.field_size_limit()})\n")
        assert _read_through_cli(tmp_path, "\n".join(lines).encode()) == [
            (2, "", message, None)] * 2

    def test_load_memory_is_about_its_arrays(self, tmp_path):
        # The reader keeps the parsed table and its column copies, never the
        # file's text, so at 50,000 rows the load peaks under 2.5 times the
        # arrays it returns.
        n = 50_000
        rng = np.random.default_rng(3)
        ds = ForecastDataset(rng.normal(size=n), rng.normal(size=n),
                             rng.normal(size=(n, 2)),
                             cluster_labels=np.repeat(np.arange(n // 500), 500))
        f = tmp_path / "large.csv"
        write_dataset_csv(ds, f, instrument_names=["xinst", "extra"])
        load_csv(f, ["xinst"], with_const=True)  # imports and first-call set-up
        tracemalloc.start()
        try:
            back = load_csv(f, ["xinst", "extra"], cluster_column="cluster",
                            with_const=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for a in (back.realizations, back.forecasts,
                                        back.instruments, back.cluster_labels))
        assert arrays == 8 * n * 6
        assert peak < 2.5 * arrays


class TestStricterCells:
    """Cells float() reads but the C parser does not: "_" digit separators
    and non-ASCII digits. They exit 2 like any other non-numeric cell."""

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "\uff17"])
    def test_dataset_cell(self, tmp_path, capsys, cell):
        assert float(cell) > 0
        f = tmp_path / "d.csv"
        f.write_text(f"y,x\n1,2\n3,{cell}\n5,6\n", encoding="utf-8")
        code = main(["test", "--input", str(f), "--functional", "mean",
                     "--with-const"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"centest: error: non-numeric value {cell!r} at row 3, column 'x'\n"
        )

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"])
    def test_price_cell(self, tmp_path, capsys, cell):
        f = tmp_path / "p.csv"
        f.write_text(f"price\n1\n2\n{cell}\n4\n", encoding="utf-8")
        code = main(["test", "--input", str(f), "--functional", "mean",
                     "--random-walk"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"centest: error: non-numeric value {cell!r} at row 4, "
            "column 'price'\n"
        )


_COLUMNS = ("y", "x", "z", "w", "price")
_NUMBER = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6).map(repr),
    st.integers(-99, 99).map(str),
)
_TOKEN = st.sampled_from(
    ["", "oops", "1_000", "\u0661", "nan", "inf", "1e", "-", "0x1", "1.5"]
)


@st.composite
def _cell(draw, column, faulty):
    numbers = st.integers(-3, 3).map(str) if column == "w" else _NUMBER
    text = draw(st.one_of(numbers, numbers, numbers, _TOKEN) if faulty else numbers)
    pads = st.sampled_from(["", " ", "\t"])
    if draw(st.booleans()):
        # a space before the opening quote makes the quote part of the cell
        lead = draw(pads) if faulty else ""
        return f'{lead}"{draw(pads)}{text}{draw(pads)}"{draw(pads)}'
    return f"{draw(pads)}{text}{draw(pads)}"


@st.composite
def _csv_text(draw):
    columns = ["y", "x", *draw(st.lists(st.sampled_from(["z", "w", "price"]),
                                        unique=True))]
    if draw(st.integers(0, 7)) == 0:
        columns.remove(draw(st.sampled_from(["y", "x"])))
    columns = draw(st.permutations(columns))
    faulty = draw(st.booleans())  # clean files are the ones that load
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        width = len(columns)
        if faulty and draw(st.integers(0, 9)) == 0:  # ragged or blank
            width = draw(st.integers(0, len(columns) + 1))
        padded = [*columns, *columns][:width]
        lines.append(",".join(draw(_cell(c, faulty)) for c in padded))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _float_parse(path, names):
    """The reference: csv rows, every cell stripped and read by float()."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = [name.strip() for name in rows[0]]
    index = {name: header.index(name) for name in names}
    return {
        name: np.array([float(row[j].strip()) for row in rows[1:]])
        for name, j in index.items()
    }


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


class TestReaderFuzz:
    @given(text=_csv_text(), cluster=st.booleans(), const=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_cli_and_loader_agree_with_float_parse(self, tmp_path_factory, text,
                                                   cluster, const):
        f = tmp_path_factory.mktemp("fuzz") / "d.csv"
        f.write_text(text, encoding="utf-8")
        header = text.split("\n", 1)[0].split(",")
        instruments = ["z"] if "z" in header else []
        flags = ["--instruments", ",".join(instruments)]
        flags += ["--with-const"] if const or not instruments else []
        flags += ["--cluster", "w"] if cluster else []

        code = _run_cli(["test", "--input", str(f), "--functional", "mean",
                         *flags])
        try:
            ds = load_csv(f, instruments, cluster_column="w" if cluster else None,
                          with_const=const or not instruments)
        except (ValueError, MissingColumnError):
            assert code == 2
        else:
            ref = _float_parse(f, ["y", "x", *instruments,
                                   *(["w"] if cluster else [])])
            assert np.array_equal(ds.realizations, ref["y"])
            assert np.array_equal(ds.forecasts, ref["x"])
            if instruments:
                assert np.array_equal(ds.instruments[:, -1], ref["z"])
            if cluster:
                assert np.array_equal(ds.cluster_labels, ref["w"])

        code = _run_cli(["test", "--input", str(f), "--functional", "mean",
                         "--random-walk"])
        try:
            prices = load_prices(f)
        except (ValueError, MissingColumnError):
            assert code == 2
        else:
            assert np.array_equal(prices, _float_parse(f, ["price"])["price"],
                                  equal_nan=True)


class TestRandomWalk:
    def test_pairs_and_errors(self):
        ds = random_walk_forecasts([1.0, 2.0, 3.0])
        assert np.array_equal(ds.forecasts, [1.0, 2.0])
        assert np.array_equal(ds.realizations, [2.0, 3.0])
        assert np.array_equal(ds.forecasts - ds.realizations, [-1.0, -1.0])
        assert ds.instruments.shape == (2, 2)

    def test_constant_prices_degenerate_downstream(self):
        from centest import DegenerateErrors

        ds = random_walk_forecasts(np.ones(30))
        assert np.all(ds.forecasts - ds.realizations == 0.0)
        with pytest.raises(DegenerateErrors):
            mode_test(ds)

    def test_too_short(self):
        with pytest.raises(ValueError):
            random_walk_forecasts([1.0, 2.0])

    def test_pure_random_walk_mean_size(self):
        # the lagged level is the true conditional mean of a random walk; with
        # a constant instrument the errors are iid and the 5% test rejects
        # about 5% of the time. The level instrument X_t is nonstationary
        # (unit root), which puts the joint (1, X) statistic outside the
        # chi-square limit and inflates its rejection rate.
        reps = 200
        rej_const = 0
        rej_joint = 0
        for r in range(reps):
            rng = RandomStream(8080, r).generator()
            prices = np.cumsum(rng.standard_normal(2001))
            ds = random_walk_forecasts(prices)
            rej_joint += instrument_moment_test("mean", ds).p_value < 0.05
            const_only = ForecastDataset(
                ds.realizations, ds.forecasts, np.ones((ds.n_obs, 1))
            )
            rej_const += instrument_moment_test("mean", const_only).p_value < 0.05
        assert 0.005 <= rej_const / reps <= 0.11
        assert rej_joint / reps <= 0.35


class TestEmission:
    def test_vertex_grid_svg_has_three_dots(self, rng, tmp_path):
        ds = make_dataset(rng, t=60, k=2, skew=0.3)
        grid = confidence_set(ds, m=1)
        svg = grid_to_svg(grid)
        assert svg.count("<circle") == 3
        assert "Mean" in svg and "Median" in svg and "Mode" in svg

    def test_csv_row_count(self, rng):
        ds = make_dataset(rng, t=60, k=2, skew=0.3)
        m = 7
        grid = confidence_set(ds, m=m)
        csv_text = grid_to_csv(grid)
        lines = csv_text.strip().split("\n")
        assert len(lines) == (m + 1) * (m + 2) // 2 + 1
        assert lines[0].startswith("theta_mean,theta_median,theta_mode")
        assert "member_95" in lines[0] and "member_90" in lines[0]

    def test_emission_deterministic(self, rng, tmp_path):
        ds = make_dataset(rng, t=60, k=2, skew=0.3)
        grid = confidence_set(ds, m=4)
        paths = {ext: tmp_path / f"out.{ext}" for ext in ("json", "csv", "svg")}
        emit_confidence_set(grid, paths["json"], paths["csv"], paths["svg"])
        first = {ext: p.read_bytes() for ext, p in paths.items()}
        emit_confidence_set(grid, paths["json"], paths["csv"], paths["svg"])
        second = {ext: p.read_bytes() for ext, p in paths.items()}
        assert first == second

    def test_json_schema_and_round_trip(self, rng):
        ds = make_dataset(rng, t=60, k=2, skew=0.3)
        grid = confidence_set(ds, m=3)
        payload = json.loads(grid_to_json(grid))
        assert payload["schema"] == 1
        assert payload["kind"] == "confidence_set"
        back = grid_from_dict(payload)
        assert back.resolution == grid.resolution
        assert back.alpha_levels == grid.alpha_levels
        for p0, p1 in zip(grid.points, back.points):
            assert p0.index == p1.index
            assert p0.memberships == p1.memberships
            assert p0.objective == pytest.approx(p1.objective, rel=1e-15)


def _json_dumps_layout(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    """grid_to_json writes its document without json.dumps; its text must be
    exactly what json.dumps(..., indent=2, sort_keys=True) writes."""

    @pytest.mark.parametrize("m", [1, 7, 50])
    # four levels whose member_NN CSV columns differ (0.005 and 1e-05 would
    # both be member_100, which confidence_set rejects)
    @pytest.mark.parametrize("alphas", [(0.05,), (0.1, 0.05), (0.1, 0.05, 0.01, 1e-05)],
                             ids=["one", "two", "four"])
    def test_text_is_the_json_dumps_layout(self, rng, m, alphas):
        ds = make_dataset(rng, t=60, k=2, skew=0.3)
        grid = confidence_set(ds, m=m, alpha_levels=alphas)
        text = grid_to_json(grid)
        assert text == _json_dumps_layout(text)
        doc = json.loads(text)
        assert doc["alpha_levels"] == list(alphas)
        assert len(doc["points"]) == (m + 1) * (m + 2) // 2
        assert list(doc["points"][0]["member"]) == sorted(f"{a:g}" for a in alphas)
        for p, entry in zip(grid.points, doc["points"]):
            assert entry["index"] == list(p.index)
            assert entry["theta"] == list(p.theta)
            assert entry["objective"] == p.objective
            assert entry["p_value"] == p.p_value
            assert entry["member"] == {f"{a:g}": p.memberships[a] for a in alphas}

    def test_null_numbers_and_escaped_notes(self):
        # the m = 2 lattice; a noted point is singular: null numbers and no
        # membership, as confidence_set writes it
        notes = [None, 'a "quoted" word', "back\\slash", "two\nlines", "S_T ≥ Q, θ ∉ Θ",
                 None]
        i, j, theta = _lattice(2)
        tail = chi_square_sf(2, 1.5)
        scored = np.array([note is None for note in notes])
        grid = ConfidenceSetGrid(resolution=2, alpha_levels=(0.1, 0.05),
                                 bandwidth=0.5, df=2, n_obs=10,
                                 index=np.column_stack([i, j]), theta=theta,
                                 objective=np.where(scored, 1.5, np.nan),
                                 p_value=np.where(scored, tail, np.nan),
                                 member=np.array([scored, scored]),
                                 notes={n: note for n, note in enumerate(notes)
                                        if note is not None})
        text = grid_to_json(grid)
        assert text == _json_dumps_layout(text)
        assert text.isascii()
        doc = json.loads(text)
        assert [e["note"] for e in doc["points"]] == notes
        assert [e["objective"] for e in doc["points"]] == [1.5, None, None, None, None, 1.5]
        assert [e["p_value"] for e in doc["points"]] == [tail, None, None, None, None, tail]
        back = grid_from_dict(doc)
        assert [p.note for p in back.points] == notes
        assert np.isnan(back.points[1].objective) and np.isnan(back.points[1].p_value)

    def test_empty_grid(self):
        grid = ConfidenceSetGrid(resolution=1, alpha_levels=(0.05,), bandwidth=0.5,
                                 df=2, n_obs=10, index=np.empty((0, 2), dtype=int),
                                 theta=np.empty((0, 3)), objective=np.empty(0),
                                 p_value=np.empty(0), member=np.empty((1, 0), dtype=bool),
                                 notes={})
        text = grid_to_json(grid)
        assert text == _json_dumps_layout(text)
        assert json.loads(text)["points"] == []


# A stored one-point scan that contradicts itself three ways: it is not the
# m = 1 lattice (three points), its index and theta lie off that lattice, and
# its objective 1.0 is inside the 95% set (quantile 3.84 at df = 1) although
# its flag says it is not.
CONTRADICTORY_SCAN = {
    "kind": "confidence_set", "schema": 1, "resolution": 1, "alpha_levels": [0.05],
    "bandwidth": 1.0, "df": 1, "n_obs": 5,
    "points": [{"index": [7, 9], "theta": [0.5, 0.5, 0.0], "objective": 1.0,
                "p_value": 0.9, "member": {"0.05": False}, "note": None}],
}


def _set_point(n, **fields):
    def edit(doc):
        doc["points"][n].update(fields)
    return edit


def _flip_member(doc):
    member = doc["points"][0]["member"]
    member["0.05"] = not member["0.05"]


def _null_member(doc):
    doc["points"][3].update(objective=None, p_value=None,
                            member={"0.05": True, "0.1": True})


def _null_objective(doc):
    doc["points"][0].update(objective=None, p_value=0.5,
                            member={"0.05": False, "0.1": False})


@pytest.mark.parametrize("alphas, label", [
    ((0.05, 0.050000001), "'0.05'"),
    ((0.05, 0.054), "'member_95'"),
])
def test_library_rejects_alpha_levels_sharing_a_label(rng, alphas, label):
    # one JSON member key or one CSV column would stand for two levels
    ds = make_dataset(rng, t=60, k=2, skew=0.3)
    message = (f"^alpha levels {alphas[0]!r} and {alphas[1]!r} share the output "
               f"label {label}$")
    with pytest.raises(ValueError, match=message):
        confidence_set(ds, m=2, alpha_levels=alphas)
    with pytest.raises(ValueError, match=message):
        dataio.test_result_to_dict(instrument_moment_test("mean", ds), alphas)
    with pytest.raises(ValueError, match=message):
        grid_from_dict(_one_point_scan(alpha_levels=list(alphas)))


def _scale_p_value(factor):
    def edit(doc):
        doc["points"][0]["p_value"] *= factor
    return edit


class TestStoredScanConsistency:
    """grid_from_dict rejects a scan whose points are not the resolution's
    lattice or whose member flags contradict its objectives."""

    @staticmethod
    def scan(rng):
        grid = confidence_set(make_dataset(rng, t=60, k=2, skew=0.3), m=2,
                              alpha_levels=(0.05, 0.1))
        return grid, grid_to_json(grid)

    def test_real_scan_round_trips(self, rng):
        grid, text = self.scan(rng)
        back = grid_from_dict(json.loads(text))
        assert back == grid
        assert grid_to_json(back) == text

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["points"].pop(),
         "document holds 5 points, but the resolution-2 lattice has 6"),
        (lambda doc: doc.update(resolution=3),
         "document holds 6 points, but the resolution-3 lattice has 10"),
        (lambda doc: doc.update(resolution=0),
         "document field 'resolution' must be >= 1, got 0"),
        (_set_point(4, index=[2, 0]),
         "point 4 field 'index' is [2, 0], but point 4 of the lattice is [1, 1]"),
        (_set_point(4, index=[7, 9]),
         "point 4 field 'index' is [7, 9], but point 4 of the lattice is [1, 1]"),
        (_set_point(4, theta=[1.0, 0.0, 0.0]),
         "point 4 field 'theta' is [1.0, 0.0, 0.0], but point 4 of the lattice is "
         "[0.5, 0.5, 0.0]"),
        (_flip_member, "point 0 member field '0.05' is "),
        (_null_member, "point 3 member field '0.05' is true, but objective nan <= "),
        (_set_point(0, p_value=0.123456), "point 0 field 'p_value' is 0.123456, but the "
         "chi-square tail of its objective "),
        (_scale_p_value(1.0 + 1e-9), "point 0 field 'p_value' is "),
        (_set_point(0, p_value=None), "point 0 field 'p_value' is null, but its objective "
         "is "),
        (_null_objective, "point 0 field 'p_value' is 0.5, but its objective is null"),
        (_set_point(5, objective=-1.0), "point 5 field 'objective' must be >= 0, got -1.0"),
        (_set_point(0, objective=float("inf"), p_value=1e-300,
                    member={"0.05": False, "0.1": False}),
         "point 0 field 'p_value' is 1e-300, but the chi-square tail of its objective "
         "inf at df = 2 is 0.0"),
    ], ids=["point-missing", "resolution-too-large", "resolution-zero",
            "index-of-another-point", "index-off-the-lattice", "theta-of-another-point",
            "member-flipped", "null-objective-member", "p-value-off-its-objective",
            "p-value-off-by-1e-9", "null-p-value", "null-objective-with-p-value",
            "negative-objective", "infinite-objective"])
    def test_contradiction_exits_2(self, rng, tmp_path, capsys, edit, message):
        _, text = self.scan(rng)
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(ValueError) as raised:
            grid_from_dict(doc)
        assert str(raised.value).startswith(message)
        js = tmp_path / "bad.json"
        js.write_text(json.dumps(doc))
        svg = tmp_path / "out.svg"
        assert main(["plot", "--in-json", str(js), "--out-svg", str(svg)]) == 2
        assert capsys.readouterr().err == f"centest: error: {raised.value}\n"
        assert not svg.exists()

    def test_p_value_within_tolerance_loads(self, rng):
        # 1e-13 relative, inside the 1e-12 slack for another platform's libm
        # or an earlier version's tail
        _, text = self.scan(rng)
        doc = json.loads(text)
        _scale_p_value(1.0 + 1e-13)(doc)
        assert grid_from_dict(doc).points[0].p_value == doc["points"][0]["p_value"]

    def test_df_below_n_obs_loads_and_df_at_n_obs_exits_2(self, rng, tmp_path, capsys):
        # the scan with df = n_obs - 1 = 59, its p-values and member flags
        # those of that df, loads; the same scan at df = n_obs is refused
        # before its 59-term tails are summed
        _, text = self.scan(rng)
        doc = json.loads(text)
        df = doc["df"] = doc["n_obs"] - 1
        quantiles = {f"{a:g}": chi_square_quantile(df, 1.0 - a) for a in doc["alpha_levels"]}
        for point in doc["points"]:
            point["p_value"] = chi_square_sf(df, point["objective"])
            point["member"] = {a: point["objective"] <= q for a, q in quantiles.items()}
        grid = grid_from_dict(doc)
        assert (grid.df, grid.n_obs) == (59, 60)
        doc["df"] = doc["n_obs"]
        js = tmp_path / "bad.json"
        js.write_text(json.dumps(doc))
        svg = tmp_path / "out.svg"
        assert main(["plot", "--in-json", str(js), "--out-svg", str(svg)]) == 2
        err = capsys.readouterr().err
        assert err == "centest: error: document field 'df' must be below n_obs = 60, got 60\n"
        assert not svg.exists()

    def test_contradictory_one_point_scan_exits_2(self, tmp_path, capsys):
        js = tmp_path / "bad.json"
        js.write_text(json.dumps(CONTRADICTORY_SCAN))
        svg = tmp_path / "out.svg"
        assert main(["plot", "--in-json", str(js), "--out-svg", str(svg)]) == 2
        assert capsys.readouterr().err == (
            "centest: error: document holds 1 points, but the resolution-1 lattice has 3\n")
        assert not svg.exists()
        # each of its point's faults is caught on its own in a full m = 1 scan,
        # whose p-values are the chi-square (1 df) tails of its objectives
        full = dict(CONTRADICTORY_SCAN, points=[
            {"index": [0, 0], "theta": [0.0, 0.0, 1.0], "objective": 1.0,
             "p_value": 0.31731050786291115, "member": {"0.05": True}, "note": None},
            {"index": [0, 1], "theta": [0.0, 1.0, 0.0], "objective": 5.0,
             "p_value": 0.025347318677468325, "member": {"0.05": False}, "note": None},
            {"index": [1, 0], "theta": [1.0, 0.0, 0.0], "objective": None,
             "p_value": None, "member": {"0.05": False}, "note": "singular"},
        ])
        assert grid_from_dict(full).resolution == 1
        faults = {"index": [7, 9], "theta": [0.5, 0.5, 0.0], "member": {"0.05": False}}
        for key, value in faults.items():
            doc = json.loads(json.dumps(full))
            doc["points"][0][key] = value
            with pytest.raises(ValueError, match=f"^point 0 (member )?field '({key}|0.05)'"):
                grid_from_dict(doc)


def write_sim_csv(tmp_path, name="sim.csv", t=160, gamma=0.4, seed=909):
    cfg = DgpConfig(dgp="homoskedastic-iid", skewness=gamma, n_obs=t, seed=seed)
    path = simulate_dgp(cfg)
    x = optimal_forecasts(path, cfg, [0, 0, 1])
    ds = ForecastDataset(path.realizations, x, build_instruments(path, x, 2))
    f = tmp_path / name
    write_dataset_csv(ds, f, instrument_names=["const", "xinst"])
    return f


def _one_point_scan(point=None, **document):
    """A well-formed one-point scan document, with fields overridden."""
    entry = {"index": [0, 0], "theta": [0.0, 0.0, 1.0], "objective": 1.0,
             "p_value": 0.3, "member": {"0.05": True}, "note": None, **(point or {})}
    return {"kind": "confidence_set", "resolution": 1, "alpha_levels": [0.05],
            "bandwidth": 1.0, "df": 1, "n_obs": 5, "points": [entry], **document}


class TestCli:
    def test_test_subcommand_end_to_end(self, tmp_path, capsys):
        data = write_sim_csv(tmp_path)
        out = tmp_path / "result.json"
        code = main([
            "test", "--input", str(data), "--functional", "mode",
            "--instruments", "const,xinst", "--out-json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "rationality_test"
        assert payload["functional"] == "mode"
        assert payload["df"] == 2
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["bandwidth"] > 0
        assert set(payload["reject_at"]) == {"0.05", "0.1"}
        assert "mode test" in capsys.readouterr().out

    def test_exit_zero_on_rejection(self, tmp_path):
        # heavily biased forecasts: decisive rejection, still exit 0
        rng = np.random.default_rng(5)
        y = rng.standard_normal(200)
        x = y + 5.0 + rng.standard_normal(200) * 0.1
        ds = ForecastDataset(y, x, np.column_stack([np.ones(200), x]))
        f = tmp_path / "biased.csv"
        write_dataset_csv(ds, f, instrument_names=["const", "xinst"])
        out = tmp_path / "r.json"
        code = main([
            "test", "--input", str(f), "--functional", "mean",
            "--instruments", "const,xinst", "--out-json", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["reject_at"]["0.05"] is True

    def test_byte_identical_reruns(self, tmp_path):
        data = write_sim_csv(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["test", "--input", str(data), "--functional", "median",
                "--instruments", "const,xinst"]
        assert main(argv + ["--out-json", str(out1)]) == 0
        assert main(argv + ["--out-json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cset_and_plot_round_trip(self, tmp_path):
        data = write_sim_csv(tmp_path)
        js = tmp_path / "g.json"
        cs = tmp_path / "g.csv"
        svg = tmp_path / "g.svg"
        code = main([
            "cset", "--input", str(data), "--instruments", "const,xinst",
            "--grid-m", "6", "--out-json", str(js), "--out-csv", str(cs),
            "--out-svg", str(svg),
        ])
        assert code == 0
        assert js.exists() and cs.exists() and svg.exists()
        replot = tmp_path / "replot.svg"
        assert main(["plot", "--in-json", str(js), "--out-svg", str(replot)]) == 0
        assert replot.read_bytes() == svg.read_bytes()

    def test_simulate_subcommand(self, tmp_path):
        out = tmp_path / "sim.json"
        data = tmp_path / "rep0.csv"
        code = main([
            "simulate", "--experiment", "size", "--dgp", "homoskedastic-iid",
            "--gamma", "0.0", "--sample-size", "100", "--replications", "100",
            "--seed", "4", "--out-json", str(out), "--out-dataset", str(data),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "size_experiment"
        assert payload["successes"] == 100
        assert 0.0 <= payload["rate"] <= 0.2
        ds = load_csv(data, ["const", "xinst"])
        assert ds.n_obs == 100

    # the scorer of each experiment and the position of its errors argument
    # (instruments follow)
    @pytest.mark.parametrize("flags, scorer, at", [
        (["--experiment", "size"], "_tests_block", 1),
        (["--experiment", "power", "--distortion", "noise", "--kappa", "0.5"],
         "_tests_block", 1),
        (["--experiment", "power", "--distortion", "bias", "--kappa", "0.3"],
         "_tests_block", 1),
        (["--experiment", "coverage", "--beta", "mean-mode", "--draws", "50"],
         "_objective_at", 1),
    ], ids=["size", "power-noise", "power-bias", "coverage"])
    def test_dataset_holds_the_scored_replication(self, tmp_path, monkeypatch, flags,
                                                  scorer, at):
        # the dump is replication 0 as scored: its x - y and instruments are,
        # bit for bit, row 0 of what the experiment's scorer gets (100
        # replications are one block)
        import centest.simulation as simulation

        real = getattr(simulation, scorer)
        scored = []

        def recording(*args):
            errors, instruments = args[at:at + 2]
            scored.append((errors[0].copy(), instruments[0].copy()))
            return real(*args)

        monkeypatch.setattr(simulation, scorer, recording)
        data = tmp_path / "rep0.csv"
        code = main([
            "simulate", *flags, "--dgp", "ar1", "--gamma", "0.5",
            "--sample-size", "100", "--replications", "100", "--seed", "9",
            "--out-dataset", str(data),
        ])
        assert code == 0
        assert len(scored) == 1
        ds = load_csv(data, ["const", "xinst"])
        assert np.array_equal(ds.instruments[:, 1], ds.forecasts)
        errors, instruments = scored[0]
        assert (ds.forecasts - ds.realizations).tobytes() == errors.tobytes()
        # the scorers take instruments as rows (k, T)
        assert ds.instruments.tobytes() == instruments.T.tobytes()

    def test_choices_are_the_library_names(self):
        parser = build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))

        def choices(command):
            return {action.option_strings[-1]: list(action.choices)
                    for action in commands[command]._actions
                    if action.choices is not None}

        kernels = list(KERNELS)
        assert choices("test") == {"--kernel": kernels,
                                   "--functional": [f.value for f in Functional]}
        assert choices("cset") == {"--kernel": kernels}
        assert choices("simulate") == {
            "--experiment": ["size", "power", "coverage"],
            "--dgp": [d.value for d in Dgp],
            "--instrument-set": [s.value for s in InstrumentSet],
            "--distortion": [d.value for d in Distortion],
            "--kernel": kernels,
        }

    @pytest.mark.parametrize("flags", [
        ["--experiment", "size"],
        ["--experiment", "power", "--distortion", "bias"],
        ["--experiment", "coverage", "--beta", "mean-mode"],
    ], ids=["size", "power", "coverage"])
    def test_simulate_defaults_are_the_library_defaults(self, tmp_path, flags):
        # no --alpha-level, --level, --draws, --kappa, --burn-in or --kernel:
        # the JSON is the library call's with its own defaults
        config = DgpConfig(dgp="heteroskedastic", skewness=0.5, n_obs=40, seed=3)
        if "coverage" in flags:
            report = run_coverage_experiment(config, (0.5, 0.0, 0.5), 2, 100)
        else:
            report = run_size_experiment(config, 2, 100,
                                         distortion="bias" if "power" in flags else None)
        expected, out = tmp_path / "library.json", tmp_path / "cli.json"
        dataio.write_json(dataio.report_to_dict(report), expected)
        assert main(["simulate", *flags, "--dgp", "heteroskedastic", "--gamma", "0.5",
                     "--sample-size", "40", "--replications", "100", "--seed", "3",
                     "--out-json", str(out)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command", ["test", "cset"])
    @pytest.mark.parametrize("alphas, label", [
        ("0.05,0.050000001", "'0.05'"),
        ("0.05,0.054", "'member_95'"),
        ("0.1,0.05,0.1", "'0.1'"),
    ])
    def test_alpha_levels_sharing_a_label_are_a_usage_error(self, tmp_path, capsys,
                                                            command, alphas, label):
        data = write_sim_csv(tmp_path)
        out = tmp_path / "out.json"
        extra = ["--functional", "mean"] if command == "test" else ["--grid-m", "2"]
        code = main([command, "--input", str(data), "--instruments", "const,xinst",
                     *extra, "--alpha", alphas, "--out-json", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument --alpha: bad alpha list '{alphas}': alpha levels " in err
        assert f"share the output label {label}\n" in err
        assert not out.exists()

    def test_simulate_nan_gamma_fails_the_skewness_bound(self, capsys):
        code = main(["simulate", "--experiment", "size", "--dgp", "ar1", "--gamma", "nan",
                     "--sample-size", "100", "--replications", "100"])
        assert code == 1
        assert capsys.readouterr().err == (
            "centest: error: |skewness| must be below the skew-normal bound 0.9953, "
            "got nan\n")

    def test_random_walk_flag(self, tmp_path):
        rng = np.random.default_rng(6)
        prices = np.cumsum(rng.standard_normal(400)) + 50.0
        f = tmp_path / "prices.csv"
        f.write_text("price\n" + "\n".join(f"{p:.17g}" for p in prices) + "\n")
        out = tmp_path / "rw.json"
        code = main([
            "test", "--input", str(f), "--functional", "mean", "--random-walk",
            "--out-json", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["df"] == 2

    def test_usage_error_exit_code(self):
        assert main(["test", "--functional", "mean"]) == 1
        assert main(["bogus"]) == 1
        assert main(["simulate", "--experiment", "power", "--dgp", "ar1",
                     "--sample-size", "100", "--replications", "100"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--experiment", "size", "--distortion", "noise", "--kappa", "0.5"],
        ["--experiment", "size", "--kappa", "0.5"],
        # given, even at the library's default
        ["--experiment", "size", "--kappa", "0"],
        ["--experiment", "coverage", "--distortion", "bias"],
    ])
    def test_simulate_rejects_distortion_outside_power(self, tmp_path, capsys,
                                                       flags):
        out = tmp_path / "sim.json"
        code = main(["simulate", *flags, "--dgp", "homoskedastic-iid",
                     "--sample-size", "100", "--replications", "100",
                     "--out-json", str(out)])
        assert code == 1
        assert "power experiments only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--experiment", "size", "--beta", "median"],
         "--beta applies to coverage experiments only"),
        (["--experiment", "size", "--level", "0.9"],
         "--level applies to coverage experiments only"),
        (["--experiment", "power", "--distortion", "bias", "--kappa", "0.2",
          "--draws", "1000"],
         "--draws applies to coverage experiments only"),
        (["--experiment", "coverage", "--alpha-level", "0.05"],
         "--alpha-level applies to size and power experiments only"),
    ])
    def test_simulate_rejects_options_of_other_experiments(self, tmp_path, capsys,
                                                           flags, message):
        # values equal to the defaults are rejected too: the option was given
        out = tmp_path / "sim.json"
        code = main(["simulate", *flags, "--dgp", "homoskedastic-iid",
                     "--sample-size", "100", "--replications", "100",
                     "--out-json", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_invalid_beta_is_a_usage_error(self, capsys):
        code = main(["simulate", "--experiment", "coverage", "--dgp", "ar1",
                     "--sample-size", "100", "--replications", "100",
                     "--beta", "0.5,0.2,0.2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "centest: error: weights must sum to 1, got sum 0.8999999999999999\n"

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_simulate_seed_out_of_range_is_a_usage_error(self, capsys, seed):
        code = main(["simulate", "--experiment", "size", "--dgp", "ar1",
                     "--sample-size", "100", "--replications", "100",
                     f"--seed={seed}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("centest: error: seed must lie in [0, 2**64)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--experiment", "size", "--replications", "50"],
         "need at least 100 replications, got 50"),
        (["--experiment", "coverage", "--level", "1.5"],
         "coverage level must lie in (0, 1), got 1.5"),
        (["--experiment", "size", "--alpha-level", "2"],
         "nominal level must lie in [0, 1), got 2.0"),
        (["--experiment", "coverage", "--beta", "mean-mode", "--draws", "0"],
         "draws must be >= 1, got 0"),
        (["--experiment", "size", "--sample-size", "1"],
         "sample size must be >= 2, got 1"),
        (["--experiment", "size", "--burn-in", "0"],
         "burn_in must be >= 1, got 0"),
        (["--experiment", "size", "--dgp", "homoskedastic-iid", "--burn-in", "-5"],
         "burn_in must be >= 1, got -5"),
        (["--experiment", "coverage", "--beta", "0.5,0.5,0.5"],
         "weights must sum to 1, got sum 1.5"),
        (["--experiment", "power", "--distortion", "bias", "--kappa", "1.5"],
         "bias kappa must lie in (-1, 1), got 1.5"),
        (["--experiment", "power", "--distortion", "noise", "--kappa", "-0.1"],
         "noise kappa must lie in [0, 1), got -0.1"),
    ], ids=["replications", "level", "alpha-level", "draws", "sample-size", "burn-in",
            "cross-section-burn-in", "beta", "bias-kappa", "noise-kappa"])
    def test_simulate_option_out_of_range_is_a_usage_error(self, tmp_path, capsys,
                                                           flags, message):
        # the library's own check and message, before any output is written
        out, data = tmp_path / "sim.json", tmp_path / "rep0.csv"
        code = main(["simulate", "--dgp", "ar1", "--sample-size", "100",
                     "--replications", "100", *flags, "--out-json", str(out),
                     "--out-dataset", str(data)])
        assert code == 1
        assert capsys.readouterr().err == f"centest: error: {message}\n"
        assert not out.exists() and not data.exists()

    @pytest.mark.parametrize("flags, what, k", [
        (["--experiment", "size", "--instrument-set", "2"], "a size experiment", 2),
        (["--experiment", "power", "--distortion", "noise", "--kappa", "0.5",
          "--instrument-set", "3"], "a power experiment", 3),
        (["--experiment", "coverage", "--beta", "mean-mode", "--draws", "5",
          "--instrument-set", "2"], "a coverage experiment", 2),
    ], ids=["size", "power", "coverage"])
    def test_simulate_with_k_at_or_above_n_obs_is_a_usage_error(self, tmp_path, capsys,
                                                                flags, what, k):
        # the experiments' own check, before replication 0 is written
        out, data = tmp_path / "sim.json", tmp_path / "rep0.csv"
        code = main(["simulate", "--dgp", "ar1", "--gamma", "0.5", "--sample-size", "2",
                     "--replications", "100", *flags, "--out-json", str(out),
                     "--out-dataset", str(data)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"centest: error: {what} needs fewer instruments than observations, "
            f"got k = {k} and n_obs = 2\n")
        assert not out.exists() and not data.exists()

    def test_cset_grid_resolution_is_checked_before_the_input(self, tmp_path, capsys):
        # the file does not exist: the option is a usage error before it is read
        code = main(["cset", "--input", str(tmp_path / "absent.csv"), "--with-const",
                     "--grid-m", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "centest: error: grid resolution must be >= 1, got 0\n")

    @pytest.mark.parametrize("command", ["test", "cset"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bandwidth_must_be_positive_and_finite(self, tmp_path, capsys,
                                                   command, value):
        data = write_sim_csv(tmp_path)
        out = tmp_path / "out.json"
        extra = ["--functional", "mode"] if command == "test" else ["--grid-m", "2"]
        code = main([command, "--input", str(data), "--instruments", "const,xinst",
                     *extra, f"--bandwidth={value}", "--out-json", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"argument --bandwidth: bad bandwidth '{value}'" in err
        assert "mode values need a positive bandwidth" in err
        assert not out.exists()

    @pytest.mark.parametrize("functional", ["mean", "median"])
    @pytest.mark.parametrize("option, value", [("--bandwidth", "0.5"),
                                               ("--kernel", "gaussian")])
    def test_mode_options_rejected_for_mean_and_median(self, tmp_path, capsys,
                                                       functional, option, value):
        data = write_sim_csv(tmp_path)
        out = tmp_path / "out.json"
        code = main(["test", "--input", str(data), "--instruments", "const,xinst",
                     "--functional", functional, option, value,
                     "--out-json", str(out)])
        assert code == 1
        assert (f"centest: error: {option} applies to --functional mode only"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("functional", ["mean", "median", "mode"])
    def test_test_with_k_at_n_obs_exits_2(self, tmp_path, capsys, functional):
        rng = np.random.default_rng(13)
        ds = make_dataset(rng, t=3, k=3)
        f = tmp_path / "tiny.csv"
        write_dataset_csv(ds, f, instrument_names=["const", "xinst", "extra"])
        out = tmp_path / "test.json"
        assert main(["test", "--input", str(f), "--instruments", "const,xinst,extra",
                     "--functional", functional, "--out-json", str(out)]) == 2
        assert capsys.readouterr().err == (
            "centest: error: a test needs fewer instruments than observations, "
            "got k = 3 and n_obs = 3\n")
        assert not out.exists()

    def test_test_and_cset_give_one_vertex_statistic(self, tmp_path, capsys):
        # unclustered, the m = 1 scan's vertices are the three tests' J
        data = write_sim_csv(tmp_path)
        flags = ["--input", str(data), "--instruments", "const,xinst"]
        scan = tmp_path / "cset.json"
        assert main(["cset", *flags, "--grid-m", "1", "--out-json", str(scan)]) == 0
        vertices = {tuple(p["theta"]): p["objective"]
                    for p in json.loads(scan.read_text())["points"]}
        for functional, vertex in (("mean", MEAN_VERTEX), ("median", MEDIAN_VERTEX),
                                   ("mode", MODE_VERTEX)):
            out = tmp_path / f"{functional}.json"
            assert main(["test", *flags, "--functional", functional,
                         "--out-json", str(out)]) == 0
            statistic = json.loads(out.read_text())["statistic"]
            assert statistic == pytest.approx(vertices[vertex], rel=1e-12, abs=0.0)
        capsys.readouterr()

    def test_test_cluster_notes_the_unclustered_covariance(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, t=120, k=2, cluster=True)
        f = tmp_path / "waves.csv"
        write_dataset_csv(ds, f, instrument_names=["const", "xinst"])
        outputs = []
        for flags in ([], ["--cluster", "cluster"]):
            out = tmp_path / f"test{len(outputs)}.json"
            assert main(["test", "--input", str(f), "--instruments", "const,xinst",
                         "--functional", "mean", *flags, "--out-json", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().err))
        (plain, plain_err), (clustered, clustered_err) = outputs
        assert clustered == plain
        assert plain_err == ""
        assert clustered_err.count("\n") == 1
        assert "unclustered covariance" in clustered_err
        assert "cset --cluster applies the clusters" in clustered_err
        assert main(["cset", "--input", str(f), "--instruments", "const,xinst",
                     "--grid-m", "2", "--cluster", "cluster"]) == 0
        assert capsys.readouterr().err == ""

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["test", "--input", str(missing), "--functional", "mean",
                     "--with-const"]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("y,z\n1,2\n3,4\n")
        assert main(["test", "--input", str(bad), "--functional", "mean",
                     "--with-const"]) == 2

    @pytest.mark.parametrize("text, flags", [
        ("y,x,wave\n2,3,1.5\n4,5,1.7\n", ["--with-const", "--cluster", "wave"]),
        ("date,price\n1,10.0\n2\n3,11.0\n4,12.0\n", ["--random-walk"]),
        ("", ["--random-walk"]),
    ])
    def test_malformed_csv_exits_2_without_traceback(self, tmp_path, capsys,
                                                     text, flags):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        code = main(["cset", "--input", str(f), "--grid-m", "2", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("centest: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload, message", [
        ({"kind": "confidence_set"}, "document has no 'alpha_levels' field"),
        ([{"kind": "confidence_set"}], "document must be a JSON object, got list"),
        ({"kind": "confidence_set", "resolution": 1, "alpha_levels": [0.05],
          "bandwidth": 1.0, "df": 1, "n_obs": 5,
          "points": [{"index": [0, 0], "theta": [0.0, 0.0, 1.0], "objective": 1.0,
                      "p_value": 0.3, "note": None}]},
         "point 0 has no 'member' field"),
        ({"kind": "confidence_set", "resolution": 1, "alpha_levels": [0.05],
          "bandwidth": 1.0, "df": 1, "n_obs": 5,
          "points": [{"index": [0, 0], "theta": [0.0, 0.0, 1.0], "objective": 1.0,
                      "p_value": 0.3, "member": {"0.05": "no"}, "note": None}]},
         "point 0 member field '0.05' must be a bool, got str"),
        (_one_point_scan(point={"objective": "abc"}),
         "point 0 field 'objective' must be a number or null, got str"),
        (_one_point_scan(point={"p_value": True}),
         "point 0 field 'p_value' must be a number or null, got bool"),
        (_one_point_scan(resolution=1.0),
         "document field 'resolution' must be an integer, got float"),
        (_one_point_scan(df=True),
         "document field 'df' must be an integer, got bool"),
        (_one_point_scan(n_obs="5"),
         "document field 'n_obs' must be an integer, got str"),
        (_one_point_scan(bandwidth="abc"),
         "document field 'bandwidth' must be a number, got str"),
        (_one_point_scan(bandwidth=None),
         "document field 'bandwidth' must be a number, got NoneType"),
        (_one_point_scan(bandwidth=-1.0),
         "document field 'bandwidth' must be positive and finite, got -1.0"),
        (_one_point_scan(bandwidth=0.0),
         "document field 'bandwidth' must be positive and finite, got 0.0"),
        (_one_point_scan(bandwidth=float("nan")),
         "document field 'bandwidth' must be positive and finite, got nan"),
        (_one_point_scan(df=0), "document field 'df' must be >= 1, got 0"),
        (_one_point_scan(n_obs=0), "document field 'n_obs' must be >= 2, got 0"),
        (_one_point_scan(n_obs=-5), "document field 'n_obs' must be >= 2, got -5"),
        (_one_point_scan(df=5), "document field 'df' must be below n_obs = 5, got 5"),
        (_one_point_scan(point={"index": ["a", None]}),
         "point 0 field 'index' must hold two integers, got [\"a\", null]"),
        (_one_point_scan(point={"index": [0, True]}),
         "point 0 field 'index' must hold two integers, got [0, true]"),
        (_one_point_scan(point={"index": [0, 0, 1]}),
         "point 0 field 'index' must hold two integers, got [0, 0, 1]"),
        (_one_point_scan(point={"note": 5}),
         "point 0 field 'note' must be a string or null, got int"),
        (_one_point_scan(point={"theta": [0.5, 0.5]}),
         "point 0 field 'theta' must hold three numbers, got [0.5, 0.5]"),
        (_one_point_scan(point={"theta": ["a", 0.0, 1.0]}),
         "point 0 field 'theta' must hold three numbers, got [\"a\", 0.0, 1.0]"),
        (_one_point_scan(point={"theta": [True, 0.0, 0.0]}),
         "point 0 field 'theta' must hold three numbers, got [true, 0.0, 0.0]"),
        (_one_point_scan(point={"theta": [0.5, -0.5, 1.0]}),
         "point 0 field 'theta': weights must be nonnegative, got [ 0.5 -0.5  1. ]"),
        (_one_point_scan(alpha_levels=["0.05", "0.1"]),
         "document field 'alpha_levels' must hold numbers in (0, 1), got [\"0.05\", \"0.1\"]"),
        (_one_point_scan(alpha_levels=[True]),
         "document field 'alpha_levels' must hold numbers in (0, 1), got [true]"),
        (_one_point_scan(alpha_levels=[0.05, 1.5]),
         "document field 'alpha_levels' must hold numbers in (0, 1), got [0.05, 1.5]"),
        (_one_point_scan(alpha_levels=[]),
         "document field 'alpha_levels' must hold numbers in (0, 1), got []"),
        (_one_point_scan(alpha_levels=[0.05, 0.050000001]),
         "alpha levels 0.05 and 0.050000001 share the output label '0.05'"),
        (_one_point_scan(alpha_levels=[0.05, 0.054]),
         "alpha levels 0.05 and 0.054 share the output label 'member_95'"),
        (_one_point_scan(point={"objective": 10 ** 400}),
         "point 0 field 'objective': int too large to convert to float"),
        (_one_point_scan(point={"p_value": -10 ** 400}),
         "point 0 field 'p_value': int too large to convert to float"),
        (_one_point_scan(bandwidth=10 ** 400),
         "document field 'bandwidth': int too large to convert to float"),
        (_one_point_scan(point={"theta": [0, 0, 10 ** 400]}),
         "point 0 field 'theta': int too large to convert to float"),
        (_one_point_scan(df=10 ** 400),
         "document field 'df': int too large to convert to float"),
    ], ids=["no-alpha-levels", "top-level-list", "point-without-member",
            "member-not-a-bool", "objective-not-a-number", "p-value-a-bool",
            "resolution-not-an-integer", "df-a-bool", "n-obs-not-an-integer",
            "bandwidth-not-a-number", "bandwidth-null", "bandwidth-negative",
            "bandwidth-zero", "bandwidth-nan", "df-zero", "n-obs-zero", "n-obs-negative",
            "df-at-n-obs",
            "index-not-integers",
            "index-a-bool", "index-of-three", "note-not-a-string",
            "theta-of-two", "theta-not-numbers", "theta-a-bool", "theta-negative",
            "alpha-levels-strings", "alpha-levels-a-bool", "alpha-level-above-one",
            "alpha-levels-empty", "alpha-labels-collide", "alpha-headers-collide",
            "objective-overflows", "p-value-overflows", "bandwidth-overflows",
            "theta-overflows", "df-overflows"])
    def test_malformed_plot_json_exits_2_without_traceback(self, tmp_path, capsys,
                                                           payload, message):
        js = tmp_path / "bad.json"
        js.write_text(json.dumps(payload))
        svg = tmp_path / "out.svg"
        code = main(["plot", "--in-json", str(js), "--out-svg", str(svg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"centest: error: {message}\n"
        assert "Traceback" not in err
        assert not svg.exists()

    def test_ragged_row_exits_2_from_the_command_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("y,x,wave\n2,3\n4,5,1\n")
        src = Path(centest.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "centest.cli", "cset", "--input", str(f),
             "--with-const", "--cluster", "wave"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "row 2 has 2 of 3 fields; column 'wave' is missing" in proc.stderr

    def test_degenerate_data_exit_code(self, tmp_path):
        f = tmp_path / "flat.csv"
        f.write_text("price\n" + "\n".join(["10.0"] * 50) + "\n")
        assert main(["test", "--input", str(f), "--functional", "mode",
                     "--random-walk"]) == 2
