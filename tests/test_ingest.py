import os
import random
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from canclust import ingest
from canclust.errors import DataError, DegenerateCaptureError, InsufficientOverlapError, ParseError
from canclust.ingest import BLOCK_CHARS, CONSTANT_TOL, MAX_ABS_VALUE, RawSignal, SignalCapture, parse_capture, resample
from canclust.synth import AttackSpec, SynthSpec, generate, inject, signal_id
from conftest import csv_reader_signals, loop_resample, mutate

BLOCK_LINES = BLOCK_CHARS // 8  # most lines a block holds when every line has 8 characters or more


def write(tmp_path, text, name="cap.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def parse_peak(path, format="wide_csv"):
    """(tracemalloc peak while parsing path, bytes of the arrays returned)."""
    tracemalloc.start()
    try:
        cap = parse_capture(path, format=format)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(s.timestamps.nbytes + s.values.nbytes for s in cap.signals)


class TestParseWide:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "time,a,b\n0.0,1.0,5.0\n0.1,2.0,\n0.2,3.0,6.0\n")
        cap = parse_capture(p, format="wide_csv")
        assert cap.capture_id == "cap"
        by_id = {s.signal_id: s for s in cap.signals}
        assert list(by_id) == ["a", "b"]
        assert by_id["a"].values.tolist() == [1.0, 2.0, 3.0]
        assert by_id["b"].timestamps.tolist() == [0.0, 0.2]  # empty cell skipped

    def test_empty_column_dropped(self, tmp_path):
        rows = "\n".join(f"{i/10},{i},{i*2}," for i in range(100))
        p = write(tmp_path, "time,a,b,c\n" + rows + "\n")
        cap = parse_capture(p)
        assert sorted(s.signal_id for s in cap.signals) == ["a", "b"]

    def test_non_numeric_reports_line(self, tmp_path):
        p = write(tmp_path, "time,a\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(ParseError) as exc:
            parse_capture(p)
        assert exc.value.line == 3

    def test_duplicate_timestamp_names_signal(self, tmp_path):
        # the columns of a dense file share one time array, checked once and named by the first column's signal
        for text in ("time,a\n0.0,1.0\n0.0,2.0\n", "time,a,b,c\n0.0,1,2,3\n0.1,2,3,4\n0.1,5,6,7\n"):
            p = write(tmp_path, text)
            with pytest.raises(ParseError, match="duplicate timestamp in signal 'a'$"):
                parse_capture(p)

    def test_comments_ignored(self, tmp_path):
        p = write(tmp_path, "# a comment\ntime,a\n0.0,1.0\n# another\n0.1,2.0\n")
        cap = parse_capture(p)
        assert cap.signals[0].values.tolist() == [1.0, 2.0]

    def test_all_columns_empty_is_error(self, tmp_path):
        p = write(tmp_path, "time,a\n0.0,\n0.1,\n")
        with pytest.raises(DataError, match="no signals"):
            parse_capture(p)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="^unknown format 'json'$"):
            parse_capture(write(tmp_path, "time,a\n0.0,1.0\n"), format="json")

    def test_unsorted_rows_sorted(self, tmp_path):
        p = write(tmp_path, "time,a\n0.2,3.0\n0.0,1.0\n0.1,2.0\n")
        cap = parse_capture(p)
        assert cap.signals[0].timestamps.tolist() == [0.0, 0.1, 0.2]

    def test_memory_bounded_dense(self, tmp_path):
        # a dense block is one n x ncols table cut per column: no per-sample time,
        # value and signal-index arrays beside the returned ones
        n, k = 20_000, 64
        values = [f"{v / 7:.6f}" for v in range(1000)]
        rows = "".join(f"{i / 100:.2f}," + ",".join(values[i * 37 % 900:][:k]) + "\n" for i in range(n))
        p = write(tmp_path, "time," + ",".join(f"s{j}" for j in range(k)) + "\n" + rows)
        peak, output = parse_peak(p)
        assert output == 16 * n * k
        assert peak < 2.5 * output
        # the signals hold one copy of the time column between them, and one of each value column
        cap = parse_capture(p)
        distinct = {id(a): a.nbytes for s in cap.signals for a in (s.timestamps, s.values)}
        assert sum(distinct.values()) == 8 * n * (k + 1)

    @pytest.mark.parametrize("blank", ["", " ", "\u3000"], ids=["empty", "space", "ideographic_space"])
    def test_memory_bounded_sparse(self, tmp_path, blank):
        # a 10%-dense file: a table and presence mask per cell would hold about 11x the returned
        # arrays; per-sample blocks stay near 3.5x, as for a long file, whether the C reader reads
        # the blocks (empty cells) or they are walked line by line (cells of blanks)
        n, k = 20_000, 64
        rnd = random.Random(5)
        rows = "".join(f"{i / 100:.2f}," + ",".join(f"{j}.5" if rnd.random() < 0.1 else blank for j in range(k)) + "\n"
                       for i in range(n))
        p = write(tmp_path, "time," + ",".join(f"s{j}" for j in range(k)) + "\n" + rows)
        peak, output = parse_peak(p)
        assert peak < 6 * output


class TestParseLong:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "time,signal,value\n0.0,A,1\n0.1,A,2\n0.05,B,7\n")
        cap = parse_capture(p, format="long_csv")
        by_id = {s.signal_id: s for s in cap.signals}
        assert by_id["A"].values.tolist() == [1.0, 2.0]
        assert by_id["B"].values.tolist() == [7.0]

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "t,sig,v\n0.0,A,1\n")
        with pytest.raises(ParseError):
            parse_capture(p, format="long_csv")

    def test_non_numeric_value_after_comments(self, tmp_path):
        p = write(tmp_path, "# exported\n  # by hand\ntime,signal,value\n0.0,A,1\n0.1,A,x\n")
        with pytest.raises(ParseError, match="non-numeric value 'x'") as exc:
            parse_capture(p, format="long_csv")
        assert exc.value.line == 5

    def test_wrong_cell_count(self, tmp_path):
        p = write(tmp_path, "time,signal,value\n0.0,A,1\n0.1,A\n")
        with pytest.raises(ParseError, match="expected 3 cells, got 2") as exc:
            parse_capture(p, format="long_csv")
        assert exc.value.line == 3

    def test_error_in_second_block(self, tmp_path):
        rows = "".join(f"{i / 10},A,{i}\n" for i in range(BLOCK_LINES + 10))
        p = write(tmp_path, "time,signal,value\n" + rows + "7.0,A,oops\n")
        with pytest.raises(ParseError, match="non-numeric value 'oops'") as exc:
            parse_capture(p, format="long_csv")
        assert exc.value.line == BLOCK_LINES + 12

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_not_utf8_names_line(self, tmp_path, eol):
        # the bad byte is past the first block and the decoder's first chunk
        rows = "".join(f"{i / 10},A,{i}{eol}" for i in range(BLOCK_LINES + 10))
        p = tmp_path / "latin1.csv"
        p.write_bytes(f"time,signal,value{eol}{rows}".encode() + "7.0,\xe9,1\n".encode("latin-1"))
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            parse_capture(p, format="long_csv")
        assert exc.value.line == BLOCK_LINES + 12

    def test_whitespace_only_line_is_data(self, tmp_path):
        p = write(tmp_path, "time,signal,value\n0.0,A,1\n   \n0.1,A,2\n")
        with pytest.raises(ParseError, match="expected 3 cells, got 1") as exc:
            parse_capture(p, format="long_csv")
        assert exc.value.line == 3

    def test_quotes_only_in_comments(self, tmp_path):
        p = write(tmp_path, '# "quoted", fine\ntime,signal,value\n0.0,A,1\n0.1,"A",2\n')
        with pytest.raises(ParseError, match="without CSV quoting") as exc:
            parse_capture(p, format="long_csv")
        assert exc.value.line == 4
        p = write(tmp_path, '# "quoted", fine\ntime,signal,value\n0.0,A,1\n# a,"b",c\n0.1,A,2\n')
        assert parse_capture(p, format="long_csv").signals[0].values.tolist() == [1.0, 2.0]

    def test_hash_inside_cells_is_data(self, tmp_path, monkeypatch):
        # only a '#' that is a line's first non-blank character starts a comment, so blocks
        # whose signal names hold one are converted whole, without the per-line filter
        def rows(sep):
            return "time,signal,value\n" + "".join(f"{i / 100:.2f},ID_{i % 32:03d}{sep}sig,{i % 7}\n"
                                                   for i in range(3 * BLOCK_LINES))
        plain = parse_capture(write(tmp_path, rows("_"), "plain.csv"), format="long_csv")
        calls = []
        is_data = ingest._is_data
        monkeypatch.setattr(ingest, "_is_data", lambda line: calls.append(line) or is_data(line))
        hashed = parse_capture(write(tmp_path, rows("#"), "hashed.csv"), format="long_csv")
        assert calls == ["time,signal,value"]  # the header line, before the first block
        assert [s.signal_id for s in hashed.signals] == [s.signal_id.replace("_sig", "#sig") for s in plain.signals]
        for a, b in zip(plain.signals, hashed.signals):
            assert np.array_equal(a.timestamps, b.timestamps) and np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("blank", ["\u3000", "\x1c", "\xa0 \t"])
    def test_comment_after_unicode_blanks(self, tmp_path, blank):
        # str.lstrip() strips these, so the line is a comment, although it has 3 cells
        p = write(tmp_path, f"time,signal,value\n0.0,A,1\n{blank}# note, with, commas\n0.1,A,2\n")
        assert parse_capture(p, format="long_csv").signals[0].values.tolist() == [1.0, 2.0]

    def test_memory_bounded_by_blocks(self, tmp_path):
        # a whole-file read holds every line and cell as Python strings at once, over
        # 20x the arrays it returns; blocks keep the peak near 3x whatever the length
        n = 100_000
        rows = "".join(f"{i / 100:.2f},ID_{i % 32:03d}_sig,{(i * 7919) % 1000 / 7:.6f}\n" for i in range(n))
        p = write(tmp_path, "time,signal,value\n" + rows)
        peak, output = parse_peak(p, format="long_csv")
        assert output == 16 * n
        assert peak < 6 * output


LINE_ENDS = ("\n", "\r\n", "\r")
COMMENTS = ("# plain comment", "   # indented", "\t# tab, indented, with commas",
            '# a "quoted" word', '#x,"y",z', '  # ,,,"",')
PAD = ("", "", "", " ", "\t")


def _number(rnd, x):
    return rnd.choice(PAD) + rnd.choice(["%r", "%.3f", "%.6g", "%e", "%.17g"]) % x + rnd.choice(PAD)


def capture_lines(rnd, layout, n_rows):
    """Header and data lines of a valid capture, rows unsorted, blanks around cells."""
    times = [k / 64.0 + 3.0 for k in range(n_rows)]
    rnd.shuffle(times)
    if layout == "long_csv":
        names = ("ID_100_a", "ID_101_b", "s#3", "ID_102_c")
        return ["time,signal,value"] + [
            f"{_number(rnd, t)},{rnd.choice(PAD)}{rnd.choice(names)}{rnd.choice(PAD)},{_number(rnd, rnd.gauss(0, 100))}"
            for t in times]
    # wide: dense, sparse and all-empty columns; an empty cell may hold blanks
    keep = (1.0, 0.5, 0.05, 0.0, 0.9)
    return [" time , a,b ,c,d, e"] + [
        ",".join([_number(rnd, t)] + [_number(rnd, rnd.gauss(0, 1)) if rnd.random() < p else rnd.choice(("", " ", "  "))
                                      for p in keep])
        for t in times]


def decorate(rnd, lines):
    """Comment and empty lines mixed in, and each line ended by \\n, \\r\\n or \\r."""
    out = []
    for line in lines:
        while rnd.random() < 0.02:
            out.append(rnd.choice(COMMENTS + ("",)))
        out.append(line)
    mixed = rnd.random() < 0.5
    end = rnd.choice(LINE_ENDS)
    return "".join(line + (rnd.choice(LINE_ENDS) if mixed else end) for line in out)


def write_capture(tmp_path, rnd, lines):
    path = tmp_path / "cap.csv"
    path.write_text(decorate(rnd, lines), newline="")
    return path


def outcome(parse, path, layout):
    """Signals as (id, timestamp bytes, value bytes), or the error as (class, message, line)."""
    try:
        signals = parse(path, layout)
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [(s.signal_id, s.timestamps.tobytes(), s.values.tobytes()) for s in signals]


def block_parser(path, layout):
    return parse_capture(path, format=layout).signals


def spy_blocks(monkeypatch):
    """The list of the blocks that ingest._parse_block is given from now on."""
    blocks = []
    parse_block = ingest._parse_block

    def spy(layout, text, *args):
        blocks.append(text)
        return parse_block(layout, text, *args)

    monkeypatch.setattr(ingest, "_parse_block", spy)
    return blocks


def spy_read_file(monkeypatch):
    """The list of the paths that a layout's whole-file read (numpy's C reader on the path) is given from now on;
    the reads of a block, given as io.StringIO, are not listed."""
    paths = []
    for cls in (ingest._Long, ingest._Wide):
        def spy(self, source, skip=0, read=cls.read):
            if isinstance(source, str):
                paths.append(source)
            return read(self, source, skip)
        monkeypatch.setattr(cls, "read", spy)
    return paths


def corrupt(rnd, lines, kind):
    """Break one data line past the first block, or the header line, or comment out every line;
    return the index in lines of the broken line."""
    if kind == "header_order":  # the time column is not first
        lines[0] = ",".join(reversed(lines[0].split(",")))
        return 0
    if kind == "header_duplicate":
        lines[0] += "," + lines[0].split(",")[1]
        return 0
    if kind == "header_quote":
        lines[0] = lines[0].replace("time", '"time"')
        return 0
    if kind == "comments_only":  # an empty file
        lines[:] = [f"# {line}" for line in lines]
        return None
    k = rnd.randrange(BLOCK_LINES + 100, len(lines))
    cells = lines[k].split(",")
    if kind == "cell_count":
        cells.append("1.0")
    elif kind == "time":
        cells[0] = " 12:00 " if len(cells) == 3 else "  "  # a blank wide time cell is no empty sample
    elif kind == "value":
        cells[-1 if len(cells) == 3 else 1] = "n/a"  # wide column a is dense
    elif kind == "duplicate":
        cells = lines[k - 1].split(",")
    lines[k] = ",".join(cells)
    return k


def small_capture(rnd):
    """(layout, text) of a valid file of a few rows: dense or sparse wide, or long; plain or decorated."""
    layout = rnd.choice(("long_csv", "wide_csv"))
    if layout == "wide_csv" and rnd.random() < 0.5:
        lines = dense_lines(rnd, 40, n_signals=3)
    else:
        lines = capture_lines(rnd, layout, 40)
    return layout, decorate(rnd, lines) if rnd.random() < 0.3 else "\n".join(lines) + "\n"


class TestParseParity:
    """The block parser against the row-by-row csv.reader oracle (tests/conftest.py)."""

    N_ROWS = 2 * BLOCK_LINES + 500

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_signals(self, tmp_path, layout, seed):
        rnd = random.Random(f"{layout}-{seed}")
        path = write_capture(tmp_path, rnd, capture_lines(rnd, layout, self.N_ROWS))
        expected = outcome(csv_reader_signals, path, layout)
        assert isinstance(expected, list) and len(expected) == 4
        assert outcome(block_parser, path, layout) == expected

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    @pytest.mark.parametrize("kind", ["cell_count", "time", "value", "duplicate",
                                      "header_order", "header_duplicate", "header_quote", "comments_only"])
    def test_same_errors(self, tmp_path, layout, kind):
        rnd = random.Random(f"{layout}-{kind}")
        lines = capture_lines(rnd, layout, self.N_ROWS)
        corrupt(rnd, lines, kind)
        path = write_capture(tmp_path, rnd, lines)
        expected = outcome(csv_reader_signals, path, layout)
        assert isinstance(expected, tuple)
        assert outcome(block_parser, path, layout) == expected
        if kind in ("cell_count", "time", "value"):
            assert expected[2] > BLOCK_LINES
        elif kind == "comments_only":
            assert expected[1:] == (f"{path}: empty file", None)
        elif kind.startswith("header"):
            assert expected[2] < BLOCK_LINES

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    def test_last_line_without_newline(self, tmp_path, layout):
        rnd = random.Random(f"{layout}-unterminated")
        path = write_capture(tmp_path, rnd, capture_lines(rnd, layout, self.N_ROWS))
        terminated = outcome(block_parser, path, layout)
        path.write_bytes(path.read_bytes().rstrip(b"\r\n"))
        assert isinstance(terminated, list)
        assert outcome(csv_reader_signals, path, layout) == outcome(block_parser, path, layout) == terminated

    def test_first_error_of_a_block_wins(self, tmp_path):
        rnd = random.Random(11)
        lines = capture_lines(rnd, "long_csv", self.N_ROWS)
        k = corrupt(rnd, lines, "value")
        lines[k + 3] += ",extra"
        path = write_capture(tmp_path, rnd, lines)
        expected = outcome(csv_reader_signals, path, "long_csv")
        assert "non-numeric value" in expected[1]
        assert outcome(block_parser, path, "long_csv") == expected

    def test_non_finite_value(self, tmp_path):
        rnd = random.Random(12)
        lines = capture_lines(rnd, "long_csv", self.N_ROWS)
        k = corrupt(rnd, lines, "value")
        lines[k] = lines[k].replace("n/a", "nan")
        path = write_capture(tmp_path, rnd, lines)
        expected = outcome(csv_reader_signals, path, "long_csv")
        assert "non-finite values" in expected[1]
        assert outcome(block_parser, path, "long_csv") == expected

    @pytest.mark.parametrize("literal", ["nan", "NaN", "inf"])
    def test_non_finite_beside_empty_cell(self, tmp_path, literal):
        # numpy's C reader reads a wide block's empty cells written as nan, which are no sample;
        # a literal nan or inf in such a block is still a non-finite value
        rnd = random.Random(f"fill-{literal}")
        lines = dense_lines(rnd, self.N_ROWS)
        for k in range(1, len(lines)):
            cells = lines[k].split(",")
            cells[1 + k % 5] = ""
            lines[k] = ",".join(cells)
        k = rnd.randrange(BLOCK_LINES, len(lines))
        cells = lines[k].split(",")
        cells[1 + (k + 2) % 5] = literal
        lines[k] = ",".join(cells)
        for path in (write(tmp_path, "\n".join(lines) + "\n"),
                     write(tmp_path, f"time,a,b\n0,{literal},\n1,2,3\n2,4,5\n", "small.csv")):
            expected = outcome(csv_reader_signals, path, "wide_csv")
            assert expected[0] is ParseError and expected[1].endswith(": non-finite values")
            assert outcome(block_parser, path, "wide_csv") == expected

    def test_mutated_input(self, tmp_path):
        # one character changed in a small file, by tokens that numpy's C reader and float() read differently
        rnd = random.Random("mutations")
        path = tmp_path / "cap.csv"
        for _ in range(1500):
            layout, text = small_capture(rnd)
            path.write_text(mutate(rnd, text), newline="")
            assert outcome(block_parser, path, layout) == outcome(csv_reader_signals, path, layout)

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    def test_run_of_empty_lines(self, tmp_path, layout, monkeypatch):
        # a block of only empty lines, which numpy's C reader would warn holds no data; the whole-file
        # read skips them, and a comment line declines it, so that the block reaches _parse_block
        rnd = random.Random(layout)
        lines = dense_lines(rnd, 600) if layout == "wide_csv" else capture_lines(rnd, layout, 600)
        text = "\n".join(lines[:300]) + "\n" * (2 * ingest.BLOCK_CHARS + 400) + "\n".join(lines[300:]) + "\n"
        path = tmp_path / "cap.csv"
        blocks = spy_blocks(monkeypatch)
        for comment in ("", "# the end\n"):
            path.write_text(text + comment)
            blocks.clear()
            expected = outcome(csv_reader_signals, path, layout)
            assert isinstance(expected, list) and outcome(block_parser, path, layout) == expected
            assert any(not block.strip("\n") for block in blocks) if comment else blocks == []

    @pytest.mark.parametrize("lines_of, layout, sid", [
        (lambda rnd, n: dense_lines(rnd, n), "wide_csv", "s0"),
        (lambda rnd, n: capture_lines(rnd, "wide_csv", n), "wide_csv", "a"),
        (lambda rnd, n: capture_lines(rnd, "long_csv", n), "long_csv", "ID_100_a"),
    ], ids=["dense_wide", "sparse_wide", "long"])
    @pytest.mark.parametrize("fault", ["inf_twice", "repeat_and_nan"])
    def test_repeated_and_non_finite(self, tmp_path, lines_of, layout, sid, fault):
        # inf - inf is nan, so a repeated inf time is a non-finite time, not a repeated one;
        # a repeated time is reported before a nan value; both faults are in the first signal, sid
        rnd = random.Random(f"{layout}-{sid}-{fault}")
        lines = lines_of(rnd, self.N_ROWS)
        # rows holding a sample of sid: every wide row (its column is dense), some long ones
        rows = [k for k in range(1, len(lines)) if layout == "wide_csv" or lines[k].split(",")[1].strip() == sid]
        k1, k2, k3 = rnd.sample(rows, 3)
        cells = {k: lines[k].split(",") for k in (k1, k2, k3)}
        if fault == "inf_twice":
            cells[k1][0] = cells[k2][0] = " inf"
            message = f"signal {sid}: non-finite timestamps"
        else:
            cells[k2][0] = cells[k1][0]
            cells[k3][2 if layout == "long_csv" else 1] = "nan"
            message = f"duplicate timestamp in signal {sid!r}"
        for k, row in cells.items():
            lines[k] = ",".join(row)
        path = write_capture(tmp_path, rnd, lines)
        expected = outcome(csv_reader_signals, path, layout)
        assert expected[:2] == (ParseError, f"{path}: {message}")
        assert outcome(block_parser, path, layout) == expected


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of a few hundred characters, so that a '\\r\\n' pair, a comment line and
    an empty line fall on a read boundary many times per file."""
    monkeypatch.setattr(ingest, "BLOCK_CHARS", 300)


@pytest.mark.usefixtures("small_blocks")
class TestParseParitySmallBlocks(TestParseParity):
    """Every parity test again with blocks of a few hundred characters."""


@pytest.mark.usefixtures("small_blocks")
class TestParseLongSmallBlocks:
    test_error_in_second_block = TestParseLong.test_error_in_second_block
    test_not_utf8_names_line = TestParseLong.test_not_utf8_names_line


def dense_lines(rnd, n_rows, n_signals=5):
    """Header and data lines of a wide capture with no blank cell, rows in time order."""
    return ["time," + ",".join(f"s{j}" for j in range(n_signals))] + [
        ",".join([repr(k / 64.0 + 3.0)] + [f"{rnd.gauss(0, 1):.6f}" for _ in range(n_signals)])
        for k in range(n_rows)]


class TestWideBlocks:
    """Blocks without an empty cell (a table from numpy's C reader), with one (the C reader's
    table with the cell as nan, then per-sample arrays) and with a cell the C reader refuses
    (walked line by line) against the csv.reader oracle."""

    def same_outcome(self, tmp_path, lines):
        path = tmp_path / "cap.csv"
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(csv_reader_signals, path, "wide_csv")
        assert outcome(block_parser, path, "wide_csv") == expected
        return expected

    def test_dense_and_sparse_blocks_alternate(self, tmp_path, monkeypatch, small_blocks):
        # dense and sparse blocks alike are read by the C reader, the sparse ones with each empty
        # cell written as nan; a block with a cell of only blanks or a numeral only float() reads
        # is refused by it and walked
        routes, walked = [], []
        read, walk = ingest._Wide.read, ingest._walk

        def read_spy(layout, source, skip=0):
            if isinstance(source, str):  # the whole-file read, which an empty cell declines
                return read(layout, source, skip)
            routes.append("refused")
            table = read(layout, source, skip)
            routes[-1] = "sparse" if "nan" in source.getvalue() else "dense"
            return table

        def walk_spy(layout, text, *args):
            walked.append(text)
            return walk(layout, text, *args)

        monkeypatch.setattr(ingest._Wide, "read", read_spy)
        monkeypatch.setattr(ingest, "_walk", walk_spy)
        rnd = random.Random(21)
        lines = dense_lines(rnd, 400)
        for k in range(1, len(lines)):
            if k // 40 % 2:  # runs of 40 rows, each far longer than a block
                cells = lines[k].split(",")
                cells[1 + k % 5] = ""
                lines[k] = ",".join(cells)
        marks = {100: " ", 130: "  ", 250: "1_0"}  # in a dense run, a sparse run and a dense run
        for k, cell in marks.items():
            cells = lines[k].split(",")
            cells[2 + k % 3] = cell
            lines[k] = ",".join(cells)
        assert isinstance(self.same_outcome(tmp_path, lines), list)
        assert 5 <= routes.count("sparse") and 5 <= routes.count("dense")
        assert routes.count("refused") == len(walked) == 3
        assert [[k for k in marks if lines[k] in text] for text in walked] == [[100], [130], [250]]

    @pytest.mark.parametrize("blank", ["\u3000", "\xa0", " \u3000\t"])
    def test_unicode_blank_is_no_sample(self, tmp_path, blank):
        # str.strip() empties these cells, as the oracle's does: no sample, not a bad cell
        lines = dense_lines(random.Random(22), 300)
        cells = lines[150].split(",")
        lines[150] = ",".join(cells[:2] + [blank] + cells[3:])
        expected = self.same_outcome(tmp_path, lines)
        assert [len(ts) // 8 for _, ts, _ in expected] == [300, 299, 300, 300, 300]

    def test_value_read_as_stripped(self, tmp_path):
        # float() rejects the leading '\x1c' that str.strip() removes; the oracle strips value cells
        lines = dense_lines(random.Random(23), 300)
        cells = lines[150].split(",")
        lines[150] = ",".join(cells[:2] + ["\x1c7.5"] + cells[3:])
        expected = self.same_outcome(tmp_path, lines)
        assert np.frombuffer(expected[1][2], dtype=float)[149] == 7.5

    @pytest.mark.parametrize("route", ["whole_file", "blocks", "walk"])
    def test_time_read_as_stripped(self, tmp_path, monkeypatch, route):
        # ... and so does a time cell, as numpy's C reader strips its blanks: the same time on every route
        lines = dense_lines(random.Random(23), 300)
        cells = lines[150].split(",")
        cells[0] = f"\x1c{cells[0]}\x1f"
        if route == "walk":  # a cell of only blanks, which the C reader refuses, sends the block to the walk
            cells[3] = " "
        lines[150] = ",".join(cells)
        if route == "blocks":
            monkeypatch.setattr(ingest, "_read_file", lambda *args: None)
        reads = spy_read_file(monkeypatch)
        walked = []
        walk = ingest._walk
        monkeypatch.setattr(ingest, "_walk", lambda *args: walked.append(args[1]) or walk(*args))
        expected = self.same_outcome(tmp_path, lines)
        assert np.frombuffer(expected[0][1], dtype=float)[149] == 149 / 64 + 3.0
        assert reads == ([str(tmp_path / "cap.csv")] if route != "blocks" else [])
        assert [lines[150] in text for text in walked] == ([True] if route == "walk" else [])

    def test_every_row_one_cell_too_many(self, tmp_path):
        # rows of equal length, so numpy's C reader reads them as a table, one column too wide
        lines = dense_lines(random.Random(26), 300)
        lines[1:] = [line + ",1.0" for line in lines[1:]]
        expected = self.same_outcome(tmp_path, lines)
        assert expected[1:] == (f"{tmp_path / 'cap.csv'}:2: expected 6 cells, got 7", 2)

    def test_dense_rows_out_of_time_order(self, tmp_path):
        rnd = random.Random(24)
        lines = dense_lines(rnd, 3000)
        body = lines[1:]
        rnd.shuffle(body)
        expected = self.same_outcome(tmp_path, lines[:1] + body)
        assert isinstance(expected, list) and len(expected) == 5

    def test_nan_time_in_dense_block(self, tmp_path):
        lines = dense_lines(random.Random(25), 3000)
        cells = lines[1200].split(",")
        lines[1200] = ",".join(["nan"] + cells[1:])
        expected = self.same_outcome(tmp_path, lines)
        assert expected[0] is ParseError and "non-finite timestamps" in expected[1]


def road_lines(rnd, duration_s=180.0):
    """Header and rows of a ROAD-shaped long capture in time order: 32 signals, 4 per CAN id, each id sent
    at 20, 10, 4 or 2 Hz from its own phase (about 52k rows, 1.8 MB)."""
    rows = []
    for group in range(8):
        rate = (20, 10, 4, 2)[group % 4]
        phase = rnd.random() / rate
        for k in range(int(duration_s * rate)):
            rows += [(phase + k / rate, f"ID_{0x100 + group:03X}_sig_{m}", rnd.gauss(0, 1)) for m in range(4)]
    rows.sort(key=lambda row: row[0])
    return ["time,signal,value"] + [f"{t:.6f},{sid},{v:.6g}" for t, sid, v in rows]


class TestWholeFileRead:
    """A well-formed regular file is read by one numpy C-reader call on its path; every other
    file by the block route, with the same outcome."""

    @pytest.mark.parametrize("layout, lines_of", [
        ("long_csv", road_lines),
        ("wide_csv", lambda rnd: dense_lines(rnd, 600, n_signals=128)),
    ], ids=["road_long", "dense_wide"])
    def test_same_bits_as_block_route(self, tmp_path, monkeypatch, layout, lines_of):
        path = write(tmp_path, "\n".join(lines_of(random.Random(0))) + "\n")
        blocks = spy_blocks(monkeypatch)
        whole = outcome(block_parser, path, layout)
        assert blocks == []
        monkeypatch.setattr(ingest, "_read_file", lambda *args: None)
        assert outcome(block_parser, path, layout) == whole
        assert isinstance(whole, list) and len(whole) in (32, 128) and len(blocks) > 1

    @pytest.mark.parametrize("layout, lines_of", [
        ("long_csv", road_lines),
        ("wide_csv", lambda rnd: dense_lines(rnd, 600, n_signals=128)),
    ], ids=["road_long", "dense_wide"])
    def test_decoded_once_by_numpy(self, tmp_path, monkeypatch, layout, lines_of):
        # numpy's one read of the path decodes the file; a comment line after the header makes that read
        # fail, and the block route reads the file afresh
        lines = lines_of(random.Random(0))
        calls = []

        def spy(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        monkeypatch.setattr(ingest, "_blocks", spy("_blocks", ingest._blocks))
        monkeypatch.setattr(np, "loadtxt", spy("loadtxt", np.loadtxt))
        reads = spy_read_file(monkeypatch)
        expected = None
        for name, text in [("plain", lines), ("note_first", ["# exported by a logger"] + lines),
                           ("note_after_header", lines[:1] + ["  # first row"] + lines[1:]),
                           ("note_mid_file", lines[:300] + ["# gap in the log"] + lines[300:])]:
            path = write(tmp_path, "\n".join(text) + "\n", f"{name}.csv")
            calls.clear()
            reads.clear()
            got = outcome(block_parser, path, layout)
            expected = expected or got
            assert isinstance(got, list) and got == expected, name
            if name in ("plain", "note_first"):  # one C read of the file, whatever precedes its header
                assert calls == ["loadtxt"] and reads == [str(path)], name
            else:  # one refused C read of the path, then the block route
                assert calls[:2] == ["loadtxt", "_blocks"] and reads == [str(path)], name

    @pytest.mark.parametrize("note", [False, True], ids=["whole_file", "block_route"])
    def test_dense_signals_share_one_read_only_time_array(self, tmp_path, monkeypatch, note):
        # one copy of a dense file's time column serves every signal, read-only so that a write through one
        # signal moves no other's times; a comment line after the header sends the file to the block route
        lines = dense_lines(random.Random(3), 600, n_signals=128)
        if note:
            lines = lines[:1] + ["# first row"] + lines[1:]
        path = write(tmp_path, "\n".join(lines) + "\n")
        blocks = spy_blocks(monkeypatch)
        cap = parse_capture(path)
        assert (len(blocks) > 1) == note
        times = cap.signals[0].timestamps
        assert len(cap.signals) == 128 and all(s.timestamps is times for s in cap.signals)
        assert not times.flags.writeable
        assert times.tolist() == [float(line.split(",")[0]) for line in lines[1:] if not line.startswith("#")]
        assert len({id(s.values) for s in cap.signals}) == 128

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    def test_lone_cr_line_ends(self, tmp_path, monkeypatch, layout):
        # a lone '\r' ends a line in numpy's read of the path as in the header's: the whole-file read takes it
        rnd = random.Random(layout)
        lines = dense_lines(rnd, 300) if layout == "wide_csv" else capture_lines(rnd, layout, 300)
        expected = outcome(block_parser, write(tmp_path, "\n".join(lines) + "\n", "plain.csv"), layout)
        reads = spy_read_file(monkeypatch)
        path = tmp_path / "cap.csv"
        for prefix in ("", "# exported\r\r", "# exported\n\r\n"):
            path.write_bytes((prefix + "\r".join(lines) + "\r").encode())
            reads.clear()
            assert outcome(block_parser, path, layout) == expected and reads == [str(path)], prefix
        # no data line: numpy warns, which refuses the whole-file read, and the block route finds no signals
        for tail in ("", "\r", "\r\r\n\r"):
            path.write_bytes((lines[0] + "\r" + tail).encode())
            reads.clear()
            assert outcome(block_parser, path, layout) == (DataError, f"{path}: capture contains no signals", None)
            assert reads == [str(path)], tail

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_no_data_line(self, tmp_path, monkeypatch, layout, eol):
        # numpy's C reader warns of a file with no data line: the whole-file read takes that warning, raised
        # or not, as a refusal, so none escapes, and the block route finds no signals
        header = "time,signal,value" if layout == "long_csv" else "time,a,b"
        path = tmp_path / "cap.csv"
        path.write_bytes((header + eol * 2).encode())
        reads = spy_read_file(monkeypatch)
        for action in ("error", "always"):
            reads.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                got = outcome(block_parser, path, layout)
            assert got == (DataError, f"{path}: capture contains no signals", None), action
            assert reads == [str(path)] and caught == [], action

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_is_plain_text(self, tmp_path, monkeypatch, layout, suffix):
        # numpy would decompress a file so named: it is read in blocks, as the text it is
        rnd = random.Random(1)
        text = "\n".join(dense_lines(rnd, 300) if layout == "wide_csv" else capture_lines(rnd, layout, 300)) + "\n"
        expected = outcome(block_parser, write(tmp_path, text, "plain.csv"), layout)
        blocks = spy_blocks(monkeypatch)
        named = write(tmp_path, text, "cap" + suffix)
        assert isinstance(expected, list) and outcome(block_parser, named, layout) == expected
        assert blocks and parse_capture(named, format=layout).capture_id == "cap"

    def test_fifo(self, tmp_path, monkeypatch):
        # a pass over a FIFO's text would use it up: it is read in blocks, once
        text = "\n".join(dense_lines(random.Random(2), 3000)) + "\n"
        expected = outcome(block_parser, write(tmp_path, text, "plain.csv"), "wide_csv")
        fifo = tmp_path / "cap.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        blocks = spy_blocks(monkeypatch)
        try:
            got = outcome(block_parser, fifo, "wide_csv")
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert isinstance(expected, list) and got == expected and blocks

    def test_relative_path_shaped_like_a_url(self, tmp_path, monkeypatch):
        # "http://localhost/cap.csv" is also the file cap.csv in the directory http:/localhost
        text = "\n".join(dense_lines(random.Random(3), 300)) + "\n"
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        expected = outcome(block_parser, write(tmp_path / "http:" / "localhost", text), "wide_csv")
        monkeypatch.chdir(tmp_path)
        blocks = spy_blocks(monkeypatch)
        assert isinstance(expected, list) and outcome(block_parser, "http://localhost/cap.csv", "wide_csv") == expected
        assert blocks == []

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    @pytest.mark.parametrize("fault", ["comment", "quote", "blank_1c", "not_utf8", "numeral", "cell_count",
                                       "quote@chunk_start", "quote@chunk_end", "quote@after_e_acute",
                                       "blank_1c@chunk_start", "blank_1c@chunk_end", "blank_1c@after_e_acute"])
    def test_late_fault_declines_whole_file(self, tmp_path, monkeypatch, layout, fault):
        # a fault in the last line sends the whole file to the block route, which starts afresh, and so does
        # a quote at the first or last byte of a BLOCK_CHARS span after the header, or after a 2-byte character
        # straddling two spans; a '\x1c' beside a cell is a blank to numpy's C reader and to str.strip(), so
        # the whole-file read reads the file
        rnd = random.Random(f"{layout}-{fault}")
        lines = dense_lines(rnd, 3000) if layout == "wide_csv" else capture_lines(rnd, layout, 3000)
        if "@" in fault:
            byte = {"quote": b'"', "blank_1c": b"\x1c"}[fault.split("@")[0]]
            raw = "\n".join(lines).encode() + b"\n"
            at = len(lines[0]) + 1 + BLOCK_CHARS  # the first byte of the second span after the header
            at, byte = {"chunk_start": (at, byte), "chunk_end": (at - 1, byte),
                        "after_e_acute": (at - 1, "\xe9".encode() + byte)}[fault.split("@")[1]]
            path = tmp_path / "cap.csv"
            path.write_bytes(raw[:at] + byte + raw[at:])
            assert path.read_bytes().index(byte) == at
            blocks = spy_blocks(monkeypatch)
            expected = outcome(csv_reader_signals, path, layout)
            assert outcome(block_parser, path, layout) == expected
            assert bool(blocks) == isinstance(expected, tuple)  # a '\x1c' inside a numeral is a bad cell
            return
        cells = lines[-1].split(",")
        if fault == "comment":
            lines.insert(-1, "  # a late note")
        elif fault == "quote":
            cells[1] = f'"{cells[1]}"'
        elif fault == "blank_1c":
            cells[-1] = "\x1c" + cells[-1]
        elif fault == "numeral":
            cells[-1] = "1_0"
        elif fault == "cell_count":
            cells.append("1.0")
        lines[-1] = ",".join(cells)
        path = write(tmp_path, "\n".join(lines) + "\n")
        if fault == "not_utf8":
            path.write_bytes(path.read_bytes() + b"9999.0,\xff,1\n")
        blocks = spy_blocks(monkeypatch)
        if fault == "not_utf8":  # named by the line it is on, which the oracle does not read
            expected = (ParseError, f"{path}:{len(lines) + 1}: not UTF-8 text (invalid start byte)", len(lines) + 1)
        else:
            expected = outcome(csv_reader_signals, path, layout)
        assert outcome(block_parser, path, layout) == expected
        assert bool(blocks) == (fault != "blank_1c")


class TestEmptySignalId:
    """A signal id that is empty, or only blanks, is a ParseError naming its line."""

    def test_wide_header(self, tmp_path):
        p = write(tmp_path, "# exported\ntime,s0,s1,s2,\n0.0,1,2,3,4\n0.1,2,3,4,5\n")
        with pytest.raises(ParseError, match="empty signal id in header") as exc:
            parse_capture(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("cell", ["", "  ", "\t", "\u3000"])
    @pytest.mark.parametrize("at", [5, BLOCK_LINES + 50])
    def test_long_row(self, tmp_path, cell, at):
        rows = [f"{i / 10},ID_{i % 3},{i}" for i in range(BLOCK_LINES + 100)]
        rows[at] = f"{at / 10},{cell},1.5"
        p = write(tmp_path, "time,signal,value\n" + "\n".join(rows) + "\n")
        expected = outcome(csv_reader_signals, p, "long_csv")
        assert expected[1:] == (f"{p}:{at + 2}: empty signal id", at + 2)
        assert outcome(block_parser, p, "long_csv") == expected


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" export writes, is skipped on either route."""

    @pytest.mark.parametrize("layout", ["long_csv", "wide_csv"])
    @pytest.mark.parametrize("route", ["whole_file", "blocks"])
    def test_same_as_without(self, tmp_path, monkeypatch, layout, route):
        rnd = random.Random(layout)
        lines = dense_lines(rnd, 300) if layout == "wide_csv" else capture_lines(rnd, layout, 300)
        text = "\n".join(lines) + "\n"
        expected = outcome(block_parser, write(tmp_path, text, "plain.csv"), layout)
        assert isinstance(expected, list) and len(expected) in (4, 5)
        reads = spy_read_file(monkeypatch)
        if route == "blocks":
            monkeypatch.setattr(ingest, "_read_file", lambda *args: None)
        for prefix in ("", "# exported\n", "\r\n"):
            path = tmp_path / "bom.csv"
            path.write_bytes(b"\xef\xbb\xbf" + (prefix + text).encode())
            reads.clear()
            assert outcome(block_parser, path, layout) == expected, prefix
            assert reads == ([str(path)] if route == "whole_file" else []), prefix

    def test_only_a_leading_mark(self, tmp_path):
        # U+FEFF anywhere else is a character of the line it is on
        p = tmp_path / "cap.csv"
        p.write_bytes(b"time,signal,value\n0.0,\xef\xbb\xbfA,1\n0.1,A,2\n")
        assert [s.signal_id for s in parse_capture(p, format="long_csv").signals] == ["\ufeffA", "A"]


class TestCut:
    """The per-sample cut against np.lexsort((times, sids)), the order it replaces."""

    @pytest.mark.parametrize("n_ids", [5, 300])  # 300 ids take the 16-bit signal index
    def test_matches_lexsort(self, rng, monkeypatch, n_ids):
        n = 5000
        shuffled = rng.integers(0, 40, n).astype(float)  # many ties
        special = rng.random(n) < 0.2
        shuffled[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], special.sum())
        sids = rng.integers(0, n_ids, n)
        assert n_ids < 256 or sids.max() >= 256
        values = np.arange(n, dtype=float)  # a sample's row, so the order shows in the values
        ids = [f"s{k}" for k in range(n_ids)]
        ordered = np.sort(np.where(np.isnan(shuffled), 1.5, shuffled))  # ties, and -0.0 and 0.0 among the zeros
        assert np.signbit(ordered[ordered == 0]).any() and not np.signbit(ordered[ordered == 0]).all()
        with_nan = ordered.copy()
        with_nan[n // 2] = np.nan  # in time order but for one nan, which no comparison orders
        time_sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw: time_sorts.append(a.dtype == float) or argsort(a, **kw))
        # (times, blocks, whether the samples are sorted by time first)
        for times, n_blocks, time_sort in [(shuffled, 3, True), (ordered, 1, False), (ordered, 3, False),
                                           (with_nan, 1, True), (with_nan, 3, True)]:
            cuts = np.sort(rng.choice(n, n_blocks - 1, replace=False))
            blocks = list(zip(*(np.split(a, cuts) for a in (times, values, sids))))
            time_sorts.clear()
            got = list(ingest._cut(blocks, ids))
            assert any(time_sorts) == time_sort
            order = np.lexsort((times, sids))
            expected = [(ids[k], times[order[sids[order] == k]], values[order[sids[order] == k]])
                        for k in range(n_ids) if (sids == k).any()]
            assert blocks == []
            assert [sid for sid, _t, _v in got] == [sid for sid, _t, _v in expected]
            for (_, t, v), (_, et, ev) in zip(got, expected):
                assert np.array_equal(v, ev)
                assert np.array_equal(t, et, equal_nan=True) and np.array_equal(np.signbit(t), np.signbit(et))


def make_capture(signals):
    return SignalCapture(capture_id="c", signals=tuple(signals))


class TestResample:
    def test_linear_midpoint(self):
        cap = make_capture([
            RawSignal("a", [0.0, 1.0], [0.0, 10.0]),
            RawSignal("b", [0.0, 1.0], [3.0, 1.0]),
        ])
        m = resample(cap, 2.0)
        # raw interpolation of 'a' at t=0.5 is 5.0; check via un-normalized reconstruction
        grid_vals = np.interp(m.grid, [0.0, 1.0], [0.0, 10.0])
        assert grid_vals[1] == 5.0
        assert m.grid.tolist() == [0.0, 0.5, 1.0]

    def test_constant_dropped(self):
        cap = make_capture([
            RawSignal("flat", [0.0, 0.5, 1.0], [7.3, 7.3, 7.3]),
            RawSignal("a", [0.0, 0.5, 1.0], [0.0, 1.0, 3.0]),
            RawSignal("b", [0.0, 0.5, 1.0], [5.0, 1.0, 2.0]),
        ])
        m = resample(cap, 2.0)
        assert m.dropped_constant == ("flat",)
        assert "flat" not in m.signal_ids

    def test_rows_unit_norm_and_centered(self, rng):
        sigs = [RawSignal(f"s{i}", np.arange(50) / 10.0, rng.normal(size=50)) for i in range(4)]
        m = resample(make_capture(sigs), 10.0)
        for row in m.data:
            assert abs(np.dot(row, row) - 1.0) < 1e-9
            assert abs(row.sum()) < 1e-9

    def test_idempotence_on_uniform_signal(self, rng):
        ts = np.arange(100) / 10.0
        vals = rng.normal(size=100)
        m = resample(make_capture([RawSignal("a", ts, vals), RawSignal("b", ts, rng.normal(size=100))]), 10.0)
        centered = vals - np.interp(m.grid, ts, vals).mean()
        # resampled row equals the directly normalized original
        expected = (vals - vals.mean()) / np.linalg.norm(vals - vals.mean())
        assert np.max(np.abs(m.data[0] - expected)) < 1e-12

    def test_interpolation_monotone_bounded(self, rng):
        ts = np.sort(rng.uniform(0, 10, size=30))
        ts[0], ts[-1] = 0.0, 10.0
        vals = rng.normal(size=30)
        grid = np.arange(0, 10.01, 0.1)
        interp = np.interp(grid, ts, vals)
        for g, v in zip(grid, interp):
            i = np.searchsorted(ts, g, side="right")
            lo = vals[max(i - 1, 0)]
            hi = vals[min(i, len(vals) - 1)]
            assert min(lo, hi) - 1e-12 <= v <= max(lo, hi) + 1e-12

    def test_order_invariance(self, rng):
        sigs = [RawSignal(f"s{i}", np.arange(40) / 10.0, rng.normal(size=40)) for i in range(5)]
        m1 = resample(make_capture(sigs), 10.0)
        m2 = resample(make_capture(sigs[::-1]), 10.0)
        for sid in m1.signal_ids:
            r1 = m1.data[m1.signal_ids.index(sid)]
            r2 = m2.data[m2.signal_ids.index(sid)]
            assert np.array_equal(r1, r2)

    @pytest.mark.parametrize("sid", ["a", ""])
    def test_duplicate_signal_id(self, sid):
        # only an in-memory capture can repeat an id: resample, which orders the signals, names it
        ts = np.arange(20) / 10.0
        cap = make_capture([RawSignal(sid, ts, np.sin(ts)), RawSignal("b", ts, np.cos(ts)), RawSignal(sid, ts, ts)])
        with pytest.raises(DataError, match=f"^c: duplicate signal id '{sid}'$"):
            resample(cap, 10.0)

    def test_signals_in_id_order_whatever_their_order(self):
        # rows, signal_ids and dropped_constant come out in id order, the same bits for any order of the signals
        rnd = random.Random(0)
        ts = np.arange(60) / 10.0
        signals = [RawSignal(f"s{k}", ts, np.full(60, 1.5) if k % 4 == 1 else np.sin(ts * (k + 1)) + k)
                   for k in range(12)]
        expected = resampled(resample, make_capture(signals), 10.0)
        assert expected[1] == ("s0", "s10", "s11", "s2", "s3", "s4", "s6", "s7", "s8")
        assert expected[2] == ("s1", "s5", "s9")
        for _ in range(5):
            rnd.shuffle(signals)
            assert resampled(resample, make_capture(signals), 10.0) == expected

    def test_intersection_window(self):
        cap = make_capture([
            RawSignal("a", [0.0, 5.0], [0.0, 5.0]),
            RawSignal("b", [2.0, 9.0], [1.0, 0.0]),
        ])
        m = resample(cap, 1.0)
        assert m.grid[0] == 2.0 and m.grid[-1] == 5.0

    def test_insufficient_overlap(self):
        cap = make_capture([
            RawSignal("a", [0.0, 1.0], [0.0, 1.0]),
            RawSignal("b", [0.95, 2.0], [1.0, 0.0]),
        ])
        with pytest.raises(InsufficientOverlapError):
            resample(cap, 2.0)

    def test_all_constant_degenerate(self):
        cap = make_capture([RawSignal("a", [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])])
        with pytest.raises(DegenerateCaptureError):
            resample(cap, 2.0)

    @pytest.mark.parametrize("frequency_hz", [0.0, -10.0, np.inf, np.nan])
    def test_bad_frequency(self, frequency_hz):
        cap = make_capture([RawSignal("a", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0])])
        with pytest.raises(ValueError, match="^frequency_hz must be positive and finite$"):
            resample(cap, frequency_hz)

    def test_empty_capture(self):
        with pytest.raises(DataError, match=r"^c: empty capture$"):
            resample(make_capture([]))

    def test_grid_point_cap(self, monkeypatch):
        # a corrupt stamp 1e15 s out would otherwise ask for 1e16 grid points
        for end in (1e15, 1e300):
            cap = make_capture([RawSignal("a", [0.0, end], [0.0, 1.0]),
                                RawSignal("b", [-end, end], [1.0, 0.0])])
            with pytest.raises(DataError, match="grid points"):
                resample(cap, 10.0)
        # the cap itself is allowed, one point or value (signals x grid points) more is not
        monkeypatch.setattr(ingest, "MAX_GRID_POINTS", 50)
        for signals, end, error in ((1, 4.9, None), (1, 5.0, "needs 51 grid points at 10.0 Hz, more than the 50"),
                                    (2, 2.4, None), (2, 2.5, "2 signals on 26 grid points at 10.0 Hz need 52 values")):
            cap = make_capture([RawSignal("a", [0.0, end], [0.0, 1.0]),
                                RawSignal("b", [0.0, end], [1.0, 0.0])][:signals])
            if error is None:
                assert resample(cap, 10.0).data.size == 50
            else:
                with pytest.raises(DataError, match=error):
                    resample(cap, 10.0)

    def test_value_cap_before_allocation(self, tmp_path):
        # three rows of four signals span 9,990,001 grid points at 10 Hz, within the grid-point cap, but
        # 4 x 9,990,001 values, 320 MB, are not: the capture is refused before any grid-sized array exists
        cap = parse_capture(write(tmp_path, "time,a,b,c,d\n0,1,2,3,4\n500000,2,3,4,1\n999000,3,1,2,4\n"))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^cap: 4 signals on 9990001 grid points at 10.0 Hz need 39960004 "
                                                r"values, more than the 10000000 allowed$"):
                resample(cap, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_value_limit(self):
        # at the limit the mean and the norm of a full grid stay finite; beyond it, a value is rejected first
        limit = ingest.MAX_ABS_VALUE
        assert 4 * ingest.MAX_GRID_POINTS * limit ** 2 <= (0.5 + 1e-12) * np.finfo(float).max  # half, up to rounding
        ts = np.arange(1000) / 10.0
        wave = np.where(np.arange(1000) % 2, limit, -limit)
        other = RawSignal("b", ts, np.arange(1000.0))
        m = resample(make_capture([RawSignal("a", ts, wave), other]), 10.0)
        assert abs(np.dot(m.data[0], m.data[0]) - 1.0) < 1e-12
        for big in (np.nextafter(limit, np.inf), 3e200, -np.finfo(float).max):
            values = wave.copy()
            values[500] = big
            message = r"^c: signal 'a' holds a value of magnitude above 1\.5e\+150, the most allowed$"
            with pytest.raises(DataError, match=message):
                resample(make_capture([other, RawSignal("a", ts, values)]), 10.0)

    def test_grid_uniform_spacing(self, rng):
        sigs = [RawSignal(f"s{i}", np.arange(77) / 7.0, rng.normal(size=77)) for i in range(2)]
        m = resample(make_capture(sigs), 7.0)
        spacing = np.diff(m.grid)
        assert np.all(np.abs(spacing - 1.0 / 7.0) < 1e-9 / 7.0)



def resampled(fn, capture, frequency_hz):
    """A resampled capture as bytes and ids, or its error as (class, message)."""
    try:
        m = fn(capture, frequency_hz)
    except DataError as exc:
        return type(exc), str(exc)
    return (m.capture_id, m.signal_ids, m.dropped_constant, m.grid.tobytes(), m.data.shape, m.data.tobytes())


class TestResampleParity:
    """resample() against the one-signal-at-a-time loop oracle (tests/conftest.py), bit for bit."""

    def same(self, capture, frequency_hz=10.0):
        expected = resampled(loop_resample, capture, frequency_hz)
        assert resampled(resample, capture, frequency_hz) == expected
        return expected

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("frequency_hz", [10.0, 7.3])
    def test_dense_synth(self, seed, frequency_hz):
        spec = SynthSpec(n_groups=6, signals_per_group=4, duration_s=60.0, rate_hz=10.0, seed=seed)
        capture = generate(spec, capture_id=f"synth_{seed}")
        # a max_value attack holds its targets constant: they are dropped
        pinned = inject(capture, AttackSpec("max_value", (signal_id(1, 0), signal_id(4, 2)), 0.0, 60.0))
        for cap in (capture, pinned):
            expected = self.same(cap, frequency_hz)
            assert len(expected[1]) == 24 - 2 * (cap is pinned)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_mixed_rates(self, seed):
        # ROAD-like: each signal at its own rate with jittered stamps and its own window; some constant
        rng = np.random.default_rng(seed)
        signals = []
        for k in range(40):
            rate = (20, 10, 4, 2)[k % 4]
            ts = np.cumsum(rng.uniform(0.5, 1.5, size=int(180 * rate)) / rate) + rng.uniform(0, 2)
            vs = np.full(ts.size, 3.0) if k % 9 == 4 else rng.normal(size=ts.size).cumsum() * 10.0 ** (k % 7 - 3)
            signals.append(RawSignal(f"s{k}", ts, vs))
        expected = self.same(SignalCapture("sparse", tuple(signals)), 10.0)
        assert len(expected[2]) == 4 and expected[4][1] > 1000

    def test_constant_tolerance_boundary(self):
        # sampled on the grid, so each row is its samples; ranges just below, at and above the tolerance
        ts = np.arange(20) / 10.0
        signals = []
        for level in (0.25, 1.0, 5.0, -40.0):
            tol = CONSTANT_TOL * max(1.0, abs(level))
            for k, spread in enumerate((0.5 * tol, np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 2 * tol)):
                signals.append(RawSignal(f"l{level}_{k}", ts, level - spread * (np.arange(20) % 2)))
        expected = self.same(make_capture(signals))
        assert 0 < len(expected[1]) < len(signals) and 0 < len(expected[2])

    def test_one_kept_signal(self):
        ts = np.arange(30) / 10.0
        signals = [RawSignal("flat0", ts, np.full(30, 2.0)), RawSignal("kept", ts, np.sin(ts)),
                   RawSignal("flat1", ts, np.full(30, -1e6))]
        expected = self.same(make_capture(signals))
        assert expected[1:3] == (("kept",), ("flat0", "flat1")) and expected[4] == (1, 30)

    def test_all_constant(self):
        ts = np.arange(30) / 10.0
        expected = self.same(make_capture([RawSignal(f"flat{k}", ts, np.full(30, float(k))) for k in range(3)]))
        assert expected == (DegenerateCaptureError, "c: all signals constant on the common grid")

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_huge_value_in_signal_k(self, rng, k):
        # the first offender is named, whatever the signals before it; a later one is not reached
        ts = np.arange(50) / 10.0
        signals = [RawSignal(f"s{j}", ts, rng.normal(size=50) if j % 2 else np.full(50, 1.0)) for j in range(8)]
        for j, big in ((k, -np.nextafter(MAX_ABS_VALUE, np.inf)), (7, 3e200)):
            values = signals[j].values.copy()
            values[25] = big
            signals[j] = RawSignal(f"s{j}", ts, values)
        expected = self.same(make_capture(signals))
        assert expected[0] is DataError and expected[1].startswith(f"c: signal 's{k}' holds a value")


class TestRawSignalInvariants:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            RawSignal("a", [0.0, 1.0], [1.0])

    def test_non_finite(self):
        with pytest.raises(DataError):
            RawSignal("a", [0.0, 1.0], [1.0, float("nan")])
        with pytest.raises(DataError, match="non-finite timestamps"):
            RawSignal("a", [0.0, float("inf")], [1.0, 2.0])

    def test_decreasing_timestamps(self):
        with pytest.raises(DataError):
            RawSignal("a", [1.0, 0.0], [1.0, 2.0])
