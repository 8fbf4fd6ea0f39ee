import math
import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

from rotorpair.config import build_config
from rotorpair.exceptions import InvalidConfigError
from rotorpair.output import (
    CSV_CHUNK_ROWS,
    FAILURE_MARKER,
    FLOAT_FORMAT,
    csv_header,
    plot_csv,
    read_timeseries_csv,
    write_timeseries_csv,
)
from rotorpair.runner import run_config


def _rows(count, pops=(0.25,)):
    """CSV rows t_ps, cos1, cos2, entropy, norm, energy_rot, populations."""
    return np.array([[k * 0.5, math.sin(0.1 * k) / 3.0, -0.01 * k, 0.001 * k,
                      1.0 - 1e-12 * k, 1.0 / 3.0 + k, *pops] for k in range(count)])


WATCH = ((1, 0, 1, 0),)


def test_header_is_the_exact_contract_string():
    assert csv_header(()) == "t_ps,cos1,cos2,entropy,norm,energy_rot"
    assert csv_header(WATCH) == "t_ps,cos1,cos2,entropy,norm,energy_rot,pop_1_0_1_0"
    assert csv_header(((2, -1, 1, 1),)).endswith(",energy_rot,pop_2_-1_1_1")
    assert " " not in csv_header(((2, -1, 1, 1), (0, 0, 0, 0)))


def test_floats_carry_17_significant_digits():
    for x in (1.0 / 3.0, 0.1 + 0.2, 1e-300, -math.pi, 12345.678901234567):
        assert float(FLOAT_FORMAT % x) == x
    assert FLOAT_FORMAT % 0.5 == "0.5"
    assert FLOAT_FORMAT % 0.0 == "0"


@pytest.mark.parametrize("table", [
    [[math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300, 0.1],
     [3.0, -7.0, 1e20, 2.0**53 + 2.0, 1.0 / 3.0, -1e-310, 0.0]],
    [[0, -1, 2, 3, 10**17, -(10**20), 7]],
], ids=["special_floats", "integers"])
def test_row_formatting_writes_the_bytes_of_per_cell_formatting(tmp_path, table):
    path = write_timeseries_csv(tmp_path / "run.csv", WATCH, table)
    cells = np.asarray(table).tolist()
    expected = "\n".join([csv_header(WATCH)] + [",".join(f"{v:.17g}" for v in row) for row in cells]) + "\n"
    assert path.read_bytes() == expected.encode()
    assert all(FLOAT_FORMAT % v == f"{v:.17g}" for row in cells for v in row)


def test_chunked_rows_write_the_bytes_of_one_line_per_row(tmp_path):
    # two full chunks, a partial one and the marker row
    rows = _rows(2 * CSV_CHUNK_ROWS + 7)
    path = write_timeseries_csv(tmp_path / "run.csv", WATCH, rows, failure_message="stopped, early")
    lines = [csv_header(WATCH)] + [",".join(f"{v:.17g}" for v in row) for row in rows.tolist()]
    assert path.read_bytes() == ("\n".join(lines + [f'{FAILURE_MARKER},"stopped, early"']) + "\n").encode()
    assert write_timeseries_csv(tmp_path / "empty.csv", WATCH, rows[:0]).read_bytes() == (lines[0] + "\n").encode()


def test_a_long_csv_is_written_without_its_whole_text_in_memory(tmp_path):
    table = np.random.default_rng(7).standard_normal((50_000, 7))
    tracemalloc.start()
    try:
        path = write_timeseries_csv(tmp_path / "run.csv", WATCH, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_write_read_round_trip(tmp_path):
    rows = _rows(4)
    path = write_timeseries_csv(tmp_path / "run.csv", WATCH, rows)
    header, columns, failure = read_timeseries_csv(path)
    assert failure is None
    assert header == ["t_ps", "cos1", "cos2", "entropy", "norm", "energy_rot", "pop_1_0_1_0"]
    assert columns["t_ps"] == [0.0, 0.5, 1.0, 1.5]
    assert columns["cos1"] == rows[:, 1].tolist()  # exact, 17 digits
    assert columns["pop_1_0_1_0"] == [0.25] * 4


def test_a_csv_write_that_fails_halfway_leaves_no_torn_file(tmp_path, torn_writes):
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_text("t_ps\n", encoding="utf-8")
    for path in (fresh, old):
        with pytest.raises(OSError, match="interrupted"):
            write_timeseries_csv(path, WATCH, _rows(50))
    assert not fresh.exists()
    assert old.read_bytes() == b"t_ps\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]  # nor a temporary


def test_csv_bytes_are_deterministic_and_lf_terminated(tmp_path):
    a = write_timeseries_csv(tmp_path / "a.csv", WATCH, _rows(3))
    b = write_timeseries_csv(tmp_path / "b.csv", WATCH, _rows(3))
    raw_a = a.read_bytes()
    assert raw_a == b.read_bytes()
    assert b"\r" not in raw_a
    assert raw_a.endswith(b"\n")
    assert raw_a.count(b"\n") == 4  # header + 3 rows


def test_failure_marker_row(tmp_path):
    message = 'norm drifted by 3.1e-07, window [0, 0.059]'
    path = write_timeseries_csv(tmp_path / "run.csv", WATCH, _rows(2),
                                failure_message=message)
    lines = path.read_text().splitlines()
    assert lines[-1].startswith(FAILURE_MARKER + ",")
    header, columns, failure = read_timeseries_csv(path)
    assert failure == message
    assert len(columns["t_ps"]) == 2  # marker row is not data


def test_failure_message_with_commas_and_quotes_survives(tmp_path):
    message = 'drift, at "sample" 3'
    path = write_timeseries_csv(tmp_path / "run.csv", (), _rows(1, pops=()),
                                failure_message=message)
    _, _, failure = read_timeseries_csv(path)
    assert failure == message


def test_reader_rejects_non_timeseries_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InvalidConfigError):
        read_timeseries_csv(empty)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidConfigError):
        read_timeseries_csv(wrong)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(csv_header(()) + "\n1,2,3\n")
    with pytest.raises(InvalidConfigError):
        read_timeseries_csv(ragged)
    repeated = tmp_path / "repeated.csv"
    repeated.write_text(csv_header(WATCH * 2) + "\n" + ",".join(["0.1"] * 8) + "\n")
    with pytest.raises(InvalidConfigError, match="repeats a column name"):
        read_timeseries_csv(repeated)


# --- SVG ---------------------------------------------------------------------

def test_plot_renders_stacked_panels(tmp_path):
    csv_path = write_timeseries_csv(tmp_path / "fig.csv", WATCH, _rows(40))
    out = plot_csv(csv_path, tmp_path / "plots")
    assert out.name == "fig.svg"
    svg = out.read_text()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')
    assert 'viewBox' in svg
    assert svg.rstrip().endswith("</svg>")
    # orientation (2 traces), entropy, energy, populations (1 trace)
    assert svg.count("<polyline") == 5
    assert "t (ps)" in svg


def test_plot_without_watch_columns_skips_the_population_panel(tmp_path):
    csv_path = write_timeseries_csv(tmp_path / "bare.csv", (), _rows(8, pops=()))
    svg = plot_csv(csv_path, tmp_path).read_text()
    assert svg.count("<polyline") == 4  # cos1, cos2, entropy, energy


def test_plot_of_a_failed_run_uses_the_partial_rows(tmp_path):
    csv_path = write_timeseries_csv(tmp_path / "part.csv", WATCH, _rows(5),
                                    failure_message="stopped early")
    out = plot_csv(csv_path, tmp_path)
    assert out.exists()


def test_plot_leaves_out_non_finite_points(tmp_path):
    # a diverged run ends with a row of NaN; a NaN first row must not poison the axes either
    rows = _rows(6)
    rows[0, 1:] = rows[-1, 1:] = math.nan
    rows[3, 3] = math.inf
    csv_path = write_timeseries_csv(tmp_path / "nan.csv", WATCH, rows, failure_message="diverged")
    svg = plot_csv(csv_path, tmp_path).read_text()
    assert "nan" not in svg.lower() and "inf" not in svg.lower()
    # the infinite entropy sample splits its trace in two
    assert svg.count("<polyline") == 6


def test_every_svg_is_well_formed_xml(tmp_path):
    # the labels "<cos>" and "<L^2>", and every column name a CSV header gives, are escaped text, not markup
    run = run_config(build_config({"basis": {"l_max": 2}, "output": {"total_time_ps": 5}}), tmp_path / "run")
    hand = tmp_path / "hand.csv"
    hand.write_text(csv_header(WATCH) + ",pop_<a&b>\n" + ",".join(["0.5"] * 8) + "\n")
    for csv_path in (run.csv_path, hand):
        root = ElementTree.parse(plot_csv(csv_path, tmp_path / "plots")).getroot()
        texts = {node.text for node in root.iter("{http://www.w3.org/2000/svg}text")}
        assert {"orientation", "<cos>", "<L^2>", "t (ps)"} <= texts
    assert {"pop_1_0_1_0", "pop_<a&b>"} <= texts


def test_plot_needs_data_rows(tmp_path):
    csv_path = write_timeseries_csv(tmp_path / "none.csv", WATCH, [])
    with pytest.raises(InvalidConfigError):
        plot_csv(csv_path, tmp_path)
