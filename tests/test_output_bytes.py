"""Output bytes: golden SHA-256 of every data file from small fixed runs,
and the shared CSV writer checked byte for byte against ``csv.writer``.

The hashes pin the exact bytes the commands write, so a change to the
output path (row formatting, line ends, column order) shows up here even
when every value still parses to the same float.  They were recorded on
x86-64 Linux with numpy 2.4; a platform whose libm rounds a sine or cosine
differently in the last bit writes different bytes.
"""
import csv
import functools
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import PhysicalParams, cli, derived_constants, make_gauge, manifest
from nclab import sector_energy_series
from nclab.cli import main, params_from_ratio
from nclab.manifest import CSV_BLOCK_VALUES, write_csv, write_csv_blocks, write_json
from nclab.observables import SectorEnergySeries

RATIO_XI = ["xi", "--ratio", "0.002", "--t-max", "20", "--grid-points", "300"]

# name -> (argv, {relative path: sha256}); every run exits 0.
GOLDEN = {
    "simulate_both": (
        ["simulate", "--theta", "0.04", "--eta", "0.01", "--method", "both", "--t-max", "4"],
        {
            "trajectory_analytic.csv": "4fc014916dcba327d8347a561afaf168ace728082eb5b5a376e968b4d21cf55a",
            "trajectory_rk4.csv": "7eb2f3d9352da13f150a2970ffb8d75ce4e02751ac2bde35898d491064cf94d2",
        },
    ),
    "xi_closed_form": (
        RATIO_XI + ["--source", "closed_form"],
        {"xi_closed_form.csv": "4117a63cd53535b776aaa1981191f7212edd0c1db2cf92f4c54e704998484393"},
    ),
    "xi_degenerate_form": (
        RATIO_XI + ["--source", "degenerate_form"],
        {"xi_degenerate_form.csv": "22ece5b9a62afe089a9f3aaafb15a81fc490adbf783865487a20748e2065c039"},
    ),
    "xi_first_order": (
        RATIO_XI + ["--source", "first_order"],
        {"xi_first_order.csv": "ede616cb3b76230bd258c88717f4215f5ea383e4e5e467e0976f39728f54cd1c"},
    ),
    "xi_trajectory": (
        RATIO_XI + ["--source", "trajectory"],
        {"xi_trajectory.csv": "f6f857b491326e9e87190c3acbb70f9557dbf1e41d9d899e9bc4813ddf63d325"},
    ),
    "wigner_excited": (
        [
            "wigner", "--theta", "0.04", "--eta", "0.01", "--n1", "1", "--n2", "0",
            "--grid-points", "11", "--residual-points", "2", "--nodes", "20",
        ],
        {
            "wigner_residuals.json": "522adc3f9e694c6ab4eb1e65363bfe4daf43b54f7cec170527aabd6ef2a45148",
            "wigner_slice.csv": "27581d5b2b4a67d8bb0872aa6c84f53eb99ea31f7e764fa4be6ecd6d98d06f23",
        },
    ),
    # 5000 rows: the full series spans more than one formatting block.
    "figure1": (
        ["figure", "1", "--grid-points", "5000"],
        {
            "figure1_full.csv": "40c560c5f4974f8c11f57fcd694697de7267a56e4bfc8b1d60123bc4aea26ea4",
            "figure1_zoom.csv": "46196d4db3e1383f19eeddd9e6ce95e1ea3e955b4a94864615c819f1079ae327",
        },
    ),
    "figure2": (
        ["figure", "2", "--grid-points", "500"],
        {"figure2.csv": "0ad073285d2024f82fafac9600d6fc9934604ed22c9335c5fa11c23794ebf0bb"},
    ),
    "sweep": (
        ["sweep", "--ratios", "0.001,0.002", "--grid-points", "300"],
        {
            "r_0.001/xi_closed_form.csv": "b5a2f2c048ec797db93813b612cf97c351019c67108970c4760391332405fd1a",
            "r_0.001/xi_first_order.csv": "a2f6ce224134b670beefd7ee03aba27d549ca973e1dfdec0892a3d51cd132358",
            "r_0.002/xi_closed_form.csv": "7ef42910232fa8375d67718d02fccc959100056c8b10356d25adc941acdd9f06",
            "r_0.002/xi_first_order.csv": "7875b50e85a56bb2c352f30fa7725f0713b9f971867870a1a0084cc0fd06d9e6",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(tmp_path, name):
    argv, expected = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    written = sorted(
        str(p.relative_to(tmp_path))
        for p in tmp_path.rglob("*")
        if p.suffix == ".csv" or p.name == "wigner_residuals.json"
    )
    assert written == sorted(expected)
    assert not list(tmp_path.rglob("*.tmp"))
    for rel, digest in expected.items():
        assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest, rel


def whole_figure1(n):
    """Figure 1's full series at its default settings as whole arrays, and
    its beat in Omega*t."""
    params = params_from_ratio(0.002)
    dc = derived_constants(params, make_gauge(params, 1.0))
    beat = math.pi * dc.omega_big / abs(dc.gamma)
    return dc, sector_energy_series(dc, np.linspace(0.0, 3.0 * beat, n)), beat


def whole_partition(series):
    return np.max(np.abs(series.xi1 + series.xi2 - 1.0))


def whole_pair_gap(a, b):
    return max(np.max(np.abs(a.xi1 - b.xi1)), np.max(np.abs(a.xi2 - b.xi2)))


def whole_first_order_rel_err(first, closed):
    dev = np.max(np.abs(closed.xi1 - 0.5))
    return whole_pair_gap(first, closed) / dev if dev > 0.0 else 0.0


def read_checks(path):
    """A manifest's checks and measured values, by name."""
    report = json.loads(path.read_text())
    return {c["name"]: c["value"] for c in report["checks"]}, report["measured_constants"]


@pytest.fixture
def format_calls(monkeypatch):
    """The sizes of every _format_floats call, in order."""
    calls = []
    format_floats = manifest._format_floats

    def spy(x, out):
        calls.append(len(x))
        format_floats(x, out)

    monkeypatch.setattr(manifest, "_format_floats", spy)
    return calls


# xi and sweep at one row either side of a row block (4800 rows) and over
# two blocks; figure 1 also at each side of a formatter call (1600 rows) and
# at its default grid.  xi runs at non-unit scales on the degenerate surface,
# so that every source applies; the command computes on the model's core.
XI_ARGS = ["--ratio", "0.05", "--m", "1.3", "--hbar", "0.8"]
SERIES_RUNS = [("figure1", n) for n in (2, 1599, 1600, 4799, 4800, 4801, 9601, 200000)] + [
    (command, n)
    for command in ["xi-%s" % source for source in cli.SOURCES] + ["sweep"]
    for n in (2, 4799, 4800, 4801, 9601)
]


@pytest.mark.parametrize(
    "command, n",
    SERIES_RUNS,
    ids=[str(n) if c == "figure1" else "%s-%d" % (c, n) for c, n in SERIES_RUNS],
)
def test_figure1_in_blocks_writes_and_checks_as_the_whole_grid(
    tmp_path, format_calls, command, n
):
    # Each streamed file is the bytes of the whole series' write, from as
    # many formatter calls, and each check is its whole-grid reduction.
    out = tmp_path / "out"
    if command == "figure1":
        assert main(["figure", "1", "--grid-points", str(n), "--out", str(out)]) == 0
        streamed = len(format_calls)
        dc, full, beat = whole_figure1(n)
        full.write_csv(tmp_path / "whole.csv")
        assert (out / "figure1_full.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        # As many formatter calls as the whole write, plus the zoom's 4000 rows.
        assert streamed - math.ceil(4000 / block_rows(3)) == len(format_calls) - streamed

        one_beat = full.times <= beat
        top, bottom = np.argmax(full.xi1[one_beat]), np.argmin(full.xi2[one_beat])
        traj = sector_energy_series(dc, full.times[[0, top, bottom]], "trajectory")
        report = json.loads((out / "figure1_manifest.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        for name, value, want in (
            ("envelope_max_xi1", full.xi1[top], traj.xi1[1]),
            ("envelope_min_xi2", full.xi2[bottom], traj.xi2[2]),
        ):
            assert checks[name]["value"] == value
            assert checks[name]["bound"] == [want - 1e-3, want + 1e-3]
        assert checks["energy_partition"]["value"] == whole_partition(full)
        return

    omega_t = np.linspace(0.0, 40.0, n)
    if command == "sweep":
        argv = ["sweep", "--ratios", "0.001,0.002"]
        cells = {}
        for r in (0.001, 0.002):
            params = params_from_ratio(r)
            dc = derived_constants(params, make_gauge(params, 1.0))
            cells["r_%g/" % r] = [
                sector_energy_series(dc, omega_t, source)
                for source in ("closed_form", "first_order")
            ]
    else:
        source = command[3:]
        argv = ["xi", "--source", source] + XI_ARGS
        params = params_from_ratio(0.05, "single_theta", PhysicalParams(1.3, 1.0, 0.8))
        dc = derived_constants(params, make_gauge(params, 1.0))
        cells = {"": [sector_energy_series(dc.core, omega_t, s) for s in (source, "closed_form")]}
    assert main(argv + ["--grid-points", str(n), "--out", str(out)]) == 0
    streamed = len(format_calls)

    # Each cell's written series and its partner: the closed form for xi; for
    # a sweep cell the closed form is written and checked, with the first-order
    # series as its partner and second file.
    errs = []
    for cell, (series, partner) in cells.items():
        for whole in [series, partner] if command == "sweep" else [series]:
            name = "%sxi_%s.csv" % (cell, whole.source)
            whole.write_csv(tmp_path / "whole.csv")
            assert (out / name).read_bytes() == (tmp_path / "whole.csv").read_bytes(), name
        manifest_name = cell + "manifest.json" if cell else "xi_manifest.json"
        checks, measured = read_checks(out / manifest_name)
        assert checks["energy_partition"] == whole_partition(series)
        if command == "sweep":
            errs.append(whole_first_order_rel_err(partner, series))
            assert measured["first_order_rel_err"] == errs[-1]
        elif series.source == "trajectory":
            assert checks["trajectory_matches_closed"] == whole_pair_gap(series, partner)
        elif series.source == "first_order":
            assert measured["first_order_rel_err"] == whole_first_order_rel_err(series, partner)
        else:
            assert "first_order_rel_err" not in measured
    if command == "sweep":
        checks, _ = read_checks(out / "index.json")
        assert checks == {"error_scaling_r_0.001_to_r_0.002": errs[1] / errs[0]}
    assert streamed == len(format_calls) - streamed


class StageInPlace:
    """A RunOutput that writes each data file straight to its path."""

    def __init__(self, root):
        self.root = root

    def write(self, man, name, writer, *args):
        writer(self.root / name, *args)


def synthetic_series(columns):
    """A sector_energy_series stand-in on the grid 0, 1, ..., 11: each source's
    (xi1, xi2) from ``columns``, at the rows its Omega*t names."""

    def series(dc, omega_t, source="closed_form"):
        rows = omega_t.astype(int)
        xi1, xi2 = (np.asarray(c, dtype=float)[rows] for c in columns[source])
        return SectorEnergySeries(omega_t, xi1, xi2, source)

    return series


@pytest.mark.parametrize("rows", [1, 4, 5, 12])
def test_figure1_fold_equals_the_whole_grid_reductions(tmp_path, monkeypatch, rows):
    # Ties within and across blocks, rows past the beat that would win, and
    # NaN in a later block: argmax, argmin and max return the first NaN.
    monkeypatch.setattr(cli, "CSV_BLOCK_VALUES", rows)
    times, beat, nan = np.arange(12.0), 8.0, math.nan
    cases = [
        ([0, 3, 1, 3, 3, 2, 1, 3, 0, 9, 9, 9], [5, 1, 4, 1, 1, 2, 1, 5, 6, 0, 0, 0]),
        ([0, 3, 1, 3, 3, 2, nan, 5, nan, 9, 9, 9], [5, 1, 4, 1, 1, 2, 1, nan, 6, 0, 0, 0]),
        ([0, 3, 1, 3, 3, 2, 1, 3, 0, nan, 9, 9], [5, 1, 4, 1, 1, 2, 1, 5, 6, 0, nan, 0]),
    ]
    for xi1, xi2 in (map(np.array, case) for case in cases):
        columns = {"closed_form": (xi1, xi2)}
        monkeypatch.setattr(cli, "sector_energy_series", synthetic_series(columns))
        envelope = functools.partial(cli._envelope_row, beat=beat)
        rows_out = cli._write_series(
            StageInPlace(tmp_path), None, "s.csv", None, times, "closed_form", envelope
        )
        got = cli._envelopes(rows_out)
        one_beat = times <= beat
        top, bottom = np.argmax(xi1[one_beat]), np.argmin(xi2[one_beat])
        want = (
            (times[top], xi1[top]),
            (times[bottom], xi2[bottom]),
            np.max(np.abs(xi1 + xi2 - 1.0)),
        )
        assert np.array_equal(np.hstack(got), np.hstack(want), equal_nan=True), (got, want)
        SectorEnergySeries(times, xi1, xi2, "closed_form").write_csv(tmp_path / "whole.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, 4, 5, 12])
def test_xi_maxima_in_blocks_equal_the_whole_grid_reductions(tmp_path, monkeypatch, rows):
    # A NaN in a later block, in either sector: np.max carries it, and the
    # Python max over the two sector gaps keeps it from sector 1 only.  A
    # closed form without beat deviation gives first_order_rel_err 0.
    monkeypatch.setattr(cli, "CSV_BLOCK_VALUES", rows)
    xi1 = np.array([0.5, 0.7, 0.9, 0.6, 0.3, 0.1, 0.2, 0.5, 0.8, 0.9, 0.7, 0.4])
    closed, flat = (xi1, 1.0 - xi1), (np.full(12, 0.5), np.full(12, 0.5))
    near = (xi1 + np.linspace(0.0, 1e-3, 12), 1.0 - xi1 - np.linspace(0.0, 2e-3, 12))
    nan1, nan2 = (near[0].copy(), near[1]), (near[0], near[1].copy())
    nan1[0][9] = nan2[1][10] = math.nan
    cases = [(nan1, closed, math.nan), (nan2, closed, None), (near, flat, 0.0)]
    for source in ("first_order", "trajectory"):
        for k, (series, partner, rel_err) in enumerate(cases):
            columns = {source: series, "closed_form": partner}
            monkeypatch.setattr(cli, "sector_energy_series", synthetic_series(columns))
            out = tmp_path / ("%s-%d" % (source, k))
            argv = ["xi", "--source", source, "--t-max", "11", "--grid-points", "12"]
            assert main(argv + ["--out", str(out)]) in (0, 1)
            whole = SectorEnergySeries(np.arange(12.0), *series, source)
            closed_form = SectorEnergySeries(np.arange(12.0), *partner, "closed_form")
            checks, measured = read_checks(out / "xi_manifest.json")
            part = whole_partition(whole)
            assert np.array_equal(checks["energy_partition"], part, equal_nan=True)
            if source == "trajectory":
                got = checks["trajectory_matches_closed"]
                want = whole_pair_gap(whole, closed_form)
            else:
                got = measured["first_order_rel_err"]
                want = whole_first_order_rel_err(whole, closed_form)
                if rel_err is not None:
                    assert np.array_equal(want, rel_err, equal_nan=True)
            assert np.array_equal(got, want, equal_nan=True), (source, k, got, want)


# ---------------------------------------------------------------------------
# the shared writer against csv.writer


def block_rows(k):
    """The most rows a block of a file with k float columns holds."""
    return CSV_BLOCK_VALUES // k


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, 0.1]
TEXT = st.text(alphabet=',"\r\nab %x0', max_size=6)


def reference_csv(path, header, columns, n_rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n_rows):
            writer.writerow(
                [
                    col if isinstance(col, str)
                    else format(float(col if np.ndim(col) == 0 else col[i]), ".17g")
                    for col in columns
                ]
            )


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(["array", "text", "float"]), min_size=1, max_size=6))
    if "array" not in kinds:
        kinds[draw(st.integers(0, len(kinds) - 1))] = "array"
    # Up to and across a block boundary for the number of float columns.
    block = block_rows(kinds.count("array"))
    n_rows = draw(st.sampled_from([0, 1, 2, block - 1, block, block + 1, 2 * block + 3]))
    pool = np.array(SPECIALS + draw(st.lists(st.floats(), min_size=1, max_size=8)))
    columns = []
    for kind in kinds:
        if kind == "array":
            shift = draw(st.integers(0, len(pool) - 1))
            columns.append(np.resize(np.roll(pool, shift), n_rows))
        elif kind == "text":
            columns.append(draw(TEXT))
        else:
            columns.append(draw(st.sampled_from(SPECIALS)))
    header = draw(st.lists(TEXT.filter(bool), min_size=len(kinds), max_size=len(kinds)))
    return header, columns, n_rows


@settings(max_examples=60, deadline=None)
@given(tables())
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    header, columns, n_rows = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "bulk.csv", header, columns)
    reference_csv(out / "ref.csv", header, columns, n_rows)
    assert (out / "bulk.csv").read_bytes() == (out / "ref.csv").read_bytes()


def test_write_csv_rejects_mismatched_columns(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), [np.zeros(3)])
    with pytest.raises(ValueError):
        write_csv(path, ("a", ""), [np.zeros(3), np.zeros(3)])
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), ["text", 1.0])


# Exact ties (%.17g rounds their 18th digit, a 5, half to even: down for
# 2**-25, up for 3 * 2**-25), the edges of the fixed notation and of the
# exact path's window, subnormals and the values that have no digits to
# compute.
EDGES = [
    2**-25, 3 * 2**-25, 9.9999999999999991e-05, 1e-4, 9999999999999998.0, 1e16, 1e17,
    9.9e-251, 1e-250, 1e250, 5e-324, 2.5e-310, 2.2250738585072014e-308,
    0.0, math.nan, math.inf,
    # Below 10**k by less than half a unit of the 17th digit: %.17g rounds
    # them up to 1e-14 and 1e+98, so log10 rounded down would give N = 10**17.
    1e-14, 1e98,
]
EDGES = EDGES + [-x for x in EDGES]


def assert_matches_reference(out, header, columns, n_rows):
    write_csv(out / "bulk.csv", header, columns)
    reference_csv(out / "ref.csv", header, columns, n_rows)
    assert (out / "bulk.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**63 - 1),
    st.sampled_from([5 * block_rows(3) - 1, 5 * block_rows(3) + 1, 7 * block_rows(3)]),
)
def test_write_csv_matches_csv_writer_on_raw_bits(tmp_path_factory, seed, n_rows):
    # Every float64 bit pattern is equally likely in the first two columns;
    # the third has the magnitudes of data, in both notations.  Each
    # example writes 3 * n_rows >= 12k values over five to seven blocks.
    rng = np.random.default_rng(seed)
    bits = rng.integers(-(2**63), 2**63, (2, n_rows), dtype=np.int64).view(np.float64)
    data = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 20, n_rows)
    columns = [bits[0], "x", bits[1], data]
    out = tmp_path_factory.mktemp("csv")
    assert_matches_reference(out, ["a", "s", "b", "c"], columns, n_rows)


@pytest.mark.parametrize(
    "n_rows",
    [2048, 3499, 3501, 4000, 4096, 6561, 50000, block_rows(2) - 1, block_rows(2) + 1],
)
def test_write_csv_matches_csv_writer_at_the_lengths_written(tmp_path, n_rows):
    # Figure 1's full series (50k), its zoom, figure 2 and xi (4000), the
    # 81**2 wigner slice, powers of two, one row either side of a block,
    # and odd lengths cut into blocks a row apart in size (3499, 3501).
    rng = np.random.default_rng(n_rows)
    bits = rng.integers(-(2**63), 2**63, n_rows, dtype=np.int64).view(np.float64)
    data = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 20, n_rows)
    columns = [bits, data, "closed_form"]
    assert_matches_reference(tmp_path, ["a", "b", "s"], columns, n_rows)


def test_byte_major_rows_are_an_odd_number_of_cache_lines_apart(tmp_path, monkeypatch):
    # Rows a power of two apart share L1 sets, so a walk down a column of
    # cells would evict its own lines; every block, the last one too, and
    # every formatter temporary keeps an odd number of 64-byte lines.
    strides = []
    byte_major = manifest._byte_major

    def spy(n_bytes, n):
        array = byte_major(n_bytes, n)
        strides.append(array.strides[0])
        return array

    monkeypatch.setattr(manifest, "_byte_major", spy)
    block = block_rows(1)
    for n_rows in (1, 512, 2048, block, block + 2048):
        write_csv(tmp_path / "a.csv", ("t",), [np.arange(n_rows, dtype=float)])
    assert len(strides) == 5 + 6  # a cell per file, a digit array per block
    assert all(s % 128 == 64 for s in strides), strides


def test_write_csv_edge_values_take_the_per_value_path(tmp_path, monkeypatch):
    formatted = []

    def spy(x):
        formatted.append(x)
        return b"%.17g" % x

    monkeypatch.setattr(manifest, "_g17", spy)
    # Each edge in every row of a block, and across the block boundary.
    column = np.resize(EDGES, block_rows(2) + len(EDGES))
    columns = [column, column[::-1].copy()]
    assert_matches_reference(tmp_path, ["v", "w"], columns, len(column))
    # The ties, zeros and non-finite values went through %.17g, each once
    # per block in which it occurs.
    per_value = {x for x in formatted if x == x}
    ties = {2**-25, -(2**-25), 3 * 2**-25}
    assert ties | {0.0, math.inf, -math.inf, 5e-324, 9.9e-251} <= per_value
    assert any(x != x for x in formatted)
    # Exact powers of ten take the vectorised path.
    assert 1e16 not in per_value and 1e17 not in per_value


def test_write_csv_rejects_nul_before_opening(tmp_path):
    path = tmp_path / "nul.csv"
    with pytest.raises(ValueError):
        write_csv(path, ("a\0", "b"), [np.zeros(3), "x"])
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), [np.zeros(3), "x\0"])
    assert os.listdir(tmp_path) == []


def test_write_csv_encodes_text_as_utf8(tmp_path):
    path = tmp_path / "utf8.csv"
    write_csv(path, ("t", "Ω·t"), [np.array([0.5, -2.0]), "é,ü"])
    expected = "t,Ω·t\r\n0.5,\"é,ü\"\r\n-2,\"é,ü\"\r\n"
    assert path.read_bytes() == expected.encode("utf-8")


def write_csv_peak(path, header, columns):
    """The tracemalloc peak of writing a file, once the cached tables exist."""
    write_csv(path, header, columns)
    tracemalloc.start()
    try:
        write_csv(path, header, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "1"],
        ["xi", "--source", "trajectory"],
        ["xi", "--source", "first_order"],
        ["sweep", "--ratios", "0.001,0.002"],
    ],
    ids=["figure-1", "xi-trajectory", "xi-first_order", "sweep"],
)
def test_figure1_memory_peak_is_its_grid_and_one_block(tmp_path, argv):
    # A streamed series holds its time grid, 8 bytes a row, and one block of
    # rows.  Computed whole, figure 1 peaked at 24.4 MiB here, xi at 36.6 MiB
    # (trajectory) and 30.5 MiB (first_order), and sweep at 36.6 MiB.
    n = 400000
    assert main(argv + ["--grid-points", "2", "--out", str(tmp_path / "a")]) == 0
    tracemalloc.start()
    try:
        assert main(argv + ["--grid-points", str(n), "--out", str(tmp_path / "b")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 2 * 2**20


def test_write_csv_memory_peak(tmp_path):
    # Figure 1's full file: 50k rows of three floats.  Each block's
    # transients stay bounded, whatever the length of the file (0.67 MiB
    # at 4800 values, 1600 rows, per block).
    n = 50000
    columns = [np.linspace(0.0, 100.0, n), np.linspace(0.0, 1.0, n) ** 2, np.cos(np.arange(n))]
    assert write_csv_peak(tmp_path / "big.csv", ("t", "a", "b"), columns) <= 0.75 * 2**20


@pytest.mark.parametrize(
    "kinds",
    [
        ["array"],
        ["array", "array", "float"],  # figure 2
        ["array", "array", "array", "text"],  # figure 1
        ["array", "text", "array", "text", "array"],  # the wigner slice
        ["array"] * 6,  # a trajectory
    ],
    ids=["one-float", "figure2", "figure1", "wigner-slice", "six-floats"],
)
def test_write_csv_memory_peak_for_every_shape_written(tmp_path, kinds):
    # The block is sized in values, so the cap holds whatever the number of
    # float columns: six floats peaked at 1.19 MiB with 3500-row blocks.
    # Data in both notations, so that every cell is full.
    n = 50000
    rng = np.random.default_rng(len(kinds))
    columns = [
        rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n) if kind == "array"
        else "0" if kind == "text" else 0.5
        for kind in kinds
    ]
    header = ["c%d" % i for i in range(len(kinds))]
    assert write_csv_peak(tmp_path / "big.csv", header, columns) <= 0.75 * 2**20


def test_write_csv_formats_each_block_in_one_call(tmp_path, monkeypatch):
    # Figure 1's full file, 50k rows of three floats: one formatter call per
    # block over all three columns, in blocks that differ by at most a row.
    calls = []
    format_floats = manifest._format_floats

    def spy(x, out):
        calls.append(len(x))
        format_floats(x, out)

    monkeypatch.setattr(manifest, "_format_floats", spy)
    n = 50000
    columns = [np.linspace(0.0, 100.0, n), np.linspace(0.0, 1.0, n) ** 2, np.cos(np.arange(n))]
    write_csv(tmp_path / "big.csv", ("t", "a", "b", "s"), columns + ["closed_form"])
    assert len(calls) == math.ceil(n / block_rows(3))
    assert all(values % 3 == 0 for values in calls)
    sizes = [values // 3 for values in calls]
    assert sum(sizes) == n and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("k", range(1, 7))
def test_write_csv_writes_an_empty_table_for_every_column_count(tmp_path, k):
    header = ["c%d" % i for i in range(k)] + ["s"]
    columns = [np.empty(0)] * k + ["text"]
    assert_matches_reference(tmp_path, header, columns, 0)
    assert (tmp_path / "bulk.csv").read_bytes() == b",".join(h.encode() for h in header) + b"\r\n"


def test_a_write_that_fails_leaves_no_file(tmp_path, monkeypatch):
    block = block_rows(1)
    blocks = []
    format_floats = manifest._format_floats

    def fail_on_second_block(x, out):
        blocks.append(len(x))
        if len(blocks) == 2:
            raise MemoryError("forced")
        format_floats(x, out)

    monkeypatch.setattr(manifest, "_format_floats", fail_on_second_block)
    with pytest.raises(MemoryError):
        write_csv(tmp_path / "data.csv", ("t",), [np.arange(2 * block, dtype=float)])
    assert blocks == [block, block]
    with pytest.raises(TypeError):
        write_json(tmp_path / "report.json", {"value": object()})
    assert os.listdir(tmp_path) == []
    # An existing target keeps its old bytes.
    (tmp_path / "data.csv").write_bytes(b"old")
    blocks.clear()
    with pytest.raises(MemoryError):
        write_csv(tmp_path / "data.csv", ("t",), [np.arange(2 * block, dtype=float)])
    assert os.listdir(tmp_path) == ["data.csv"]
    assert (tmp_path / "data.csv").read_bytes() == b"old"


def test_write_csv_blocks_write_the_bytes_of_one_whole_write(tmp_path):
    # An empty block writes nothing; the blocks cross formatter calls.
    n = 2 * block_rows(2) + 7
    a, b = np.linspace(-3.0, 3.0, n), np.cos(np.arange(n))
    cuts = [0, 5, 5, block_rows(2) + 1, n]
    blocks = ([a[i:j], "s", b[i:j], 0.5] for i, j in zip(cuts, cuts[1:]))
    write_csv_blocks(tmp_path / "blocks.csv", ("a", "s", "b", "h"), blocks)
    write_csv(tmp_path / "whole.csv", ("a", "s", "b", "h"), [a, "s", b, 0.5])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "bad",
    [
        [np.zeros(2), "other", np.zeros(2)],
        [np.zeros(2), "s", 0.5],
        [np.zeros(2), "s", np.zeros(3)],
        [np.zeros(2), "s"],
    ],
    ids=["text", "kind", "length", "columns"],
)
def test_a_bad_later_block_leaves_no_file(tmp_path, bad):
    good = [np.arange(3.0), "s", np.arange(3.0)]
    with pytest.raises(ValueError):
        write_csv_blocks(tmp_path / "data.csv", ("a", "s", "b"), iter([good, good, bad]))
    assert os.listdir(tmp_path) == []
