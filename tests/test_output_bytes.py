"""Output bytes: golden SHA-256 of every data file from small fixed runs,
and the shared CSV writer checked byte for byte against ``csv.writer``.

The hashes pin the exact bytes the commands write, so a change to the
output path (row formatting, line ends, column order) shows up here even
when every value still parses to the same float.  They were recorded on
x86-64 Linux with numpy 2.4; a platform whose libm rounds a sine or cosine
differently in the last bit writes different bytes.
"""
import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclab.cli import main
from nclab.manifest import CSV_BLOCK_ROWS, write_csv

RATIO_XI = ["xi", "--ratio", "0.002", "--t-max", "20", "--grid-points", "300"]

# name -> (argv, {relative path: sha256}); every run exits 0.
GOLDEN = {
    "simulate_both": (
        ["simulate", "--theta", "0.04", "--eta", "0.01", "--method", "both", "--t-max", "4"],
        {
            "trajectory_analytic.csv": "44864784d10bdc1dd10cc406f365183d81a2832951eca8f62bd2bbbbf1b69c2b",
            "trajectory_rk4.csv": "5c73c8d6cd974d889c807d0fa603a761b167b8f40bb57efbd98ac10d1f77bfb2",
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
        {"xi_trajectory.csv": "702594d903dc02800a199153d3503a578b075c11d858613a64fe462127069633"},
    ),
    "wigner_excited": (
        [
            "wigner", "--theta", "0.04", "--eta", "0.01", "--n1", "1", "--n2", "0",
            "--grid-points", "11", "--residual-points", "2", "--nodes", "20",
        ],
        {
            "wigner_residuals.json": "81ac4e6998e1c8b1664cc41bb7fa32bfc67b8b3231c6fc7cd5124119ae05da2a",
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
    for rel, digest in expected.items():
        assert hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() == digest, rel


# ---------------------------------------------------------------------------
# the shared writer against csv.writer

BLOCK = CSV_BLOCK_ROWS
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
    n_rows = draw(st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    pool = np.array(SPECIALS + draw(st.lists(st.floats(), min_size=1, max_size=8)))
    kinds = draw(st.lists(st.sampled_from(["array", "text", "float"]), min_size=1, max_size=6))
    if "array" not in kinds:
        kinds[draw(st.integers(0, len(kinds) - 1))] = "array"
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
