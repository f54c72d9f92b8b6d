"""load_csv_series against the cell-by-cell reader it replaced.

`oracle_load_csv_series` is the reader as it was before NumPy's C parser
took over: every cell goes through ``float`` via the ``csv`` module.  For
any text, the two must give the same array bytes or the same error class
and message.  Warnings are errors here, so an empty-input warning from
``np.loadtxt`` fails the comparison.
"""

import csv

import numpy as np
import pytest

from deepself.data import load_csv_series
from deepself.dsp import Signal
from deepself.errors import DataError, FormatError

pytestmark = pytest.mark.filterwarnings("error")


def oracle_load_csv_series(path, sample_rate: float) -> Signal:
    rows: list[list[float]] = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for row_no, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not field.strip() for field in record):
                continue
            values = []
            for col_no, cell in enumerate(record, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise FormatError(
                        f"{path} row {row_no}, column {col_no}: {cell!r} is not numeric"
                    ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise FormatError(
                    f"{path} row {row_no}: expected {width} column(s), got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: series file has no samples")
    return Signal(np.asarray(rows, dtype=np.float64).T, sample_rate)


def outcome(reader, path):
    """("ok", shape, dtype, bytes, rate) or (error class name, message)."""
    try:
        sig = reader(path, 250.0)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "ok", sig.samples.shape, sig.samples.dtype.str, sig.samples.tobytes(), sig.sample_rate


def assert_same_as_oracle(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    new, old = outcome(load_csv_series, path), outcome(oracle_load_csv_series, path)
    assert new == old, f"{text!r}: {new[:2]} vs oracle {old[:2]}"
    return new


CASES = [
    ("crlf", "1.5,2\r\n3,4\r\n", "ok"),
    ("lone-cr", "1\r2\r3\r", "ok"),
    ("whitespace-only-row", "1\n   \n\t\n2\n", "ok"),
    ("blank-cells-row", "1,2\n , \n3,4\n", "ok"),
    ("padded-cells", " 1 ,\t2\n3 , 4 \n", "ok"),
    ("quoted-cells", '"1.5","2"\n3,"4"\n', "ok"),
    ("underscore-digits", "1_000\n2\n", "ok"),
    ("no-final-newline", "1,2,3\n4,5,6", "ok"),
    ("multi-column", "1,2,3,4\n5,6,7,8\n-1e3,2.5E-2,0,.5\n", "ok"),
    ("single-row", "1,2,3", "ok"),
    ("hash-first", "#1\n2\n", "FormatError"),
    ("hash-comment-row", "1\n# note\n2\n", "FormatError"),
    ("utf8-bom", "﻿1\n2\n", "FormatError"),
    ("trailing-comma", "1,\n2,\n", "FormatError"),
    ("ascii-separator-padding", "1\x1c\n2\n", "FormatError"),
    ("ragged-rows", "1,2\n3\n", "FormatError"),
    ("ragged-after-blank", "1\n\n2,3\n", "FormatError"),
    ("nan", "nan\n1\n", "NumericError"),
    ("inf", "1\n-inf\n", "NumericError"),
    ("empty-file", "", "DataError"),
    ("blank-only-file", "\n \r\n\t\n", "DataError"),
    ("quoted-empty-only", '""\n', "DataError"),
]


@pytest.mark.parametrize("text, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_case_table_matches_oracle(tmp_path, text, expected):
    assert assert_same_as_oracle(tmp_path / "s.csv", text)[0] == expected


def test_generated_text_matches_oracle(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "s.csv"

    @hypothesis.settings(max_examples=400, deadline=None, database=None)
    @hypothesis.given(st.text(alphabet="0123456789.eE+-, \"#_\r\n", max_size=60))
    def check(text):
        assert_same_as_oracle(path, text)

    check()
