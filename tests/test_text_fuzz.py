"""Every text reader returns or raises a ``DeepSelfError`` on arbitrary bytes.

Each reader gets raw byte strings and byte strings spliced from fragments of
its own format (header names, keys, numbers, quotes, line ends, invalid UTF-8),
so the examples reach the value checks as well as the parsers.  The Hypothesis
seed is fixed: a run either always passes or always fails.
"""

import pytest

from deepself.config import SCHEMA, load_config
from deepself.data import load_csv_series, load_manifest
from deepself.errors import DeepSelfError
from deepself.evaluation import read_predictions
from deepself.models import ModelSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COMMON = [b"\n", b"\r\n", b"\r", b",", b" ", b"\t", b'"', b"#", b";", b"=", b"0", b"1", b"-1", b"2.5",
          b"1e999", b"nan", b"inf", b"_", b"\x00", b"\xff", b"\xc3\xa9", b"\xed\xa0\x80", b"\x1c"]
FRAGMENTS = {
    "csv_series": [b"0.5", b"1e-3", b"+7", b"1_000", b'"3"', b"  "],
    "manifest": [b"path", b"label", b"split", b"fold", b"path,label,split,fold\n", b"a.csv",
                 b"train", b"dev", b"test", b"x"],
    "predictions": [b"id", b"label", b"prob_0", b"prob_1", b"id,label,prob_0,prob_1\n", b"0.25",
                    b"0.75", b"x.wav"],
    "config": ([b"[" + s.encode() + b"]\n" for s in SCHEMA] + [b"[nope]\n", b"off", b"on", b"8,4"]
               + [key.encode() + b" = " for table in SCHEMA.values() for key in table]),
    "spec": [b"layer=", b"input_shape=", b"n_classes=", b"seed=", b"dense", b"conv", b"recurrent",
             b"units=", b"relu", b"(", b")", b"4", b"16,16"],
}
SETTINGS = hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)


def inputs(fragments):
    spliced = st.lists(st.sampled_from(COMMON + fragments), max_size=40).map(b"".join)
    return st.one_of(st.binary(max_size=120), spliced)


READERS = {
    "csv_series": lambda path: load_csv_series(path, 100.0),
    "manifest": load_manifest,
    "predictions": read_predictions,
    "config": load_config,
    # a checkpoint hands its spec text over decoded; latin-1 maps every byte to a character
    "spec": lambda path: ModelSpec.from_text(path.read_bytes().decode("latin-1")),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_arbitrary_bytes_load_or_raise_deepself_error(tmp_path, reader):
    path = tmp_path / "input"

    @SETTINGS
    @hypothesis.given(inputs(FRAGMENTS[reader]))
    def check(blob):
        path.write_bytes(blob)
        try:
            READERS[reader](path)
        except DeepSelfError:
            pass

    check()
