"""Dataset ingestion tests: WAV/CSV/PGM loaders, manifests, assembly."""

import csv
import re
import struct
import wave

import numpy as np
import pytest

from deepself.data import (
    assemble_dataset,
    fixed_length,
    load_csv_series,
    load_manifest,
    load_pgm_image,
    load_sample,
    load_signal,
    load_wav_pcm16,
    write_manifest,
)
from deepself.dsp import FeatureMap, Signal, write_feature_map
from deepself.evaluation import read_predictions
from deepself.errors import (
    ConfigError,
    DataError,
    FormatError,
    TruncatedFileError,
    UnsupportedFormatError,
)
from wav_writer import write_wav_pcm16


def make_wav(path, frames, rate=16000, channels=1):
    """Oracle writer: Python's stdlib wave module."""
    data = np.asarray(frames, dtype="<i2")
    if data.ndim == 1:
        data = data[:, None]
    assert data.shape[1] == channels
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(data.reshape(-1).tobytes())


class TestWav:
    def test_constant_full_scale(self, tmp_path):
        p = tmp_path / "c.wav"
        make_wav(p, [32767] * 10)
        sig = load_wav_pcm16(p)
        assert sig.sample_rate == 16000.0
        assert sig.samples.shape == (1, 10)
        np.testing.assert_array_equal(sig.samples, np.full((1, 10), 32767.0 / 32768.0))

    def test_min_value_maps_to_minus_one(self, tmp_path):
        p = tmp_path / "m.wav"
        make_wav(p, [-32768, 0, 16384])
        np.testing.assert_array_equal(
            load_wav_pcm16(p).samples, [[-1.0, 0.0, 0.5]])

    def test_stereo_deinterleave(self, tmp_path):
        p = tmp_path / "s.wav"
        frames = np.array([[100, -100], [200, -200], [300, -300]])
        make_wav(p, frames, rate=8000, channels=2)
        sig = load_wav_pcm16(p)
        assert sig.sample_rate == 8000.0
        np.testing.assert_array_equal(
            sig.samples * 32768.0, [[100, 200, 300], [-100, -200, -300]])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = rng.integers(-32768, 32768, size=(2, 501))
        sig = Signal(raw.astype(np.float64) / 32768.0, 22050.0)
        p = tmp_path / "r.wav"
        write_wav_pcm16(sig, p)
        back = load_wav_pcm16(p)
        assert back.sample_rate == 22050.0
        np.testing.assert_array_equal(back.samples, sig.samples)

    def test_our_writer_matches_stdlib_reader(self, tmp_path):
        sig = Signal(np.array([[0.0, 0.25, -0.5, 0.999]]), 16000.0)
        p = tmp_path / "w.wav"
        write_wav_pcm16(sig, p)
        with wave.open(str(p), "rb") as fh:
            assert fh.getnchannels() == 1
            assert fh.getsampwidth() == 2
            assert fh.getframerate() == 16000
            raw = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
        np.testing.assert_array_equal(raw, [0, 8192, -16384, 32735])

    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_wav_pcm16(p)

    def test_float_wav_unsupported(self, tmp_path):
        p = tmp_path / "f.wav"
        payload = struct.pack("<4f", 0.0, 0.5, -0.5, 1.0)
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 3, 1, 16000, 64000, 4, 32,
            b"data", len(payload))
        p.write_bytes(header + payload)
        with pytest.raises(UnsupportedFormatError, match="float"):
            load_wav_pcm16(p)

    def test_24_bit_unsupported(self, tmp_path):
        p = tmp_path / "b24.wav"
        payload = b"\x00" * 12
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 1, 16000, 48000, 3, 24,
            b"data", len(payload))
        p.write_bytes(header + payload)
        with pytest.raises(UnsupportedFormatError, match="24"):
            load_wav_pcm16(p)

    def test_truncated_data_chunk(self, tmp_path):
        p = tmp_path / "t.wav"
        make_wav(p, [1] * 100)
        blob = p.read_bytes()
        p.write_bytes(blob[:-37])  # cut inside the data chunk
        with pytest.raises(TruncatedFileError):
            load_wav_pcm16(p)

    def test_missing_data_chunk(self, tmp_path):
        p = tmp_path / "nd.wav"
        header = struct.pack(
            "<4sI4s4sIHHIIHH",
            b"RIFF", 28, b"WAVE",
            b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
        p.write_bytes(header)
        with pytest.raises(FormatError, match="data"):
            load_wav_pcm16(p)

    def test_odd_sized_chunk_padding(self, tmp_path):
        # A 3-byte junk chunk before fmt must be skipped with its pad byte.
        p = tmp_path / "pad.wav"
        payload = struct.pack("<2h", 5, -5)
        junk = struct.pack("<4sI", b"JUNK", 3) + b"abc\x00"
        body = junk + struct.pack(
            "<4sIHHIIHH", b"fmt ", 16, 1, 1, 16000, 32000, 2, 16)
        body += struct.pack("<4sI", b"data", len(payload)) + payload
        p.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        np.testing.assert_array_equal(
            load_wav_pcm16(p).samples * 32768.0, [[5.0, -5.0]])

    def test_zero_sample_rate_is_format_error_naming_the_file(self, tmp_path):
        p = tmp_path / "rate0.wav"
        make_wav(p, [1, 2])
        blob = bytearray(p.read_bytes())
        blob[24:28] = bytes(4)  # the fmt chunk's sample rate
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"{re.escape(str(p))}: sample rate 0"):
            load_wav_pcm16(p)


class TestCsvSeries:
    def test_columns_become_channels(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("1.0,10.0\n2.0,20.0\n3.0,30.0\n")
        sig = load_csv_series(p, 100.0)
        assert sig.sample_rate == 100.0
        np.testing.assert_array_equal(sig.samples, [[1, 2, 3], [10, 20, 30]])

    def test_single_column_text(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("12\n-7\n3\n")
        np.testing.assert_array_equal(
            load_csv_series(p, 173.61).samples, [[12.0, -7.0, 3.0]])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1.5\n\n2.5\n\n")
        np.testing.assert_array_equal(load_csv_series(p, 10.0).samples, [[1.5, 2.5]])

    def test_parse_error_cites_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(FormatError, match=r"row 2, column 2"):
            load_csv_series(p, 10.0)

    def test_ragged_rows_cite_row(self, tmp_path):
        p = tmp_path / "rag.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError, match=r"row 2"):
            load_csv_series(p, 10.0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv_series(p, 10.0)

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "sci.csv"
        p.write_text("1e-3\n-2.5E2\n")
        np.testing.assert_array_equal(
            load_csv_series(p, 1.0).samples, [[0.001, -250.0]])


@pytest.mark.parametrize("reader, blob, offset", [
    (lambda p: load_csv_series(p, 10.0), b"1.0\n\xff\xfe\n", 4),
    (load_manifest, b"path,label\n\xff.wav,a\n", 11),
    (read_predictions, b"id,label,prob_0\nx\xff,0,1.0\n", 17),
], ids=["csv-series", "manifest", "predictions"])
def test_invalid_utf8_is_format_error_naming_file_and_offset(tmp_path, reader, blob, offset):
    p = tmp_path / "bad.csv"
    p.write_bytes(blob)
    with pytest.raises(FormatError, match=f"not valid UTF-8 .* at byte {offset}") as info:
        reader(p)
    assert str(p) in str(info.value)


# one cell past the csv module's 131072-character field limit, on line 2
LONG_CELL = "x" * 140001


@pytest.mark.parametrize("reader, text", [
    (lambda p: load_csv_series(p, 10.0), f"1.0\n{LONG_CELL}\n"),
    (load_manifest, f"path,label\n{LONG_CELL},a\n"),
    (read_predictions, f"id,label,prob_0\n{LONG_CELL},0,1.0\n"),
], ids=["csv-series", "manifest", "predictions"])
def test_oversized_csv_field_is_format_error_naming_file_and_line(tmp_path, reader, text):
    p = tmp_path / "long.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match="line 2: field larger than field limit") as info:
        reader(p)
    assert str(p) in str(info.value)


class TestPgm:
    def test_p5_binary(self, tmp_path):
        p = tmp_path / "i.pgm"
        pixels = bytes([0, 128, 255, 64, 32, 16])
        p.write_bytes(b"P5\n3 2\n255\n" + pixels)
        img = load_pgm_image(p)
        assert img.shape == (1, 2, 3)
        np.testing.assert_allclose(
            img[0], np.array([[0, 128, 255], [64, 32, 16]]) / 255.0)

    def test_p2_ascii(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n2 2\n100\n0 50\n100 25\n")
        img = load_pgm_image(p)
        np.testing.assert_allclose(img[0], [[0.0, 0.5], [1.0, 0.25]])

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # magic\n# a comment line\n2 # width\n1\n255\n" + bytes([255, 0]))
        np.testing.assert_array_equal(load_pgm_image(p)[0], [[1.0, 0.0]])

    def test_16_bit_maxval_big_endian(self, tmp_path):
        p = tmp_path / "w.pgm"
        raster = struct.pack(">2H", 65535, 1000)
        p.write_bytes(b"P5\n2 1\n65535\n" + raster)
        np.testing.assert_allclose(
            load_pgm_image(p)[0], [[1.0, 1000.0 / 65535.0]])

    def test_maxval_zero_rejected(self, tmp_path):
        p = tmp_path / "z.pgm"
        p.write_bytes(b"P5\n1 1\n0\n\x00")
        with pytest.raises(FormatError, match="maxval"):
            load_pgm_image(p)

    def test_p6_unsupported(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(UnsupportedFormatError):
            load_pgm_image(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(TruncatedFileError):
            load_pgm_image(p)

    def test_negative_p2_pixel_is_format_error_naming_the_file(self, tmp_path):
        p = tmp_path / "neg.pgm"
        p.write_text("P2\n2 1\n255\n-5 10\n")
        with pytest.raises(FormatError, match=f"{re.escape(str(p))}: pixel value outside"):
            load_pgm_image(p)

    @pytest.mark.parametrize("number", [b"1_0", b"+5", b"9" * 5000], ids=["1_0", "+5", "5000-digits"])
    @pytest.mark.parametrize("template", [
        b"P2 %s 1 255 1 2 3 4 5 6 7 8 9 10",  # P2 header
        b"P5 %s 1 255\n" + bytes(10),  # P5 header
        b"P2 2 1 255 7 %s",  # P2 raster
    ], ids=["p2-header", "p5-header", "p2-raster"])
    def test_number_int_reads_but_netpbm_does_not_is_format_error(self, tmp_path, template, number):
        p = tmp_path / "d.pgm"
        p.write_bytes(template.replace(b"%s", number))
        with pytest.raises(FormatError, match=f"{re.escape(str(p))}: PGM (header|raster) holds "):
            load_pgm_image(p)

    def test_not_pgm(self, tmp_path):
        p = tmp_path / "n.pgm"
        p.write_bytes(b"GIF89a")
        with pytest.raises(FormatError):
            load_pgm_image(p)


class TestManifest:
    def write(self, tmp_path, text, name="m.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def touch(self, tmp_path, *names):
        for n in names:
            (tmp_path / n).write_bytes(b"")

    def test_lexicographic_label_map(self, tmp_path):
        self.touch(tmp_path, "a.wav", "b.wav", "c.wav")
        p = self.write(tmp_path, "path,label\na.wav,dog\nb.wav,cat\nc.wav,bird\n")
        m = load_manifest(p)
        assert m.label_map == {"bird": 0, "cat": 1, "dog": 2}
        assert m.n_classes == 3
        np.testing.assert_array_equal(m.labels(), [2, 1, 0])

    def test_relative_paths_resolved_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "deep"
        sub.mkdir()
        (sub / "x.wav").write_bytes(b"")
        p = self.write(sub, "path,label\nx.wav,a\n")
        m = load_manifest(p)
        assert m.rows[0].path == str(sub / "x.wav")
        assert m.rows[0].raw_path == "x.wav"

    def test_split_and_fold_columns(self, tmp_path):
        self.touch(tmp_path, "a.wav", "b.wav")
        p = self.write(tmp_path, "path,label,split,fold\na.wav,x,train,0\nb.wav,y,dev,3\n")
        m = load_manifest(p)
        assert [r.split for r in m.rows] == ["train", "dev"]
        assert [r.fold for r in m.rows] == [0, 3]
        assert [r.raw_path for r in m.subset("train")] == ["a.wav"]
        np.testing.assert_array_equal(m.folds(), [0, 3])

    def test_missing_file_error_names_path(self, tmp_path):
        p = self.write(tmp_path, "path,label\nghost.wav,x\n")
        with pytest.raises(DataError, match="ghost.wav"):
            load_manifest(p)

    def test_duplicate_path_warns(self, tmp_path, caplog):
        self.touch(tmp_path, "a.wav")
        p = self.write(tmp_path, "path,label\na.wav,x\na.wav,y\n")
        with caplog.at_level("WARNING", logger="deepself"):
            m = load_manifest(p)
        assert len(m.rows) == 2
        assert any("a.wav" in rec.message for rec in caplog.records)

    def test_bad_split_value(self, tmp_path):
        self.touch(tmp_path, "a.wav")
        p = self.write(tmp_path, "path,label,split\na.wav,x,validation\n")
        with pytest.raises(FormatError, match="split"):
            load_manifest(p)

    def test_bad_fold_value(self, tmp_path):
        self.touch(tmp_path, "a.wav")
        p = self.write(tmp_path, "path,label,fold\na.wav,x,first\n")
        with pytest.raises(FormatError, match="fold"):
            load_manifest(p)

    def test_negative_fold(self, tmp_path):
        self.touch(tmp_path, "a.wav")
        p = self.write(tmp_path, "path,label,fold\na.wav,x,-1\n")
        with pytest.raises(FormatError, match="non-negative"):
            load_manifest(p)

    @pytest.mark.parametrize("fold", ["1_0", "+3", "\u0660", "3.0", "9" * 5000],
                             ids=["1_0", "+3", "arabic-indic-zero", "3.0", "5000-digits"])
    def test_fold_int_reads_but_is_not_ascii_digits_is_format_error(self, tmp_path, fold):
        self.touch(tmp_path, "a.wav", "b.wav")
        p = tmp_path / "m.csv"
        p.write_text(f"path,label,fold\na.wav,x,0\nb.wav,y,{fold}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"{re.escape(str(p))} line 3: fold holds"):
            load_manifest(p)

    def test_error_after_a_path_spanning_two_lines_names_the_physical_line(self, tmp_path):
        self.touch(tmp_path, "a\nb.wav")
        p = self.write(tmp_path, 'path,label\n"a\nb.wav",x\nc.wav\n')
        with pytest.raises(FormatError, match="line 4: expected 2 fields, got 1"):
            load_manifest(p)

    def test_blank_lines_before_the_header_and_between_rows_are_skipped(self, tmp_path):
        self.touch(tmp_path, "a.wav", "b.wav")
        p = self.write(tmp_path, "\n  \npath,label\na.wav,x\n , \nb.wav,y\n")
        assert [r.raw_path for r in load_manifest(p).rows] == ["a.wav", "b.wav"]

    def test_unknown_column(self, tmp_path):
        p = self.write(tmp_path, "path,labl\na.wav,x\n")
        with pytest.raises(FormatError, match="labl"):
            load_manifest(p)

    def test_missing_required_column(self, tmp_path):
        p = self.write(tmp_path, "path,split\na.wav,train\n")
        with pytest.raises(FormatError, match="label"):
            load_manifest(p)

    def test_empty_manifest(self, tmp_path):
        p = self.write(tmp_path, "path,label\n")
        with pytest.raises(DataError, match="no data rows"):
            load_manifest(p)

    def test_header_only_missing(self, tmp_path):
        p = self.write(tmp_path, "")
        with pytest.raises(FormatError):
            load_manifest(p)

    def test_folds_missing_raises(self, tmp_path):
        self.touch(tmp_path, "a.wav")
        p = self.write(tmp_path, "path,label\na.wav,x\n")
        with pytest.raises(DataError, match="fold"):
            load_manifest(p).folds()

    def test_write_round_trip(self, tmp_path):
        self.touch(tmp_path, "a.wav", "b.wav")
        p = self.write(tmp_path, "path,label,split,fold\na.wav,x,train,0\nb.wav,y,,\n")
        m = load_manifest(p)
        out = tmp_path / "out.csv"
        write_manifest(m, out)
        m2 = load_manifest(out)
        assert [(r.label, r.split, r.fold) for r in m2.rows] == \
            [(r.label, r.split, r.fold) for r in m.rows]
        assert m2.label_map == m.label_map


class TestFixedLength:
    def test_crop_keeps_start(self):
        x = np.arange(10, dtype=np.float64).reshape(1, 10)
        np.testing.assert_array_equal(fixed_length(x, 4), [[0, 1, 2, 3]])

    def test_pad_appends_zeros(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = fixed_length(x, 5)
        np.testing.assert_array_equal(
            out, [[1, 2, 0, 0, 0], [3, 4, 0, 0, 0]])

    def test_exact_length_unchanged(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(fixed_length(x, 3), x)

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            fixed_length(np.zeros((1, 3)), 0)


class TestLoadSampleAndAssembly:
    def test_dispatch_wav(self, tmp_path):
        p = tmp_path / "a.wav"
        make_wav(p, [0, 16384])
        np.testing.assert_array_equal(load_sample(p), [[0.0, 0.5]])

    def test_dispatch_csv_needs_rate(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0\n")
        with pytest.raises(ConfigError, match="sample rate"):
            load_sample(p)
        np.testing.assert_array_equal(load_sample(p, sample_rate=5.0), [[1.0]])

    def test_load_signal_keeps_the_rate_and_rejects_non_signals(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1.0\n2.0\n")
        sig = load_signal(p, sample_rate=5.0)
        assert sig.sample_rate == 5.0
        np.testing.assert_array_equal(sig.samples, [[1.0, 2.0]])
        with pytest.raises(ConfigError, match="sample rate"):
            load_signal(p)
        with pytest.raises(UnsupportedFormatError):
            load_signal(tmp_path / "a.pgm", sample_rate=5.0)

    def test_dispatch_pgm(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\x80")
        assert load_sample(p).shape == (1, 1, 1)

    def test_dispatch_feature_map(self, tmp_path):
        fm = FeatureMap(np.arange(6, dtype=np.float32).reshape(2, 3),
                        np.array([0.0, 1.0]), 0.01)
        p = tmp_path / "a.dsfm"
        write_feature_map(fm, p)
        arr = load_sample(p)
        assert arr.shape == (1, 2, 3)
        np.testing.assert_array_equal(arr[0], fm.values)

    def test_dispatch_single_row_map_is_series(self, tmp_path):
        # a filtered single-channel signal is stored as a 1 x N map and
        # must come back in raw channels-first layout
        fm = FeatureMap(np.arange(4, dtype=np.float32).reshape(1, 4),
                        np.zeros(1), 0.01)
        p = tmp_path / "s.dsfm"
        write_feature_map(fm, p)
        arr = load_sample(p)
        assert arr.shape == (1, 4)
        np.testing.assert_array_equal(arr, fm.values)

    def test_unknown_extension(self, tmp_path):
        p = tmp_path / "a.mp3"
        p.write_bytes(b"ID3")
        with pytest.raises(UnsupportedFormatError, match=r"\.mp3"):
            load_sample(p)

    def _manifest(self, tmp_path, lengths):
        rows = []
        for i, n in enumerate(lengths):
            p = tmp_path / f"s{i}.wav"
            make_wav(p, list(range(n)))
            rows.append((p.name, "pos" if i % 2 else "neg"))
        mpath = tmp_path / "m.csv"
        with open(mpath, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path", "label"])
            w.writerows(rows)
        return load_manifest(mpath)

    def test_assemble_uniform(self, tmp_path):
        m = self._manifest(tmp_path, [8, 8, 8])
        x, y, ids = assemble_dataset(m.rows, m.label_map)
        assert x.shape == (3, 1, 8) and x.dtype == np.float32
        np.testing.assert_array_equal(y, [0, 1, 0])
        assert ids == ["s0.wav", "s1.wav", "s2.wav"]

    def test_assemble_mismatch_names_both_paths(self, tmp_path):
        m = self._manifest(tmp_path, [8, 6])
        with pytest.raises(DataError, match=r"s1\.wav"):
            assemble_dataset(m.rows, m.label_map)

    def test_assemble_fixed_length_harmonizes(self, tmp_path):
        m = self._manifest(tmp_path, [8, 6, 10])
        x, _, _ = assemble_dataset(m.rows, m.label_map, target_length=8)
        assert x.shape == (3, 1, 8)
        # sample 1 was padded with zeros, sample 2 cropped
        np.testing.assert_array_equal(x[1, 0, 6:], [0.0, 0.0])
        np.testing.assert_allclose(x[2, 0] * 32768.0, np.arange(8), atol=1e-3)

    def test_assemble_empty(self):
        with pytest.raises(DataError):
            assemble_dataset([], {})

