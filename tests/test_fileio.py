"""Container formats: NCT1 tensors and binary netpbm images."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atrousseg.fileio import (ensure_dir, read_image, read_nct, read_pgm, read_ppm,
                              write_nct, write_pgm, write_ppm)


class TestNct:
    @given(st.lists(st.integers(1, 5), min_size=0, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, tmp_path_factory, shape, seed):
        path = tmp_path_factory.mktemp("nct") / "t.nct"
        arr = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        write_nct(path, arr)
        back = read_nct(path)
        assert back.shape == arr.shape
        assert back.dtype == np.float32
        assert (back == arr).all()

    def test_scalar_rank_zero(self, tmp_path):
        path = tmp_path / "s.nct"
        write_nct(path, np.float32(3.5))
        back = read_nct(path)
        assert back.shape == () and back == np.float32(3.5)

    def test_float64_input_downcast(self, tmp_path):
        path = tmp_path / "d.nct"
        write_nct(path, np.array([1.0, 2.0], dtype=np.float64))
        assert read_nct(path).dtype == np.float32

    @pytest.mark.parametrize("make", [
        lambda: np.float64(-2.25),
        lambda: np.linspace(-1.0, 1.0, 12).reshape(3, 4),
        lambda: np.arange(12, dtype=np.float32).reshape(3, 4).T,
        lambda: np.arange(24, dtype=np.float32).reshape(2, 3, 4)[:, ::-1, ::-2],
    ], ids=["rank0", "float64", "transposed", "flipped"])
    def test_bytes_are_c_order_little_endian_f4(self, tmp_path, make):
        a = make()
        path = tmp_path / "b.nct"
        write_nct(path, a)
        want = np.asarray(a, "<f4", order="C")
        header = b"NCT1" + struct.pack(f"<I{want.ndim}I", want.ndim, *want.shape)
        assert path.read_bytes() == header + want.tobytes()
        back = read_nct(path)
        assert back.shape == np.shape(a) and np.array_equal(back, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 5), (0, 3, 2), (2, 0, 3)])
    @pytest.mark.parametrize("view", ["c", "transposed", "flipped"])
    def test_slab_writer_matches_whole_array_writer(self, tmp_path, dtype, shape, view):
        def whole_array_write_nct(path, array):
            arr = np.asarray(array, dtype="<f4", order="C")
            with open(path, "wb") as fh:
                fh.write(b"NCT1")
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.data)

        a = (np.random.default_rng(7).normal(size=shape) * 1e3).astype(dtype)
        if view == "transposed":
            a = a.T
        elif view == "flipped":
            a = a[(slice(None, None, -1),) * a.ndim]
        got, want = tmp_path / "slab.nct", tmp_path / "whole.nct"
        write_nct(got, a)
        whole_array_write_nct(want, a)
        assert got.read_bytes() == want.read_bytes()

    def test_layout_is_documented_format(self, tmp_path):
        path = tmp_path / "l.nct"
        write_nct(path, np.arange(6, dtype=np.float32).reshape(2, 3))
        raw = path.read_bytes()
        assert raw[:4] == b"NCT1"
        assert struct.unpack("<I", raw[4:8]) == (2,)
        assert struct.unpack("<2I", raw[8:16]) == (2, 3)
        assert np.frombuffer(raw[16:], dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nct"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_nct(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.nct"
        write_nct(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_nct(path)

    @pytest.mark.parametrize("header", [b"", b"\x02\x00", struct.pack("<2I", 2, 4)],
                             ids=["no-rank", "half-rank", "one-of-two-extents"])
    def test_truncated_header_rejected(self, tmp_path, header):
        path = tmp_path / "t.nct"
        path.write_bytes(b"NCT1" + header)
        with pytest.raises(ValueError, match="truncated .* header"):
            read_nct(path)

    @pytest.mark.parametrize("extents", [(100000, 100000), (0xFFFFFFFF, 0xFFFFFFFF)],
                             ids=["1e10-values", "u32-max-squared"])
    def test_extents_beyond_file_rejected(self, tmp_path, extents):
        # refused from the header and the file size, before any allocation
        path = tmp_path / "big.nct"
        path.write_bytes(b"NCT1" + struct.pack("<3I", 2, *extents) + b"\x00" * 16)
        with pytest.raises(ValueError, match="truncated payload"):
            read_nct(path)

    def test_rank_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "rank.nct"
        path.write_bytes(b"NCT1" + struct.pack("<I", 0xFFFFFFFF) + b"\x00" * 16)
        with pytest.raises(ValueError, match="truncated extents header"):
            read_nct(path)

    def test_mutating_result_is_safe(self, tmp_path):
        # read_nct must hand back an owned array, not a frombuffer view
        path = tmp_path / "o.nct"
        write_nct(path, np.zeros(3, dtype=np.float32))
        back = read_nct(path)
        back[0] = 9.0
        assert read_nct(path)[0] == 0.0


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        plane = rng.integers(0, 256, (7, 11)).astype(np.uint8)
        path = tmp_path / "m.pgm"
        write_pgm(path, plane)
        assert (read_pgm(path) == plane).all()

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 2 # trailing\n255\n" + bytes([1, 2, 3, 4]))
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="not a P5"):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="8-bit"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_size_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n200000 200000\n255\n")
        with pytest.raises(ValueError, match="truncated PGM payload"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n-2 2\n255\n", b"P5\n2 -2\n255\n"],
                             ids=["width", "height"])
    def test_negative_size_rejected(self, tmp_path, header):
        path = tmp_path / "neg.pgm"
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(ValueError, match="negative netpbm size"):
            read_pgm(path)

    def test_non_plane_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-D"):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))


class TestPpm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (5, 9, 3)).astype(np.uint8)
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        assert (read_ppm(path) == img).all()

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.ppm"
        path.write_bytes(b"P6\n3")
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(path)


class TestReadImage:
    def test_ppm_scaled_as_float32_division(self, tmp_path):
        img = (np.arange(16 * 16 * 3) % 256).astype(np.uint8).reshape(16, 16, 3)
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        got = read_image(path)
        want = (img.astype(np.float32) / 255.0).transpose(2, 0, 1)
        assert got.dtype == np.float32 and got.shape == (3, 16, 16)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestEnsureDir:
    def test_creates_nested(self, tmp_path):
        target = tmp_path / "a" / "b" / "c"
        assert ensure_dir(target) == target
        assert target.is_dir()
        assert ensure_dir(target) == target  # idempotent
