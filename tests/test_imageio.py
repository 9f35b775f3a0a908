import struct
import zlib

import numpy as np
import pytest

from stimkit import imageio


@pytest.fixture()
def rgb():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(21, 33, 3), dtype=np.uint8)


@pytest.fixture()
def gray():
    rng = np.random.default_rng(1)
    return rng.integers(0, 256, size=(17, 13), dtype=np.uint8)


def _png_with_filters(img, ftypes, color_type):
    """PNG bytes of uint8 (H, W, C) ``img`` whose row r is filtered with type ``ftypes[r]``, from the pixels."""
    h, w, c = img.shape
    flat = img.reshape(h, w * c).astype(np.int64)
    rows = []
    for r, ftype in enumerate(ftypes):
        x = flat[r]
        up = flat[r - 1] if r else np.zeros_like(x)
        left = np.concatenate([np.zeros(c, np.int64), x[:-c]])
        corner = np.concatenate([np.zeros(c, np.int64), up[:-c]])
        p = left + up - corner
        pa, pb, pc = abs(p - left), abs(p - up), abs(p - corner)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, corner))
        pred = (0, left, up, (left + up) // 2, paeth)[ftype]
        rows.append(bytes([ftype]) + ((x - pred) % 256).astype(np.uint8).tobytes())
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (imageio._PNG_SIG + imageio._chunk(b"IHDR", ihdr) + imageio._chunk(b"IDAT", zlib.compress(b"".join(rows)))
            + imageio._chunk(b"IEND", b""))


class TestPng:
    @pytest.mark.parametrize("color_type, channels", [(0, 1), (4, 2), (2, 3), (6, 4)], ids=["gray", "gray_alpha", "rgb", "rgba"])
    def test_every_filter_type_decodes(self, tmp_path, color_type, channels):
        # the writer uses only Up rows, so these are the only rows of types 1, 3 and 4 read here
        img = np.random.default_rng(channels).integers(0, 256, size=(14, 9, channels), dtype=np.uint8)
        ftypes = (2, 2, 0, 1, 3, 4, 2, 2, 2, 1, 4, 3, 0, 2)  # Up first, Up runs after other types, Up last
        p = tmp_path / "f.png"
        p.write_bytes(_png_with_filters(img, ftypes, color_type))
        expected = img[:, :, :3] if channels >= 3 else img[:, :, 0]  # alpha is dropped
        assert np.array_equal(imageio.read_png(p), expected)

    def test_rgb_round_trip(self, tmp_path, rgb):
        p = tmp_path / "x.png"
        imageio.write_png(p, rgb)
        assert np.array_equal(imageio.read_png(p), rgb)

    def test_gray_round_trip(self, tmp_path, gray):
        p = tmp_path / "g.png"
        imageio.write_png(p, gray)
        assert np.array_equal(imageio.read_png(p), gray)

    def test_write_is_deterministic(self, tmp_path, rgb):
        a, b = tmp_path / "a.png", tmp_path / "b.png"
        imageio.write_png(a, rgb)
        imageio.write_png(b, rgb)
        assert a.read_bytes() == b.read_bytes()

    def test_rows_are_written_with_the_up_filter(self, tmp_path, rgb, gray):
        for name, img in (("rgb.png", rgb), ("gray.png", gray)):
            p = tmp_path / name
            imageio.write_png(p, img)
            blob = p.read_bytes()
            start = blob.index(b"IDAT") + 4
            (length,) = struct.unpack(">I", blob[start - 8 : start - 4])
            rows = np.frombuffer(zlib.decompress(blob[start : start + length]), np.uint8).reshape(img.shape[0], -1)
            assert np.all(rows[:, 0] == 2)  # filter type Up on every row
            assert np.array_equal(imageio.read_png(p), img)

    def test_filtered_png_decodes(self, tmp_path, rgb):
        # round-trip through PIL (which uses adaptive filters) if available
        pil = pytest.importorskip("PIL.Image")
        p = tmp_path / "f.png"
        pil.fromarray(rgb).save(p)
        assert np.array_equal(imageio.read_png(p), rgb)

    def test_not_a_png_rejected(self, tmp_path):
        p = tmp_path / "no.png"
        p.write_bytes(b"hello world")
        with pytest.raises(imageio.ImageFormatError):
            imageio.read_png(p)


class TestPpm:
    def test_ppm_round_trip(self, tmp_path, rgb):
        p = tmp_path / "x.ppm"
        imageio.write_ppm(p, rgb)
        assert np.array_equal(imageio.read_ppm(p), rgb)

    def test_pgm_round_trip(self, tmp_path, gray):
        p = tmp_path / "x.pgm"
        imageio.write_ppm(p, gray)
        assert np.array_equal(imageio.read_ppm(p), gray)

    def test_read_image_sniffs_format(self, tmp_path, rgb):
        a, b = tmp_path / "a.png", tmp_path / "b.ppm"
        imageio.write_image(a, rgb)
        imageio.write_image(b, rgb)
        assert np.array_equal(imageio.read_image(a), imageio.read_image(b))


class TestGray:
    def test_to_gray01_range_and_weights(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[0, 0] = (255, 0, 0)
        g = imageio.to_gray01(img)
        assert 0.0 <= g.min() and g.max() <= 1.0
        assert np.isclose(g[0, 0], 0.299)
        assert g[1, 1] == 0.0
