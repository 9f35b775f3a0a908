import hashlib

import numpy as np
import pytest

from stimkit.augment import AugmentSpec, make_training_augmenter
from stimkit.errors import ValidationError
from stimkit import raster
from stimkit.raster import RasterSpec, rasterize, stamp

from conftest import window_fixture


def _single_point_window(xy, frame_size=(640, 480), n_frames=7):
    # two points stacked at the same place so the frame counts as valid
    return window_fixture([[xy, xy] for _ in range(n_frames)], frame_size=frame_size)


class TestRasterize:
    def test_source_center_maps_to_raster_center(self):
        clip = rasterize(_single_point_window((320.0, 240.0)), RasterSpec(center_mode="none"))
        img = clip.frames[0]
        ys, xs = np.nonzero(img)
        # a radius-2 disk centered at (32, 32)
        assert xs.min() == 30 and xs.max() == 34
        assert ys.min() == 30 and ys.max() == 34
        assert img[32, 32] == 1.0

    def test_horizontal_edge_joins_the_two_disks(self):
        # nose and neck at the same y, exactly one drawn edge between them
        seq = window_fixture([[(200.0, 240.0), (440.0, 240.0)] for _ in range(7)])
        clip = rasterize(seq, RasterSpec(center_mode="none"))
        img = clip.frames[0]
        # oracle: per-pixel distance to the ideal segment / disks
        a = np.array([200.0 * 0.1, 240.0 * 0.1 + (64 - 48) / 2.0])
        b = np.array([440.0 * 0.1, 240.0 * 0.1 + (64 - 48) / 2.0])
        for x in range(int(a[0]), int(b[0]) + 1):
            assert img[int(a[1]), x] == 1.0, f"gap at x={x}"
        # nothing far from the segment row is set
        assert img[: int(a[1]) - 3].sum() == 0
        assert img[int(a[1]) + 4 :].sum() == 0

    @pytest.mark.parametrize("ear_present", [False, True])
    def test_edge_drawn_only_between_present_endpoints(self, ear_present):
        # left_ear sits at the source origin, which maps to raster (0, 8); the
        # left_eye-left_ear edge reaches up there only when the ear is present
        ear = (0.0, 0.0) if ear_present else None
        seq = window_fixture([[(200.0, 240.0), (200.0, 300.0), None, (440.0, 240.0), None, ear]] * 7)
        img = rasterize(seq, RasterSpec(center_mode="none")).frames[0]
        assert img[30:41, 18:47].sum() > 0  # nose, neck, left_eye and their edges
        assert (img[:25].sum() > 0) == ear_present

    def test_all_absent_frames_render_black(self):
        seq = window_fixture([[(10.0, 10.0), (20.0, 20.0)]] + [[None] * 6] * 6)
        clip = rasterize(seq, RasterSpec(center_mode="none"))
        assert clip.frames[1:].sum() == 0
        assert clip.frames[0].sum() > 0

    def test_values_are_binary(self):
        seq = window_fixture(
            [[(300.0 + t, 200.0), (300.0, 250.0), (290.0, 190.0), (310.0, 190.0)] for t in range(7)]
        )
        clip = rasterize(seq)
        assert set(np.unique(clip.frames)) <= {0.0, 1.0}

    def test_nonzero_budget(self):
        seq = window_fixture(
            [[(300.0, 200.0), (300.0, 250.0), (290.0, 190.0), (310.0, 190.0), (280.0, 195.0), (320.0, 195.0)]]
            * 7
        )
        spec = RasterSpec()
        clip = rasterize(seq, spec)
        disk_area = np.pi * (spec.point_radius + 1) ** 2
        line_budget = 5 * (np.hypot(64, 64) * (spec.line_thickness + 1))
        assert (clip.frames > 0).sum() <= 7 * (disk_area * 6 + line_budget)

    def test_deterministic(self):
        seq = window_fixture([[(300.0, 200.0 + 3 * t), (300.0, 250.0)] for t in range(7)])
        a = rasterize(seq).frames
        b = rasterize(seq).frames
        assert np.array_equal(a, b)

    def test_points_outside_raster_silently_clipped(self):
        seq = window_fixture([[(5000.0, 200.0), (300.0, 250.0)] for _ in range(7)])
        clip = rasterize(seq, RasterSpec(center_mode="none"))
        assert clip.frames.shape == (7, 64, 64)  # no error; off-frame disk clipped

    def test_centering_matches_center_sequence_composition(self):
        from stimkit.pose import center_sequence

        seq = window_fixture(
            [[(300.0 + 5 * t, 200.0 + 2 * t), (300.0 + 5 * t, 250.0 + 2 * t)] for t in range(7)]
        )
        direct = rasterize(seq, RasterSpec(center_mode="sequence_mean")).frames
        explicit = rasterize(center_sequence(seq), RasterSpec(center_mode="none")).frames
        assert np.array_equal(direct, explicit)

    def test_label_and_identity_carried(self):
        seq = window_fixture([[(10.0, 10.0), (20.0, 20.0)]] * 7, label="negative")
        clip = rasterize(seq)
        assert clip.label == 0
        assert clip.source is seq
        assert (clip.source.subject_id, clip.source.clip_id, clip.source.origin_frame) == ("subj", "fixture", 0)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            RasterSpec(width=0)
        assert RasterSpec(width=8, height=8).width == 8  # the model decides which sizes it takes
        with pytest.raises(ValidationError):
            RasterSpec(point_radius=0.5)
        with pytest.raises(ValidationError):
            RasterSpec(center_mode="median")


def _reference_disk(img, cx, cy, radius):
    h, w = img.shape
    r2 = radius * radius
    x0 = max(int(np.floor(cx - radius)), 0)
    x1 = min(int(np.ceil(cx + radius)), w - 1)
    y0 = max(int(np.floor(cy - radius)), 0)
    y1 = min(int(np.ceil(cy + radius)), h - 1)
    if x1 < x0 or y1 < y0:
        return
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    dx = xs - cx
    dy = ys - cy
    img[y0 : y1 + 1, x0 : x1 + 1][dx * dx + dy * dy <= r2] = 1.0


def _reference_segment(img, ax, ay, bx, by, half_thick):
    h, w = img.shape
    t2 = half_thick * half_thick
    x0 = max(int(np.floor(min(ax, bx) - half_thick)), 0)
    x1 = min(int(np.ceil(max(ax, bx) + half_thick)), w - 1)
    y0 = max(int(np.floor(min(ay, by) - half_thick)), 0)
    y1 = min(int(np.ceil(max(ay, by) + half_thick)), h - 1)
    if x1 < x0 or y1 < y0:
        return
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    ux = bx - ax
    uy = by - ay
    seg2 = ux * ux + uy * uy
    if seg2 == 0.0:
        dx = xs - ax
        dy = ys - ay
    else:
        t = ((xs - ax) * ux + (ys - ay) * uy) / seg2
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        dx = xs - (ax + t * ux)
        dy = ys - (ay + t * uy)
    img[y0 : y1 + 1, x0 : x1 + 1][dx * dx + dy * dy <= t2] = 1.0


class TestStampKernel:
    # The per-primitive disk and segment stampers the batched kernel replaced,
    # kept above as the reference: the two must set exactly the same pixels.

    @pytest.mark.parametrize("chunk_pixels", [raster._CHUNK_PIXELS, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_primitive_reference(self, monkeypatch, chunk_pixels, seed):
        monkeypatch.setattr(raster, "_CHUNK_PIXELS", chunk_pixels)
        rng = np.random.default_rng(seed)
        n_frames, h, w = 3, 400, 380
        n = 300
        # centers reach past every border, so some primitives are partly or
        # fully off-image
        ends = rng.uniform(-30.0, [w + 30.0, h + 30.0], size=(n, 2))
        segments = np.concatenate([ends, ends + rng.normal(0.0, 6.0, size=(n, 2))], axis=1)
        segments[::7, 2:] = segments[::7, :2]  # zero-length segments
        segments[::11, 2:] = np.round(segments[::11, 2:])  # integer endpoints
        is_disk = np.zeros(n, bool)
        is_disk[::3] = True
        segments[is_disk, 2:] = segments[is_disk, :2]
        segments[-1] = (-5.0, -5.0, w + 5.0, h + 5.0)  # one long diagonal
        frame = rng.integers(0, n_frames, size=n)
        radius = rng.choice([0.5, 1.0, 1.5, 2.0, 3.7], size=n)
        assert w * h > raster._CHUNK_PIXELS  # the diagonal's clipped box fills a chunk alone

        expected = np.zeros((n_frames, h, w), np.float32)
        for (ax, ay, bx, by), f, r, disk in zip(segments, frame, radius, is_disk):
            if disk:
                _reference_disk(expected[f], ax, ay, r)
            else:
                _reference_segment(expected[f], ax, ay, bx, by, r)
        got = np.zeros_like(expected)
        stamp(got, frame, segments, radius)
        assert expected.sum() > 0 and got.tobytes() == expected.tobytes()

    def test_off_image_non_finite_and_empty_batches_draw_nothing(self):
        stack = np.zeros((1, 16, 16), np.float32)
        stamp(stack, 0, [(-10.0, -10.0, -4.0, -3.0), (40.0, 5.0, 40.0, 5.0)], 2.0)
        stamp(stack, 0, [(np.inf, 4.0, 4.0, 4.0), (4.0, np.nan, 4.0, 4.0)], 2.0)
        stamp(stack, 0, np.zeros((0, 4)), 1.0)
        assert not stack.any()


class TestPinnedPixels:
    def test_synth_dataset_rasters_are_pinned(self, tmp_path):
        # Bytes of every default-spec raster over a small synthetic dataset
        # (51 windows), as produced with numpy 2.4.6. Any change to the
        # centering, scaling or pixel-inclusion arithmetic moves this digest.
        from stimkit.data import build_dataset
        from stimkit.pose import load_manifest
        from stimkit.synth import gen_dataset

        ds = build_dataset(load_manifest(gen_dataset(tmp_path, n_subjects=4, seed=1)))
        digest = hashlib.sha256()
        for window in ds.windows:
            digest.update(rasterize(window, RasterSpec()).frames.tobytes())
        assert len(ds.windows) == 51
        assert digest.hexdigest() == "b5141d3bfd78436f912bc542dba75c2d2206cbfec7222ef05c93dfea38803475"


class TestPinnedAugment:
    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("per_clip", "e49ecd6b415befa3598751b9261097fd63ef771aa7b362e959d1664b4d13e77e"),
            ("per_frame", "4319e872e0ea770aee8a02510101adfedb8ced4b2b9dc5fdf9c70fcf5df62d72"),
        ],
    )
    def test_augmented_rasters_are_pinned(self, tmp_path, mode, expected):
        # Bytes of make_training_augmenter's frames over the 51 default-spec
        # windows of TestPinnedPixels' dataset, drawing from one
        # generator in window order, as produced with numpy 2.4.6. Any
        # change to the draw order, the rotate/zoom arithmetic or the
        # re-rendering moves this digest.
        from stimkit.data import build_dataset
        from stimkit.pose import load_manifest
        from stimkit.synth import gen_dataset

        ds = build_dataset(load_manifest(gen_dataset(tmp_path, n_subjects=4, seed=1)))
        augment = make_training_augmenter(AugmentSpec(mode=mode))
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for window in ds.windows:
            digest.update(augment(rasterize(window, RasterSpec()), rng).frames.tobytes())
        assert len(ds.windows) == 51
        assert digest.hexdigest() == expected
