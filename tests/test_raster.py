import hashlib

import numpy as np
import pytest

from stimkit.errors import ValidationError
from stimkit.raster import RasterSpec, rasterize

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
        assert clip.subject_id == "subj"
        assert clip.source is seq

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            RasterSpec(width=8)
        with pytest.raises(ValidationError):
            RasterSpec(point_radius=0.5)
        with pytest.raises(ValidationError):
            RasterSpec(center_mode="median")


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
