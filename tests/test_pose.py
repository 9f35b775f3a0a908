import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stimkit.data import WindowParams, clip_windows
from stimkit.errors import (
    ConflictError,
    InvalidSequenceError,
    KeypointFormatError,
    KeypointParseError,
    SchemaError,
    ValidationError,
)
from stimkit.pose import (
    HEAD_INDICES,
    HEAD_LABELS,
    MIN_POINTS_PER_FRAME,
    KeypointSequence,
    center_sequence,
    filter_head,
    import_openpose_frame,
    load_manifest,
    sample_windows,
)

from conftest import full_body_frame, make_pose_frame_json, window_fixture


class TestImportOpenposeFrame:
    def test_75_number_flat_array_maps_triples_to_slots(self):
        kps = [(1.0 * i, 2.0 * i, 0.5) for i in range(25)]
        frame = import_openpose_frame(make_pose_frame_json(kps), frame_index=4)
        assert frame.shape == (25, 3)
        for i in range(25):
            assert frame[i, 0] == 1.0 * i
            assert frame[i, 1] == 2.0 * i
            assert frame[i, 2] == 0.5

    def test_empty_people_gives_all_absent(self):
        frame = import_openpose_frame(b'{"people": []}', frame_index=0)
        assert frame.shape == (25, 3)
        assert np.all(frame == 0)

    def test_two_people_picks_higher_head_confidence(self):
        person_a = full_body_frame(confidence=0.3)
        person_b = full_body_frame(confidence=0.8, base=(300.0, 10.0))
        raw = make_pose_frame_json(person_a, extra_people=[person_b])
        frame = import_openpose_frame(raw)
        assert frame[0, 0] == 300.0  # person B's nose

    def test_malformed_json_names_source_and_offset(self):
        with pytest.raises(KeypointParseError) as err:
            import_openpose_frame(b'{"people": [', source="clip7.json")
        assert err.value.source == "clip7.json"
        assert isinstance(err.value.offset, int)

    def test_length_not_divisible_by_3_is_format_error(self):
        raw = json.dumps({"people": [{"pose_keypoints_2d": [1.0, 2.0, 0.5, 9.0]}]}).encode()
        with pytest.raises(KeypointFormatError, match="divisible by 3"):
            import_openpose_frame(raw)

    def test_wrong_keypoint_count_is_format_error(self):
        raw = json.dumps({"people": [{"pose_keypoints_2d": [1.0, 2.0, 0.5] * 18}]}).encode()
        with pytest.raises(KeypointFormatError, match="25 keypoints"):
            import_openpose_frame(raw)

    def test_round_trip_preserves_coordinates_exactly(self):
        kps = [(123.4375 + i, 86.0625 - i, 0.7109375) for i in range(25)]
        frame = import_openpose_frame(make_pose_frame_json(kps))
        flat = [v for kp in kps for v in kp]
        assert frame.reshape(-1).tolist() == flat


class TestLoadManifest:
    def _doc(self, clips):
        return {"version": 1, "frame_width": 640, "frame_height": 480, "clips": clips}

    def _clip(self, cid, **over):
        clip = {
            "id": cid,
            "subject": "s1",
            "label": "positive",
            "fps": 30.0,
            "keypoints": f"{cid}.json",
            "start_frame": 0,
            "end_frame": 74,
        }
        clip.update(over)
        return clip

    def test_two_distinct_clips_load(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(self._doc([self._clip("a"), self._clip("b")])))
        manifest = load_manifest(p)
        assert [c.clip_id for c in manifest.clips] == ["a", "b"]
        assert manifest.frame_size == (640, 480)

    def test_duplicate_clip_id_is_conflict(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(self._doc([self._clip("a"), self._clip("a")])))
        with pytest.raises(ConflictError, match="duplicate clip id"):
            load_manifest(p)

    def test_start_after_end_is_validation_error(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(self._doc([self._clip("a", start_frame=10, end_frame=3)])))
        with pytest.raises(ValidationError, match="start_frame"):
            load_manifest(p)

    @pytest.mark.parametrize("start,end", [(-3, 74), (-5, -1)])
    def test_negative_start_frame_is_validation_error(self, tmp_path, start, end):
        # (-3, 74) once loaded as frames 0..74 and (-5, -1) as an empty clip
        p = tmp_path / "m.json"
        p.write_text(json.dumps(self._doc([self._clip("a", start_frame=start, end_frame=end)])))
        with pytest.raises(ValidationError, match=f"clip 'a': start_frame must be >= 0, got {start}"):
            load_manifest(p)

    @pytest.mark.parametrize("field, value, reason", [
        ("start_frame", -3, "start_frame must be >= 0, got -3"),
        ("label", "UNSET", "label must be positive|negative, got 'UNSET'"),
        ("fps", -1, "fps must be > 0, got -1.0"),
    ])
    def test_record_errors_name_the_file_and_record(self, tmp_path, field, value, reason):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(self._doc([self._clip("a"), self._clip("b", **{field: value})])))
        with pytest.raises(ValidationError) as info:
            load_manifest(p)
        assert str(info.value) == f"{p}: clip record 1: clip 'b': {reason}"

    def test_missing_field_names_field_and_record(self, tmp_path):
        clip = self._clip("a")
        del clip["fps"]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(self._doc([clip])))
        with pytest.raises(SchemaError, match=r"record 0: missing field 'fps'"):
            load_manifest(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"version": 2, "frame_width": 1, "frame_height": 1, "clips": []}))
        with pytest.raises(SchemaError, match="version"):
            load_manifest(p)

    @pytest.mark.parametrize("field", ["version", "frame_width", "frame_height"])
    @pytest.mark.parametrize("value", [True, False, "1", None, 1.5, float("nan")])
    def test_header_number_of_wrong_kind_names_the_field(self, tmp_path, field, value):
        # "frame_height": true once loaded as a frame 1 pixel high, and "version": true as 1
        doc = self._doc([self._clip("a")])
        doc[field] = value
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"field '{field}'"):
            load_manifest(p)

    @pytest.mark.parametrize("field", ["frame_width", "frame_height"])
    @pytest.mark.parametrize("value", [0, -640])
    def test_frame_size_must_be_positive(self, tmp_path, field, value):
        doc = self._doc([self._clip("a")])
        doc[field] = value
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"field '{field}'"):
            load_manifest(p)

    def test_integral_floats_load_as_ints(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({**self._doc([self._clip("a")]), "version": 1.0, "frame_width": 640.0,
                                 "frame_height": 480.0}))
        manifest = load_manifest(p)
        assert manifest.frame_size == (640, 480)
        assert type(manifest.frame_width) is int and type(manifest.frame_height) is int


class TestFilterHead:
    def test_full_frame_gives_six_points_five_edges(self):
        frame = import_openpose_frame(make_pose_frame_json(full_body_frame()))
        head = filter_head(frame)
        assert head.present.all()

    def test_low_confidence_part_absent_and_edge_dropped(self):
        kps = full_body_frame()
        kps[18] = (kps[18][0], kps[18][1], 0.0)  # left_ear
        head = filter_head(import_openpose_frame(make_pose_frame_json(kps)))
        assert head.present.tolist() == [label != "left_ear" for label in HEAD_LABELS]
        assert head.coords[HEAD_LABELS.index("left_ear")].tolist() == [0.0, 0.0]

    def test_single_point_is_invalid(self):
        kps = [(0.0, 0.0, 0.0)] * 25
        kps[0] = (50.0, 60.0, 0.9)  # nose only
        head = filter_head(import_openpose_frame(make_pose_frame_json(kps)))
        # sample_windows counts such a frame as invalid (TestSampleWindows::test_frame_valid_from_min_points)
        assert int(head.present.sum()) == 1

    def test_threshold_boundary_keeps_at_threshold(self):
        kps = [(0.0, 0.0, 0.0)] * 25
        kps[0] = (5.0, 5.0, 0.1)
        kps[1] = (5.0, 9.0, 0.09)
        head = filter_head(import_openpose_frame(make_pose_frame_json(kps)), confidence_threshold=0.1)
        assert head.present[HEAD_LABELS.index("nose")]
        assert not head.present[HEAD_LABELS.index("neck")]

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1000, allow_nan=False),
                st.floats(0, 1000, allow_nan=False),
                st.floats(0, 1, allow_nan=False),
            ),
            min_size=25,
            max_size=25,
        )
    )
    def test_labels_always_within_head_set(self, triples):
        head = filter_head(np.array(triples))
        # slot i is head part HEAD_INDICES[i], present exactly when its confidence meets the threshold
        confidence = np.array(triples)[list(HEAD_INDICES), 2]
        assert head.present.tolist() == [bool(c >= 0.1 and c > 0) for c in confidence]
        assert (head.coords[~head.present] == 0).all()


def _heads(n, drop=(), points=6):
    """n head poses of ``points`` present parts each at frame indices 0..n-1; indices in drop are empty."""
    frames = []
    for t in range(n):
        kps = [(0.0, 0.0, 0.0)] * 25
        if t not in drop:
            for idx in HEAD_INDICES[:points]:
                kps[idx] = (100.0 + idx, 50.0 + idx, 0.9)
        frames.append(filter_head(np.array(kps)))
    return frames


class TestSampleWindows:
    def test_31_frame_clip_yields_single_window(self):
        wins = sample_windows(_heads(31), clip_id="c", frame_size=(640, 480))
        assert len(wins) == 1
        assert wins[0].frame_indices.tolist() == [0, 5, 10, 15, 20, 25, 30]

    def test_70_frame_clip_hop_15_starts(self):
        wins = sample_windows(_heads(70), clip_id="c", frame_size=(640, 480))
        assert [w.origin_frame for w in wins] == [0, 15, 30]

    def test_30_frame_clip_yields_nothing(self, caplog):
        with caplog.at_level("WARNING", logger="stimkit.pose"):
            wins = sample_windows(_heads(30), clip_id="c", frame_size=(640, 480))
        assert wins == []
        assert "no windows" in caplog.text

    def test_windows_below_valid_fraction_dropped(self):
        # window 0 samples frames 0,5,...,30; empty 3 of them -> 4/7 < 70%
        wins = sample_windows(_heads(46, drop={0, 5, 10}), clip_id="c", frame_size=(640, 480))
        assert [w.origin_frame for w in wins] == [15]

    def test_mild_occlusion_kept(self):
        # 5 of 7 valid frames passes the 70% rule
        wins = sample_windows(_heads(31, drop={5, 10}), clip_id="c", frame_size=(640, 480))
        assert len(wins) == 1

    @pytest.mark.parametrize("points,kept", [(1, 0), (2, 1)])
    def test_frame_valid_from_min_points(self, points, kept):
        # a frame counts toward the 70% rule only with >= MIN_POINTS_PER_FRAME present parts
        assert MIN_POINTS_PER_FRAME == 2
        wins = sample_windows(_heads(31, points=points), clip_id="c", frame_size=(640, 480))
        assert len(wins) == kept

    def test_first_frame_offsets_origins(self):
        wins = sample_windows(_heads(70), clip_id="c", frame_size=(640, 480), first_frame=12)
        assert [w.origin_frame for w in wins] == [12, 27, 42]
        assert wins[0].frame_indices.tolist() == [12, 17, 22, 27, 32, 37, 42]

    def test_origin_spacing_is_exactly_stride(self):
        for w in sample_windows(_heads(90), clip_id="c", frame_size=(640, 480)):
            diffs = np.diff(w.frame_indices)
            assert np.all(diffs == w.stride)
            assert w.frame_indices[-1] <= 89


def _frame_doc(t):
    """The document of frame t: every head part present, the nose's x = 100 + t."""
    flat = [0.0] * 75
    for n, idx in enumerate(HEAD_INDICES):
        flat[3 * idx : 3 * idx + 3] = [100.0 + t + n, 50.0 + n, 0.9]
    return {"people": [{"pose_keypoints_2d": flat}]}


class TestClipWindows:
    N = 100

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        """The same N frames as a per-frame directory and as a consolidated file."""
        root = tmp_path_factory.mktemp("clip_sources")
        docs = [_frame_doc(t) for t in range(self.N)]
        (root / "frames").mkdir()
        for t, doc in enumerate(docs):
            (root / "frames" / f"frame_{t:06d}.json").write_text(json.dumps(doc))
        (root / "clip.json").write_text(json.dumps(docs))
        return root / "frames", root / "clip.json"

    @pytest.mark.parametrize("frame_range", [(0, N - 1), (5, 60), (50, 1000)])
    def test_directory_and_file_give_the_same_windows_at_range_start(self, sources, frame_range):
        params = WindowParams()
        ids = dict(clip_id="c", subject_id="s", label="positive", frame_size=(640, 480))
        directory, file = (clip_windows(src, params, frame_range, **ids) for src in sources)
        start, end = frame_range
        n = min(end, self.N - 1) - start + 1
        assert len(directory) == (n - params.span) // params.hop + 1
        assert [w.origin_frame for w in directory] == [start + k * params.hop for k in range(len(directory))]
        for a, b in zip(directory, file, strict=True):
            assert (a.origin_frame, a.stride, a.clip_id) == (b.origin_frame, b.stride, b.clip_id)
            assert np.array_equal(a.coords, b.coords) and np.array_equal(a.present, b.present)
            # the nose's x names the source frame each window row came from
            assert (a.coords[:, 0, 0] - 100.0).tolist() == a.frame_indices.tolist()


class TestKeypointSequence:
    def test_frame_centroids_average_present_points_nan_when_empty(self):
        seq = window_fixture([[(0.0, 0.0), (2.0, 4.0), None, (4.0, 2.0)], [None] * 6, [(5.0, 7.0)]])
        fc = seq.frame_centroids()
        assert np.array_equal(fc[[0, 2]], [[2.0, 2.0], [5.0, 7.0]])
        assert np.isnan(fc[1]).all()

    def test_frame_size_is_required(self):
        # no window is drawn without the source frame geometry it came from
        seq = window_fixture([[(1.0, 2.0)]] * 7)
        arrays = dict(coords=seq.coords, present=seq.present)
        with pytest.raises(TypeError, match="frame_size"):
            KeypointSequence("c", "s", "negative", stride=5, origin_frame=0, **arrays)
        with pytest.raises(TypeError, match="frame_size"):
            sample_windows(_heads(31), clip_id="c")

    def test_mismatched_array_shapes_rejected(self):
        seq = window_fixture([[(1.0, 2.0), (3.0, 4.0)]] * 7)
        with pytest.raises(ValidationError, match="window arrays"):
            replace(seq, present=seq.present[:6])


class TestCenterSequence:
    def _osc(self, drift=(0.0, 0.0)):
        base = [(300.0, 200.0), (300.0, 250.0), (290.0, 190.0), (310.0, 190.0), (280.0, 195.0), (320.0, 195.0)]
        frames = []
        for t in range(7):
            dy = 20.0 * math.sin(math.pi * t / 3.0)
            frames.append([(x + t * drift[0], y + dy + t * drift[1]) for x, y in base])
        return window_fixture(frames)

    def test_already_centered_is_fixed_point(self):
        seq = center_sequence(self._osc())
        again = center_sequence(seq)
        assert np.array_equal(seq.coords, again.coords)

    def test_global_translation_cancels_exactly(self):
        seq = self._osc()
        translated = seq.copy()
        translated.coords[translated.present] += np.array([40.0, -12.0])
        a = center_sequence(seq)
        b = center_sequence(translated)
        assert np.array_equal(a.coords, b.coords)

    def test_interframe_displacements_preserved_under_drift(self):
        seq = self._osc(drift=(3.0, -2.0))
        centered = center_sequence(seq)
        assert np.allclose(np.diff(seq.coords, axis=0), np.diff(centered.coords, axis=0), atol=1e-9)

    def test_centroid_lands_on_frame_center(self):
        centered = center_sequence(self._osc(drift=(5.0, 1.0)))
        assert np.allclose(centered.coords[centered.present].mean(axis=0), [320.0, 240.0], atol=1e-9)

    def test_no_present_points_raises(self):
        seq = window_fixture([[None] * 6 for _ in range(7)])
        with pytest.raises(InvalidSequenceError):
            center_sequence(seq)
