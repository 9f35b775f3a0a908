import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stimkit.cli import main
from stimkit.errors import SizeError, ValidationError
from stimkit.pose import (
    HEAD_INDICES,
    N_BODY_PARTS,
    ClipRecord,
    center_sequence,
    filter_head,
    load_manifest,
    sample_windows,
    write_keypoint_file,
)
from stimkit.synth import (
    CLIP_LENGTH_CHOICES,
    FPS,
    FRAME_HEIGHT,
    HEAD_TEMPLATE,
    MAX_CLIPS_PER_SUBJECT,
    MAX_DRIFT,
    MAX_SUBJECTS,
    MotionParams,
    SubjectProfile,
    _rounded,
    clip_rng,
    gen_clip,
    gen_dataset,
    gen_profiles,
)


def _quiet_profile(**over):
    fields = dict(
        subject_id="s0",
        base_position=(320.0, 220.0),
        head_scale=60.0,
        keypoint_jitter_sigma=0.0,
        detection_dropout_prob=0.0,
    )
    fields.update(over)
    return SubjectProfile(**fields)


def _tree_digest(root):
    hasher = hashlib.sha256()
    for p in sorted(Path(root).rglob("*.json")):
        hasher.update(p.relative_to(root).as_posix().encode())
        hasher.update(p.read_bytes())
    return hasher.hexdigest()


class TestGenProfiles:
    def test_profiles_are_distinct_and_reproducible(self):
        a = gen_profiles(12, clip_rng(3, "profiles"))
        b = gen_profiles(12, clip_rng(3, "profiles"))
        assert [p.subject_id for p in a] == [f"synth_{i:03d}" for i in range(12)]
        assert a == b
        assert len({p.base_position for p in a}) == 12

    @pytest.mark.parametrize("n", [0, MAX_SUBJECTS + 1])
    def test_subject_count_outside_the_id_width_rejected(self, n):
        with pytest.raises(ValidationError, match=f"n_subjects must be in 1..{MAX_SUBJECTS}"):
            gen_profiles(n, clip_rng(0, "profiles"))

    @pytest.mark.parametrize("counts", [dict(n_subjects=2**64), dict(clips_per_subject=0),
                                        dict(clips_per_subject=MAX_CLIPS_PER_SUBJECT + 1)])
    def test_dataset_counts_outside_the_id_widths_rejected_before_writing(self, tmp_path, counts):
        # n_subjects=2**64 once drew profiles without end
        with pytest.raises(ValidationError, match=f"{next(iter(counts))} must be in 1.."):
            gen_dataset(tmp_path / "d", **counts)
        assert not (tmp_path / "d").exists()

    def test_different_seeds_differ(self):
        a = gen_profiles(3, clip_rng(1, "profiles"))
        b = gen_profiles(3, clip_rng(2, "profiles"))
        assert a[0].base_position != b[0].base_position


class TestGenClip:
    def test_no_motion_sources_gives_identical_frames(self):
        frames, record = gen_clip(
            _quiet_profile(), MotionParams("stable"), 40, rng=clip_rng(0, "x")
        )
        ref = frames[0, :, :2]
        for f in frames[1:]:
            assert np.array_equal(f[:, :2], ref)
        assert record.label == "negative"
        assert record.frame_range == (0, 39)

    def test_sine_phase(self):
        # f=2 Hz at 30 fps: zero displacement at t=0, peak at t=3.75 frames;
        # among integer frames the largest |displacement| in the first
        # quarter period is at t=4, and sin is exactly 0 at t=0 and t=15.
        params = MotionParams("headbanging", frequency=2.0, amplitude=0.1)
        frames, _ = gen_clip(_quiet_profile(), params, 40, rng=clip_rng(0, "x"))
        nose_y = frames[:, 0, 1]
        dy = nose_y - nose_y[0]
        amp = 0.1 * FRAME_HEIGHT
        assert dy[0] == 0.0
        assert abs(dy[15]) < 1e-9  # sin(2*pi*2*15/30) = sin(2*pi) = 0
        expected4 = amp * math.sin(2 * math.pi * 2 * 4 / 30.0)
        assert np.isclose(dy[4], expected4, atol=1e-9)
        assert np.isclose(np.max(np.abs(dy)), amp, rtol=0.02)

    def test_camera_walk_shifts_all_keypoints_identically(self):
        params = MotionParams("stable", camera_drift_sigma=2.0)
        frames, _ = gen_clip(_quiet_profile(), params, 40, rng=clip_rng(0, "x"))
        for f in frames[1:]:
            deltas = f[:, :2] - frames[0, :, :2]
            head = deltas[[0, 1, 15, 16, 17, 18]]
            assert np.allclose(head, head[0], atol=1e-9)

    def test_drift_at_the_bound_keeps_coordinates_finite(self):
        for seed in range(20):
            params = MotionParams("stable", camera_drift_sigma=MAX_DRIFT)
            frames, _ = gen_clip(_quiet_profile(), params, max(CLIP_LENGTH_CHOICES), rng=clip_rng(seed, "x"))
            assert np.isfinite(_rounded(frames)).all()
            assert np.isfinite(frames[:, :, :2] ** 2).all()  # the raster squares segment lengths

    @pytest.mark.parametrize("sigma", [-1.0, math.nextafter(MAX_DRIFT, math.inf), 1e308, math.inf, math.nan])
    def test_drift_outside_the_bound_rejected(self, sigma):
        with pytest.raises(ValidationError, match=r"camera_drift_sigma must be in \[0, 1e\+06\]"):
            MotionParams("stable", camera_drift_sigma=sigma)

    def test_too_few_frames_rejected(self):
        with pytest.raises(SizeError):
            gen_clip(_quiet_profile(), MotionParams("stable"), 34, rng=clip_rng(0, "x"))

    def test_stable_class_forces_zero_amplitude(self):
        params = MotionParams("stable", amplitude=0.5)
        assert params.amplitude == 0.0

    def test_dropout_hides_keypoints(self):
        profile = _quiet_profile(detection_dropout_prob=0.4)
        frames, _ = gen_clip(profile, MotionParams("stable"), 60, rng=clip_rng(0, "x"))
        confidences = frames[:, [0, 1, 15, 16, 17, 18], 2]
        assert (confidences == 0).any()
        assert (confidences > 0).any()


def _stable_windows_and_centroids(n_clips=100, drift=1.5, n_frames=75):
    """Stable clips: per-clip (raw stride-1 centroid path, centered windows)."""
    out = []
    for i in range(n_clips):
        rng = clip_rng(1, f"stable_{i:03d}")
        base = gen_profiles(1, rng)[0]
        profile = replace(base, subject_id=f"s{i}", detection_dropout_prob=0.0)
        params = MotionParams("stable", camera_drift_sigma=drift)
        frames, _ = gen_clip(profile, params, n_frames, rng=rng, clip_id=f"c{i}")
        heads = [filter_head(f) for f in frames]
        centroids = np.array([h.coords[h.present].mean(axis=0) for h in heads])
        raw_path = float(np.sum(np.hypot(*np.diff(centroids, axis=0).T)))
        windows = sample_windows(
            heads, clip_id=f"c{i}", subject_id=f"s{i}", label="negative", frame_size=(640, 480)
        )
        centered = [center_sequence(w) for w in windows]
        out.append((raw_path, centered))
    return out


class TestDriftAndCentering:
    def test_post_centering_window_motion_under_20pct_of_raw_drift(self):
        # the acceptance-level representation-robustness check, batch of 100
        ratios = []
        for raw_path, centered in _stable_windows_and_centroids():
            window_paths = []
            for w in centered:
                fc = w.frame_centroids()
                window_paths.append(np.sum(np.hypot(*np.diff(fc, axis=0).T)))
            ratios.append(np.mean(window_paths) / raw_path)
        assert np.mean(ratios) < 0.2

    def test_centered_centroid_offsets_are_small_fraction_of_drift(self):
        center = np.array([320.0, 240.0])
        ratios = []
        for raw_path, centered in _stable_windows_and_centroids(n_clips=40):
            devs = []
            for w in centered:
                fc = w.frame_centroids()
                devs.append(np.mean(np.hypot(*(fc - center).T)))
            ratios.append(np.mean(devs) / raw_path)
        assert np.mean(ratios) < 0.2

    def test_headbanging_spectrum_peaks_at_generating_frequency(self):
        for i, freq in enumerate([1.2, 1.9, 2.4]):
            rng = clip_rng(2, f"hb_{i}")
            profile = _quiet_profile(keypoint_jitter_sigma=1.0)
            params = MotionParams("headbanging", frequency=freq, amplitude=0.1, camera_drift_sigma=1.5)
            frames, _ = gen_clip(profile, params, 90, rng=rng)
            heads = [filter_head(f) for f in frames]
            centroids = np.array([h.coords[h.present].mean(axis=0) for h in heads])
            disp = np.diff(centroids[:, 1])  # vertical per-frame displacement
            spectrum = np.abs(np.fft.rfft(disp))
            freqs = np.fft.rfftfreq(len(disp), d=1 / 30.0)
            peak = freqs[1:][np.argmax(spectrum[1:])]
            assert abs(peak - freq) <= 0.5, f"freq {freq}: peak at {peak}"

    def test_stable_displacement_bounded_by_jitter_term(self):
        # drift-free, jitter-only clips: mean per-frame centroid displacement
        # stays under 3*sigma/sqrt(6)
        sigma = 1.0
        profile = _quiet_profile(keypoint_jitter_sigma=sigma)
        params = MotionParams("stable", camera_drift_sigma=0.0)
        disps = []
        for i in range(20):
            frames, _ = gen_clip(profile, params, 60, rng=clip_rng(3, f"j{i}"))
            heads = [filter_head(f) for f in frames]
            centroids = np.array([h.coords[h.present].mean(axis=0) for h in heads])
            disps.append(np.mean(np.hypot(*np.diff(centroids, axis=0).T)))
        assert np.mean(disps) < 3.0 * sigma / math.sqrt(6.0)

    def test_drift_parameters_identical_across_classes(self):
        pos = MotionParams("headbanging", camera_drift_sigma=1.5)
        neg = MotionParams("stable", camera_drift_sigma=1.5)
        assert pos.camera_drift_sigma == neg.camera_drift_sigma


class TestGenDataset:
    def test_default_dataset_shape(self, tmp_path):
        manifest_path = gen_dataset(tmp_path, seed=1)
        manifest = load_manifest(manifest_path)
        assert len(manifest.clips) == 72
        labels = [c.label for c in manifest.clips]
        assert labels.count("positive") == 36
        assert labels.count("negative") == 36
        assert len({c.subject_id for c in manifest.clips}) == 12

    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_dataset(d1, n_subjects=3, clips_per_subject=2, seed=9)
        gen_dataset(d2, n_subjects=3, clips_per_subject=2, seed=9)

        assert _tree_digest(d1) == _tree_digest(d2)

    def test_manifest_loads_and_windows_build(self, mini_dataset):
        from stimkit.data import build_dataset

        manifest = load_manifest(mini_dataset)
        ds = build_dataset(manifest)
        assert len(ds.windows) > 0
        assert {w.label for w in ds.windows} == {"positive", "negative"}


def _reference_gen_clip(profile, params, n_frames, fps, rng, clip_id):
    # gen_clip as a per-frame loop that fills one (25, 3) array per frame:
    # the generator the array version must match byte for byte
    template = HEAD_TEMPLATE * profile.head_scale + np.asarray(profile.base_position)
    axis = np.asarray(params.axis)
    amplitude_px = params.amplitude * FRAME_HEIGHT
    frames = []
    camera = np.zeros(2)
    for t in range(n_frames):
        if t > 0 and params.camera_drift_sigma > 0:
            camera = camera + rng.normal(0.0, params.camera_drift_sigma, size=2)
        osc = amplitude_px * math.sin(2.0 * math.pi * params.frequency * t / fps)
        pts = template + osc * axis + camera
        if profile.keypoint_jitter_sigma > 0:
            pts = pts + rng.normal(0.0, profile.keypoint_jitter_sigma, size=(6, 2))
        dropped = rng.random(6) < profile.detection_dropout_prob
        conf = rng.uniform(0.6, 1.0, size=6)
        kps = np.zeros((N_BODY_PARTS, 3))
        for slot, idx in enumerate(HEAD_INDICES):
            if not dropped[slot]:
                kps[idx] = (pts[slot, 0], pts[slot, 1], conf[slot])
        frames.append(kps)
    record = ClipRecord(clip_id, profile.subject_id, params.label, fps, "", (0, n_frames - 1))
    return frames, record


def _reference_frame_document(frame):
    flat = []
    for x, y, c in frame:
        flat.extend((round(float(x), 3), round(float(y), 3), round(float(c), 3)))
    return {"people": [{"pose_keypoints_2d": flat}] if frame[:, 2].any() else []}


def _reference_file(frames):
    return (json.dumps([_reference_frame_document(f) for f in frames], sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def _written(path, frames):
    """The bytes gen_dataset writes for ``frames``: rounded, then through the keypoint file writer."""
    write_keypoint_file(path, _rounded(np.asarray(frames)))
    return path.read_bytes()


_CLIP_CASES = {
    "default": ({}, {}),
    "no_jitter": ({"keypoint_jitter_sigma": 0.0}, {}),
    "no_drift": ({}, {"camera_drift_sigma": 0.0}),
    "no_jitter_no_drift": ({"keypoint_jitter_sigma": 0.0}, {"camera_drift_sigma": 0.0}),
    "high_dropout": ({"detection_dropout_prob": 0.45}, {}),
    "stable": ({}, {"class_name": "stable"}),
    "diagonal_axis": ({}, {"axis": (0.6, 0.8), "frequency": 2.9}),
}


class TestGenClipBytes:
    """The array gen_clip and the documents equal the per-frame references byte for byte."""

    @pytest.mark.parametrize("n_frames", sorted({35, *CLIP_LENGTH_CHOICES}))
    @pytest.mark.parametrize("case", sorted(_CLIP_CASES))
    def test_frames_documents_and_draws_match_reference(self, case, n_frames, tmp_path):
        profile_over, params_over = _CLIP_CASES[case]
        profile = replace(gen_profiles(1, clip_rng(4, "profiles"))[0], **profile_over)
        params = MotionParams(**{"class_name": "headbanging", "frequency": 1.7, "amplitude": 0.12,
                                 "camera_drift_sigma": 1.5, **params_over})
        rng, ref_rng = clip_rng(4, case), clip_rng(4, case)
        frames, record = gen_clip(profile, params, n_frames, rng, "c")
        want_frames, want_record = _reference_gen_clip(profile, params, n_frames, FPS, ref_rng, "c")
        assert record == want_record
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # the same draws were taken
        assert frames.shape == (n_frames, N_BODY_PARTS, 3)  # row t is frame t
        for got, want in zip(frames, want_frames, strict=True):
            assert got.tobytes() == want.tobytes()
        # bytes, not ==: json writes 0.0 and -0.0 differently
        assert _written(tmp_path / "clip.json", frames) == _reference_file(want_frames)
        if case == "high_dropout":
            assert (frames[:, HEAD_INDICES, 2] == 0).any()

    def test_document_keeps_signed_zeros_and_python_rounding(self, tmp_path):
        rng = np.random.default_rng(0)
        kps = rng.normal(0.0, 1e-3, size=(N_BODY_PARTS, 3)) * rng.integers(0, 2, size=(N_BODY_PARTS, 3))
        kps[0] = (-0.0, 0.0, -1e-4)  # -1e-4 rounds to -0.0
        kps[1] = (0.0005, 2.675, 1.0005)  # halfway in decimal, not in binary
        kps[2] = (1e300, -5e-324, 123.4565)
        blob = _written(tmp_path / "clip.json", [kps])
        assert blob == _reference_file([kps])
        assert repr(json.loads(blob)[0]["people"][0]["pose_keypoints_2d"][:3]) == "[-0.0, 0.0, -0.0]"
        empty = np.zeros((N_BODY_PARTS, 3))
        assert _written(tmp_path / "empty.json", [empty]) == _reference_file([empty]) == b'[{"people":[]}]\n'

    def test_default_synth_tree_is_pinned(self, tmp_path):
        # the digest of what the per-frame generator wrote for `stimkit synth --seed 1`
        assert main(["synth", "-o", str(tmp_path), "--seed", "1"]) == 0
        assert _tree_digest(tmp_path) == "0e20b2b3c6b99219720a05e9ff2f67d1b8009b550c6bbb794ac33416f824c0ce"
