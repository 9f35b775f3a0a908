"""Fuzz the file readers with arbitrary bytes and with mutated valid files,
and the run-config parser and the manifest loader with mutated documents.

Whatever the bytes, a reader raises nothing but a ``StimkitError``, and
the CLI command that reads the file exits 0, 2, 3 or 4 (never 1, an
escaped exception). A run config that the parser accepts also builds
its fold seeds, model weights and training generator; a manifest that
loads has a positive integer frame size and positive finite frame rates.
"""

import contextlib
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stimkit import imageio
from stimkit.cli import main
from stimkit.config import parse_run_config
from stimkit.data import WindowParams
from stimkit.errors import StimkitError
from stimkit.evaluate import _fold_seeds
from stimkit.nn.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from stimkit.nn.model import ConvBlock, ModelConfig, init_params, param_shapes
from stimkit.pose import load_clip_frames, load_manifest
from stimkit.raster import RasterSpec

from conftest import full_body_frame

EXIT_CODES = {0, 2, 3, 4}
# replacement bytes for text formats: JSON punctuation, digits and a non-UTF-8 byte
JSON_BYTES = b'0123456789.-+eE"[]{},: nulx\xff'
FUZZ = settings(max_examples=60)


def fuzzed(seed: bytes, alphabet=None, prefixes=(b"",), limit=None):
    """Arbitrary bytes after one of ``prefixes``; ``seed`` with up to 8 of its
    first ``limit`` bytes overwritten (by bytes from ``alphabet``, any byte
    when None); or ``seed`` cut short."""
    replacement = st.integers(0, 255) if alphabet is None else st.sampled_from(alphabet)

    def overwrite(edits):
        blob = bytearray(seed)
        for pos, value in edits:
            blob[pos] = value
        return bytes(blob)

    positions = st.integers(0, (limit or len(seed)) - 1)
    edits = st.lists(st.tuples(positions, replacement), min_size=1, max_size=8)
    return st.one_of(
        st.tuples(st.sampled_from(prefixes), st.binary(max_size=200)).map(b"".join),
        edits.map(overwrite),
        st.integers(0, len(seed) - 1).map(lambda n: seed[:n]),
    )


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def read_quietly(reader, path):
    try:
        reader(path)
    except StimkitError:
        pass


def _keypoint_doc(n_frames=6):
    flat = [round(v, 1) for kp in full_body_frame() for v in kp]
    return [{"people": [{"pose_keypoints_2d": flat}]} for _ in range(n_frames)]


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """Valid inputs of each format, plus what the CLI needs to read them."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "clip.json").write_text(json.dumps(_keypoint_doc()))
    (d / "short.json").write_text(json.dumps(_keypoint_doc(3)))
    manifest = {
        "version": 1,
        "frame_width": 640,
        "frame_height": 480,
        "clips": [{"id": "a", "subject": "s", "label": "positive", "fps": 30, "keypoints": "short.json",
                   "start_frame": 0, "end_frame": 2}],
    }
    (d / "manifest.json").write_text(json.dumps(manifest))
    run = {"manifest": str(d / "fuzzed_manifest.json"), "output_dir": str(d / "out"), "seed": 1}
    (d / "run.json").write_text(json.dumps(run))

    config = ModelConfig(T=2, height=16, width=16, conv_blocks=(ConvBlock(2),), frame_embedding=4, lstm_hidden=2)
    meta = {"raster": RasterSpec(16, 16).to_dict(), "window": WindowParams(T=2).to_dict(), "frame_size": [640, 480]}
    save_checkpoint(ModelCheckpoint(config, init_params(config), training_metadata=meta), d / "model.ckpt")

    rng = np.random.default_rng(0)
    imageio.write_ppm(d / "image.pgm", rng.integers(0, 256, (12, 12), dtype=np.uint8))
    imageio.write_png(d / "image.png", rng.integers(0, 256, (12, 12, 3), dtype=np.uint8))
    return d


def _seed_bytes(seeds, name):
    return (seeds / name).read_bytes()


@FUZZ
@given(data=st.data())
def test_manifest_reader_raises_only_stimkit_errors(seeds, data):
    blob = data.draw(fuzzed(_seed_bytes(seeds, "manifest.json"), JSON_BYTES))
    path = seeds / "fuzzed_manifest.json"
    path.write_bytes(blob)
    read_quietly(load_manifest, path)
    assert run_cli("train", "-c", seeds / "run.json") in EXIT_CODES


@FUZZ
@given(data=st.data())
def test_keypoint_reader_raises_only_stimkit_errors(seeds, data):
    blob = data.draw(fuzzed(_seed_bytes(seeds, "clip.json"), JSON_BYTES))
    path = seeds / "fuzzed_clip.json"
    path.write_bytes(blob)
    read_quietly(load_clip_frames, path)
    assert run_cli("predict", "-m", seeds / "model.ckpt", "-k", path) in EXIT_CODES


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("name", ["image.pgm", "image.png"])
def test_image_reader_raises_only_stimkit_errors(seeds, name, data):
    seed = _seed_bytes(seeds, name)
    blob = data.draw(fuzzed(seed, prefixes=(b"P5", b"P6 ", seed[:16])))
    path = seeds / f"fuzzed_{name}"
    path.write_bytes(blob)
    read_quietly(imageio.read_image, path)
    assert run_cli("flowviz", seeds / name, path, "-o", seeds / "flow_out") in EXIT_CODES


@FUZZ
@given(data=st.data())
def test_checkpoint_reader_raises_only_stimkit_errors(seeds, data):
    seed = _seed_bytes(seeds, "model.ckpt")
    header_end = 12 + int.from_bytes(seed[8:12], "little")
    blob = data.draw(st.one_of(fuzzed(seed, prefixes=(seed[:12],)), fuzzed(seed, JSON_BYTES, limit=header_end)))
    path = seeds / "fuzzed.ckpt"
    path.write_bytes(blob)
    read_quietly(load_checkpoint, path)
    assert run_cli("predict", "-m", path, "-k", seeds / "clip.json") in EXIT_CODES


# A valid cv/train run config, small enough that building its model is cheap.
RUN_DOC = {
    "manifest": "manifest.json",
    "output_dir": "out",
    "seed": 1,
    "k": 3,
    "window": {"T": 2, "stride": 1, "hop": 1, "confidence_threshold": 0.1},
    "raster": {"width": 16, "height": 16, "point_radius": 2.0, "center_mode": "none"},
    "model": {"conv_blocks": [{"filters": 2, "kernel": 3}], "frame_embedding": 4, "lstm_hidden": 2},
    "train": {"learning_rate": 0.001, "batch_size": 2, "epochs": 1},
    "augment": {"rotation_range": [-10.0, 10.0], "zoom_range": [1.0, 1.5]},
    "holdout_subjects": ["s01"],
}
# the most weights an accepted model may have (stimkit.nn.model.MAX_PARAMETERS)
BUILDABLE_WEIGHTS = 10**7
# numbers of the right JSON kind but out of range, huge or not finite
NUMBERS = st.one_of(
    st.sampled_from([-1, -(2**63), 2**63, 2**64, 10**30, 1e300, -1e300, 0.5, -0.0]),
    st.integers(-3, 40),
    st.floats(),
)
# wrong JSON kinds, nulls and nested junk
JUNK = st.one_of(
    NUMBERS,
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(-2, 4), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers(-2, 4)), max_size=2),
)


def _paths(doc, prefix=()):
    """Every path into ``doc``, the root included, as a tuple of keys and indices."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _edits(doc):
    """1-3 edits of ``doc``, each (action, path, value): a number or junk in place of
    the value at path, the key dropped, or an unknown key added beside it."""
    paths = st.sampled_from(list(_paths(doc)))
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), paths, NUMBERS),
            st.tuples(st.just("set"), paths, JUNK),
            st.tuples(st.just("drop"), paths, st.none()),
            st.tuples(st.just("add"), paths, st.tuples(st.text(min_size=1, max_size=4), JUNK)),
        ),
        min_size=1,
        max_size=3,
    )


def _edited(edits, base=RUN_DOC):
    doc = json.loads(json.dumps(base))
    for action, path, value in edits:
        if not path:
            doc = value if action == "set" else doc
            continue
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if action == "set":
                parent[path[-1]] = value
            elif action == "drop":
                del parent[path[-1]]
            else:
                parent[value[0]] = value[1]
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the path
    return doc


@settings(max_examples=300)
@example(edits=[("set", ("seed",), -1)])
@example(edits=[("set", ("model", "lstm_hidden"), 2**64)])
@example(edits=[("set", ("model", "conv_blocks", 0, "filters"), 1e300)])
@example(edits=[("set", ("raster", "width"), 2**64)])
@given(edits=_edits(RUN_DOC))
def test_run_config_parser_raises_only_stimkit_errors(tmp_path_factory, edits):
    try:
        cfg = parse_run_config(_edited(edits), tmp_path_factory.getbasetemp())
    except StimkitError:
        return
    # an accepted config must also build everything that seeds the run, for cv and for train;
    # its model's size is checked first, so a huge one fails here without being drawn
    assert sum(math.prod(shape) for shape in param_shapes(cfg.model).values()) <= BUILDABLE_WEIGHTS
    for fold in range(2):
        model_seed, train_seed = _fold_seeds(cfg.seed, fold)
        init_params(replace(cfg.model, seed=model_seed))
        np.random.Generator(np.random.PCG64(train_seed))
    init_params(cfg.model)
    np.random.Generator(np.random.PCG64(cfg.train.seed))


# A valid manifest; load_manifest checks its clip records without reading their keypoints.
MANIFEST_DOC = {
    "version": 1,
    "frame_width": 640,
    "frame_height": 480,
    "clips": [
        {"id": "a", "subject": "s01", "label": "positive", "fps": 30.0, "keypoints": "a.json",
         "start_frame": 0, "end_frame": 74},
        {"id": "b", "subject": "s02", "label": "negative", "fps": 25, "keypoints": "b.json",
         "start_frame": 5, "end_frame": 60},
    ],
}


@settings(max_examples=300)
@example(edits=[("set", ("frame_height",), True)])
@given(edits=_edits(MANIFEST_DOC))
def test_manifest_loader_raises_only_stimkit_errors(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "edited_manifest.json"
    path.write_text(json.dumps(_edited(edits, MANIFEST_DOC)))
    try:
        manifest = load_manifest(path)
    except StimkitError:
        return
    assert type(manifest.frame_width) is int and type(manifest.frame_height) is int
    assert manifest.frame_width > 0 and manifest.frame_height > 0
    assert all(math.isfinite(clip.fps) and clip.fps > 0 for clip in manifest.clips)
