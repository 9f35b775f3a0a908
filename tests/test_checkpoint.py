import json
import struct

import numpy as np
import pytest

from stimkit.errors import SchemaError
from stimkit.nn.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from stimkit.nn.gradcheck import micro_config
from stimkit.nn.model import init_params
from stimkit.nn.optim import TrainConfig
from stimkit.nn.train import predict, train

from test_model_train import _training_set


def _checkpoint(seed=0):
    cfg = micro_config(seed=seed)
    return ModelCheckpoint(
        config=cfg,
        parameters=init_params(cfg),
        training_metadata={"epochs_run": 3, "final_loss": 0.25, "seed": seed},
    )


def _saved_checkpoint(tmp_path):
    """A saved checkpoint's path, bytes and JSON header length."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(_checkpoint(), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    return path, blob, hlen


class TestRoundTrip:
    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_checkpoint(), path)
        assert path.read_bytes()[:8] == b"STIMKIT1"

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(_checkpoint(seed=7), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameters_and_config_survive(self, tmp_path):
        ckpt = _checkpoint(seed=3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.training_metadata == ckpt.training_metadata
        assert set(loaded.parameters) == set(ckpt.parameters)
        for name in ckpt.parameters:
            assert np.array_equal(loaded.parameters[name], ckpt.parameters[name])

    def test_predictions_identical_after_reload(self, tmp_path):
        ckpt, _ = train(micro_config(seed=1), _training_set(), TrainConfig(epochs=3, batch_size=4, seed=2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        clip = np.random.default_rng(5).random((2, 8, 8)).astype(np.float32)
        assert predict(loaded, clip) == predict(ckpt, clip)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(SchemaError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", ["10_bytes", "mid_header", "mid_payload"])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path, blob, hlen = _saved_checkpoint(tmp_path)
        keep = {"10_bytes": 10, "mid_header": 12 + hlen // 2, "mid_payload": (12 + hlen + len(blob)) // 2}[cut]
        path.write_bytes(blob[:keep])
        with pytest.raises(SchemaError, match=": truncated checkpoint") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["parameters", "config", "training_metadata"])
    def test_header_missing_key_rejected(self, tmp_path, key):
        path, blob, hlen = _saved_checkpoint(tmp_path)
        header = json.loads(blob[12 : 12 + hlen])
        del header[key]
        header_bytes = json.dumps(header).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(header_bytes)) + header_bytes + blob[12 + hlen :])
        with pytest.raises(SchemaError, match=f"lacks {key}") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
