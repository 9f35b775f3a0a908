import json

import pytest

from stimkit.config import load_run_config
from stimkit.errors import ConfigError


def _write(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


def _minimal(**over):
    doc = {"manifest": "m.json", "output_dir": "out", "seed": 1}
    doc.update(over)
    return doc


class TestRunConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, _minimal()))
        assert cfg.k == 3
        assert cfg.window.T == 7 and cfg.window.stride == 5 and cfg.window.hop == 15
        assert cfg.raster.width == 64 and cfg.raster.center_mode == "sequence_mean"
        assert cfg.model.T == 7 and cfg.model.height == 64
        assert cfg.train.learning_rate == 1e-4 and cfg.train.epochs == 50
        assert cfg.augment is not None
        assert cfg.augment.rotation_range == (-45.0, 45.0)
        assert cfg.augment.zoom_range == (1.0, 2.0)

    def test_seed_is_mandatory(self, tmp_path):
        doc = _minimal()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            load_run_config(_write(tmp_path, doc))

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=">= 0") as err:
            load_run_config(_write(tmp_path, _minimal(seed=-1)))
        assert err.value.field_path == "seed"

    @pytest.mark.parametrize("field", ["manifest", "output_dir"])
    def test_nul_in_path_rejected(self, tmp_path, field):
        # it once escaped as a raw ValueError when the path was opened
        with pytest.raises(ConfigError, match="NUL") as err:
            load_run_config(_write(tmp_path, _minimal(**{field: "a\0b"})))
        assert err.value.field_path == field

    def test_bad_zoom_range_names_field_path(self, tmp_path):
        doc = _minimal(augment={"zoom_range": [0.5, 2.0]})
        with pytest.raises(ConfigError) as err:
            load_run_config(_write(tmp_path, doc))
        assert err.value.field_path == "augment.zoom_range"

    def test_asymmetric_rotation_rejected(self, tmp_path):
        doc = _minimal(augment={"rotation_range": [-30.0, 45.0]})
        with pytest.raises(ConfigError) as err:
            load_run_config(_write(tmp_path, doc))
        assert err.value.field_path == "augment.rotation_range"

    def test_null_augment_disables_augmentation(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, _minimal(augment=None)))
        assert cfg.augment is None

    @pytest.mark.parametrize(
        "field, value, reason",
        [("T", 1, ">= 2"), ("stride", 0, ">= 1"), ("hop", 0, ">= 1"), ("confidence_threshold", -0.1, ">= 0"),
         ("T", 2.5, "integer required")],
    )
    def test_window_range_names_field_path(self, tmp_path, field, value, reason):
        with pytest.raises(ConfigError, match=reason) as err:
            load_run_config(_write(tmp_path, _minimal(window={field: value})))
        assert err.value.field_path == f"window.{field}"

    @pytest.mark.parametrize(
        "section, value, path, reason",
        [
            ("raster", {"width": 0}, "raster.width", ">= 1"),
            ("raster", {"point_radius": 0.5}, "raster.point_radius", ">= 1"),
            ("raster", {"center_mode": "median"}, "raster.center_mode", "none\\|sequence_mean"),
            ("model", {"conv_blocks": [{"filters": 16}, {"kernel": 4}]}, "model.conv_blocks[1].kernel", "odd"),
            ("model", {"conv_blocks": [{"pool": 3}]}, "model.conv_blocks[0].pool", "pool=2"),
            ("model", {"lstm_hidden": 0}, "model.lstm_hidden", ">= 1"),
            ("train", {"learning_rate": 0}, "train.learning_rate", "> 0"),
            ("train", {"beta1": 1.0}, "train.beta1", "in \\(0, 1\\)"),
            ("augment", {"mode": "per_pixel"}, "augment.mode", "per_clip\\|per_frame"),
            ("raster", {"center_mode": 5}, "raster.center_mode", "string required"),
            ("augment", {"zoom_range": 2}, "augment.zoom_range", "pair of numbers required"),
            ("raster", {"width": 10}, "model.conv_blocks", "64x10 not divisible by pooling factor 4"),
            ("model", {"lstm_hidden": 2000}, "model.parameters", "more than the 10000000 allowed"),
        ],
    )
    def test_spec_rule_names_field_path(self, tmp_path, section, value, path, reason):
        # each spec owns its rules; the run config only adds the section path
        with pytest.raises(ConfigError, match=reason) as err:
            load_run_config(_write(tmp_path, _minimal(**{section: value})))
        assert err.value.field_path == path

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown field"):
            load_run_config(_write(tmp_path, _minimal(learning_rate=0.1)))

    def test_unknown_nested_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_run_config(_write(tmp_path, _minimal(train={"lr": 0.1})))
        assert err.value.field_path == "train.lr"

    def test_model_geometry_follows_window_and_raster(self, tmp_path):
        doc = _minimal(window={"T": 5}, raster={"width": 32, "height": 32})
        cfg = load_run_config(_write(tmp_path, doc))
        assert cfg.model.T == 5
        assert (cfg.model.height, cfg.model.width) == (32, 32)

    def test_malformed_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_run_config(p)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "deep"
        sub.mkdir()
        cfg = load_run_config(_write(sub, _minimal()))
        assert cfg.manifest_path == sub / "m.json"
        assert cfg.output_dir == sub / "out"
