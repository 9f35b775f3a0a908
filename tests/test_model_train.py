import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stimkit.augment import AugmentSpec, make_training_augmenter
from stimkit.data import build_dataset
from stimkit.errors import ConfigError, NumericError, SizeError
from stimkit.nn import ops
from stimkit.nn import train as train_module
from stimkit.nn.gradcheck import micro_config
from stimkit.nn.lstm import lstm_backward
from stimkit.nn.model import (
    ConvBlock,
    ModelConfig,
    backward_batch,
    forward_batch,
    init_params,
    parameter_count,
)
from stimkit.nn.optim import TrainConfig, adam_init, adam_step, bce_loss
from stimkit.nn.train import classify, predict, train
from stimkit.pose import load_manifest
from stimkit.raster import RasterClip, RasterSpec, rasterize
from stimkit.spec import build_spec

from numeric_contract import assert_float32_close, exact_sum, wide_matmul
from test_nn_ops import _reference_maxpool2_backward
from test_tile_block import reference_block


def forward(params, config, clip_frames):
    """Probability for one (T, H, W) window, through forward_batch's scoring path."""
    x = np.asarray(clip_frames, dtype=params["out_w"].dtype)[None, ..., None]
    return float(forward_batch(params, config, x, need_cache=False)[0][0])


def _micro_clip(rng, T=2, size=8):
    return rng.random((T, size, size)).astype(np.float32)


def _training_set(n=20, seed=0):
    """Separable micro set: positive clips flip a bright block between frames."""
    rng = np.random.default_rng(seed)
    clips = []
    for i in range(n):
        label = i % 2
        frames = np.zeros((2, 8, 8), dtype=np.float32)
        if label:
            frames[0, :4, :4] = 1.0
            frames[1, 4:, 4:] = 1.0
        else:
            frames[0, 2:6, 2:6] = 1.0
            frames[1, 2:6, 2:6] = 1.0
        noise = (rng.random((2, 8, 8)) < 0.05).astype(np.float32)
        clips.append(
            RasterClip(
                frames=np.clip(frames + noise, 0, 1),
                label=label,
            )
        )
    return clips


class TestModelConfig:
    def test_defaults_are_the_documented_architecture(self):
        cfg = ModelConfig()
        assert cfg.T == 7 and cfg.height == 64 and cfg.width == 64
        assert [b.filters for b in cfg.conv_blocks] == [16, 32]
        assert cfg.frame_embedding == 64 and cfg.lstm_hidden == 32

    def test_indivisible_spatial_dims_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(height=30, width=30)

    def test_parameter_count_independent_of_T(self):
        a = parameter_count(init_params(ModelConfig(T=2)))
        b = parameter_count(init_params(ModelConfig(T=7)))
        assert a == b

    def test_roundtrip_through_dict(self):
        cfg = ModelConfig(T=3, conv_blocks=(ConvBlock(4),), frame_embedding=8, lstm_hidden=4, seed=9)
        assert build_spec(ModelConfig, cfg.to_dict(), "model") == cfg


class TestForward:
    def test_zero_output_weights_give_half(self):
        cfg = micro_config()
        params = init_params(cfg, np.float64)
        params["out_w"][:] = 0.0
        params["out_b"][:] = 0.0
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert forward(params, cfg, _micro_clip(rng)) == 0.5

    def test_constant_clip_invariant_to_time_reversal(self):
        cfg = micro_config(seed=5)
        params = init_params(cfg, np.float64)
        frame = np.random.default_rng(1).random((8, 8))
        clip = np.stack([frame, frame])
        assert forward(params, cfg, clip) == forward(params, cfg, clip[::-1])

    @pytest.mark.parametrize("cfg", [ModelConfig(), micro_config(seed=3)], ids=["default", "micro"])
    def test_inference_path_matches_training_path_bit_for_bit(self, cfg):
        rng = np.random.default_rng(4)
        params = init_params(cfg)
        shape = (cfg.T, cfg.height, cfg.width, 1)
        # a sparse binary window, as rasterize draws, whose pools are full of zero ties
        for window in ((rng.random(shape) < 0.1).astype(np.float32), rng.random(shape).astype(np.float32)):
            p_train, cache = forward_batch(params, cfg, window[None])
            p_infer, no_cache = forward_batch(params, cfg, window[None], need_cache=False)
            assert cache is not None and no_cache is None
            assert p_infer.tobytes() == p_train.tobytes()
            assert np.float64(forward(params, cfg, window[..., 0])).tobytes() == np.float64(p_train[0]).tobytes()

    def test_wrong_shape_rejected(self):
        cfg = micro_config()
        params = init_params(cfg)
        with pytest.raises(SizeError):
            forward(params, cfg, np.zeros((2, 16, 16)))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_output_in_open_unit_interval_no_nan(self, seed):
        cfg = micro_config(seed=seed)
        params = init_params(cfg, np.float64)
        clip = np.random.default_rng(seed).random((2, 8, 8))
        p = forward(params, cfg, clip)
        assert np.isfinite(p)
        assert 0.0 < p < 1.0


def _reference_backward_batch(params, config, x, cache, dp):
    # backward_batch from the pieces it replaced: every conv block rerun on
    # whole frames from the window (the cache holds tiles), the ReLU
    # gradient on the full-size pre-activation (recomputed here), the
    # put_along_axis pool backward, and a conv backward that lowers its input again.
    (x_shape, frames_shape, _, pooled_shape, flat, emb_z, h_last, lstm_caches, out_z, p) = cache
    blocks = []
    cur = x.reshape(frames_shape)
    for n in range(len(config.conv_blocks)):
        pooled, _, a_shape, idx = reference_block(cur, params[f"conv{n}_w"], params[f"conv{n}_b"])
        blocks.append((cur, a_shape, idx))
        cur = pooled
    grads = {}
    dlogit = (dp * p * (1.0 - p))[:, None]
    dh_last, grads["out_w"], grads["out_b"] = ops.dense_backward(h_last, params["out_w"], out_z, dlogit, "none")
    dseq, grads["lstm_wx"], grads["lstm_wh"], grads["lstm_b"] = lstm_backward(
        dh_last, lstm_caches, params["lstm_wx"], params["lstm_wh"]
    )
    demb = dseq.reshape(x_shape[0] * config.T, config.frame_embedding)
    dflat, grads["embed_w"], grads["embed_b"] = ops.dense_backward(flat, params["embed_w"], emb_z, demb, "relu")
    dcur = dflat.reshape(pooled_shape)
    for n in range(len(config.conv_blocks) - 1, -1, -1):
        cur_in, a_shape, idx = blocks[n]
        w = params[f"conv{n}_w"]
        z = ops.conv2d_forward(cur_in, w, params[f"conv{n}_b"])
        dz = ops.relu_backward(z, _reference_maxpool2_backward(a_shape, idx, dcur))
        dcur, _, _ = ops.conv2d_backward(cur_in, w, dz, need_dx=(n > 0))
        # a conv block's weight and bias gradients add terms that largely
        # cancel: their references are the exact sums of those terms
        grads[f"conv{n}_w"] = wide_matmul(ops.im2col(cur_in, w.shape[0]).T, dz.reshape(-1, w.shape[3])).reshape(w.shape)
        grads[f"conv{n}_b"] = exact_sum(dz)
    return grads


def _assert_grads_match_reference(params, got, want):
    """Every gradient byte-equal, but the conv blocks', which ran on tiles, within the numeric contract."""
    assert got.keys() == want.keys() == params.keys()
    for name in params:
        assert got[name].dtype == want[name].dtype == params[name].dtype, name
        assert got[name].shape == params[name].shape, name
        if name.startswith("conv"):
            assert_float32_close(got[name], want[name], name)
        else:
            assert got[name].tobytes() == want[name].tobytes(), name


def _assert_backward_matches_reference(params, config, x, y):
    p, cache = forward_batch(params, config, x)
    _, dp = bce_loss(p, y)
    dp = dp / len(y)
    want = _reference_backward_batch(params, config, x, cache, dp)
    got = backward_batch(params, config, cache, dp)  # uses the cache up
    _assert_grads_match_reference(params, got, want)
    # the check is not vacuous: both conv layers get a gradient
    assert all(np.any(got[f"conv{n}_w"] != 0) for n in range(len(config.conv_blocks)))


class TestBackwardBatch:
    def test_matches_reference_on_augmented_rasters(self, mini_dataset):
        # binary rasters, so ReLU zeros and pooling ties are common
        windows = build_dataset(load_manifest(mini_dataset)).windows
        batch = [windows[i] for i in np.linspace(0, len(windows) - 1, 8).astype(int)]
        augment = make_training_augmenter(AugmentSpec())
        rng = np.random.default_rng(0)
        clips = [augment(rasterize(w, RasterSpec()), rng) for w in batch]
        x = np.stack([c.frames for c in clips]).astype(np.float32)[:, :, :, :, None]
        y = np.array([c.label for c in clips], dtype=np.float32)
        assert 0 < y.sum() < len(y)
        cfg = ModelConfig()
        _assert_backward_matches_reference(init_params(cfg), cfg, x, y)

    def test_matches_reference_in_float64(self):
        cfg = micro_config(seed=2)
        rng = np.random.default_rng(5)
        x = np.where(rng.random((6, cfg.T, cfg.height, cfg.width, 1)) < 0.3, rng.random(1), 0.0)
        y = np.array([0, 1, 1, 0, 1, 0], dtype=np.float64)
        _assert_backward_matches_reference(init_params(cfg, np.float64), cfg, x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lit", [0.3, 0.004], ids=["dense", "sparse"])
    def test_pops_each_block_once_its_gradient_is_taken(self, monkeypatch, dtype, lit):
        cfg = ModelConfig(T=2, height=16, width=16, channels=1, conv_blocks=(ConvBlock(4), ConvBlock(6)),
                          frame_embedding=8, lstm_hidden=4, seed=3)
        rng = np.random.default_rng(7)
        x = np.where(rng.random((6, cfg.T, cfg.height, cfg.width, 1)) < lit, 1.0, 0.0).astype(dtype)
        y = np.array([0, 1, 1, 0, 1, 0], dtype=dtype)
        params = init_params(cfg, dtype)
        p, cache = forward_batch(params, cfg, x)
        _, dp = bce_loss(p, y)
        want = _reference_backward_batch(params, cfg, x, cache, dp)

        col_refs = [weakref.ref(entry[2]) for entry in cache[2]]
        real = ops.conv2d_backward
        dead_at_call = []

        def conv2d_backward(*args, **kwargs):
            dead_at_call.append([ref() is None for ref in col_refs])
            return real(*args, **kwargs)

        monkeypatch.setattr(ops, "conv2d_backward", conv2d_backward)
        got = backward_batch(params, cfg, cache, dp)
        assert cache[2] == []
        # block 1's columns are gone by the time block 0's gradient is taken
        assert dead_at_call == [[False, False], [False, True]]
        _assert_grads_match_reference(params, got, want)


class TestBceLoss:
    def test_perfect_prediction_loss_near_zero(self):
        loss, _ = bce_loss(1.0 - 1e-9, 1.0)
        assert loss < 1e-6

    def test_half_prediction_is_ln2(self):
        loss, _ = bce_loss(0.5, 1.0)
        assert np.isclose(float(loss), np.log(2.0), atol=1e-12)

    def test_symmetry(self):
        for p, y in [(0.3, 1.0), (0.8, 0.0), (0.5, 1.0)]:
            a, _ = bce_loss(p, y)
            b, _ = bce_loss(1.0 - p, 1.0 - y)
            assert np.isclose(float(a), float(b), atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        for p, y in [(0.3, 1.0), (0.7, 0.0)]:
            _, dp = bce_loss(p, y)
            eps = 1e-7
            up, _ = bce_loss(p + eps, y)
            down, _ = bce_loss(p - eps, y)
            assert np.isclose(float(dp), (float(up) - float(down)) / (2 * eps), rtol=1e-5)

    def test_extreme_probabilities_finite(self):
        loss, dp = bce_loss(0.0, 1.0)
        assert np.isfinite(float(loss)) and np.isfinite(float(dp))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = adam_init(params)
        cfg = TrainConfig()
        for t in range(1, 6):
            adam_step(params, {"w": np.zeros(3)}, state, t, cfg)
        assert np.array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr_times_sign(self):
        lr = 1e-4
        params = {"w": np.zeros(4)}
        state = adam_init(params)
        g = np.array([0.5, -0.2, 3.0, -7.0])
        adam_step(params, {"w": g.copy()}, state, 1, TrainConfig(learning_rate=lr))
        # bias correction cancels the scale: first update = -lr * g/(|g| + ~eps)
        assert np.allclose(params["w"], -lr * np.sign(g), rtol=1e-4)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(3)
            params = {"w": rng.standard_normal(8).astype(np.float32)}
            state = adam_init(params)
            cfg = TrainConfig(learning_rate=1e-3)
            for t in range(1, 50):
                g = {"w": rng.standard_normal(8).astype(np.float32)}
                adam_step(params, g, state, t, cfg)
            return params["w"].tobytes()

        assert run() == run()

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(SizeError):
            adam_step(params, {"w": np.zeros(4)}, adam_init(params), 1, TrainConfig())


class TestTrain:
    def test_loss_decreases_on_separable_set(self):
        cfg = micro_config(seed=2)
        tcfg = TrainConfig(epochs=30, batch_size=4, learning_rate=3e-3, seed=1)
        _, history = train(cfg, _training_set(), tcfg)
        losses = history["epoch_mean_loss"]
        assert len(losses) == 30
        assert losses[-1] < losses[0]

    def test_zero_epochs_returns_initialization(self):
        cfg = micro_config(seed=4)
        ckpt, history = train(cfg, _training_set(), TrainConfig(epochs=0, seed=0))
        assert history == {"epoch_mean_loss": [], "epoch_max_grad_norm": []}
        init = init_params(cfg, np.float32)
        for name, value in init.items():
            assert np.array_equal(ckpt.parameters[name], value)

    def test_same_seed_identical_history(self):
        cfg = micro_config(seed=2)
        tcfg = TrainConfig(epochs=5, batch_size=4, seed=12)
        _, h1 = train(cfg, _training_set(), tcfg)
        _, h2 = train(cfg, _training_set(), tcfg)
        assert h1 == h2

    def test_single_class_rejected(self):
        clips = [c for c in _training_set() if c.label == 1]
        with pytest.raises(ConfigError, match="both classes"):
            train(micro_config(), clips, TrainConfig(epochs=1))

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            train(micro_config(), [], TrainConfig(epochs=1))

    def test_infinite_gradient_on_the_last_step_raises(self, monkeypatch):
        # 20 clips in batches of 8: steps 0-2 of each epoch. An infinite gradient on the very
        # last step once returned NaN parameters, because only the epoch's mean loss was checked.
        calls = []

        def backward_batch(*args):
            grads = real(*args)
            calls.append(1)
            if len(calls) == 6:
                grads["out_b"][:] = np.inf
            return grads

        real = train_module.backward_batch
        monkeypatch.setattr(train_module, "backward_batch", backward_batch)
        # Adam's step on the infinite gradient divides inf by inf before the norm check raises
        with (pytest.raises(NumericError, match="epoch 1 step 2: .*gradient norm inf"),
              pytest.warns(RuntimeWarning, match="invalid value encountered in divide")):
            train(micro_config(), _training_set(), TrainConfig(epochs=2, batch_size=8, seed=1))

    def test_previous_step_cache_is_freed_before_the_next_forward(self, monkeypatch):
        # two steps' columns and pooled outputs alive at once doubled the training peak
        real = train_module.forward_batch
        cached = []

        def forward_batch(params, config, x, need_cache=True):
            alive = [ref for ref in cached if ref() is not None]
            assert not alive, f"{len(alive)} cached arrays of the previous step are still alive"
            p, cache = real(params, config, x, need_cache)
            conv_caches = cache[2]
            cached[:] = [weakref.ref(a) for _, _, cols, _, pooled, idx in conv_caches for a in (cols, pooled, idx)]
            return p, cache

        monkeypatch.setattr(train_module, "forward_batch", forward_batch)
        train(micro_config(), _training_set(), TrainConfig(epochs=2, batch_size=8, seed=1))
        assert len(cached) == 3 * len(micro_config().conv_blocks)


class TestPredictClassify:
    def test_tie_counts_negative(self):
        assert classify(0.5) == 0
        assert classify(0.5000001) == 1
        assert classify(0.4999999) == 0

    def test_zero_weight_checkpoint_predicts_half(self):
        cfg = micro_config()
        ckpt, _ = train(cfg, _training_set(), TrainConfig(epochs=0, seed=0))
        for name in ("out_w", "out_b"):
            ckpt.parameters[name][:] = 0.0
        clip = _micro_clip(np.random.default_rng(0))
        p = predict(ckpt, clip)
        assert p == 0.5
        assert classify(p) == 0
