"""The first conv block's tile path against the full-frame block it replaces.

``reference_block`` and ``reference_block_grads`` are block 0 as every
frame ran it before the tile path: im2col, conv, ReLU and pool over whole
frames, and the pool and conv backward over the full-size gradient. The
forward must give the same bytes at every density, from a blank window
to a fully lit one; ``conv0_w`` and ``conv0_b`` regroup their sums and
are held to the numeric contract instead, ``conv0_b`` against the exact
sum of the reference's terms. Block 1 hands block 0 only the rows of its
input gradient at block 0's sites and that gradient's per-channel sum;
the rows must be the full input gradient's bytes.
"""

from dataclasses import replace

import numpy as np
import pytest

from stimkit.nn import model, ops
from stimkit.nn.gradcheck import analytic_grads, finite_difference_grads, max_relative_error, micro_config
from stimkit.nn.model import ConvBlock, ModelConfig, backward_batch, forward_batch, init_params
from stimkit.nn.optim import bce_loss

from numeric_contract import assert_float32_close, exact_sum

DTYPES = [np.float32, np.float64]


def reference_block(x, w, b, need_cache=True):
    """Block 0 over whole frames: (pooled, cols, a_shape, idx); the scoring path lowers without columns."""
    cols = ops.im2col(x, w.shape[0]) if need_cache else None
    a = ops.conv2d_forward(x, w, b, cols=cols)
    np.maximum(a, 0, out=a)
    pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
    return pooled, cols, a.shape, idx


def reference_block_grads(x, w, b, dcur):
    """(dw, db) of the full-frame block; db is the exact sum of the terms its bias gradient adds."""
    pooled, cols, a_shape, idx = reference_block(x, w, b)
    dz = ops.maxpool2_backward(a_shape, idx, ops.relu_backward(pooled, dcur))
    _, dw, _ = ops.conv2d_backward(x, w, dz, need_dx=False, cols=cols)
    return dw, exact_sum(dz)


def block_params(rng, dtype, cin=1, cout=16):
    w = (rng.normal(size=(3, 3, cin, cout)) * 0.3).astype(dtype)
    # both signs: a positive bias lights every untouched cell, a negative one none
    b = (rng.normal(size=cout) * 0.1).astype(dtype)
    return w, b


def sparse_frames(rng, frames, dtype, size=64, max_points=40, binary=True):
    x = np.zeros((frames, size, size, 1), dtype=dtype)
    for f in range(frames):
        k = int(rng.integers(0, max_points))
        rows, cols = rng.integers(0, size, (2, k))
        x[f, rows, cols, 0] = 1.0 if binary else rng.uniform(0.1, 1.0, k)
    return x


# pixel probability and the share of pool blocks it touches, 1 - (1 - p)**16
# for a 4 x 4 reach; "100%" also lights every third row and column (any
# three rows of a block's reach hold a multiple of 3), "lit" every pixel
DENSITIES = {"25%": (0.0178, 0.25), "50%": (0.0424, 0.5), "100%": (0.3, 1.0), "lit": (1.0, 1.0)}


def dense_frames(rng, frames, dtype, density, size=64, binary=True):
    """Frames at one of DENSITIES, with the touched share checked."""
    p, share = DENSITIES[density]
    mask = rng.random((frames, size, size, 1)) < p
    if density == "100%":
        mask[:, ::3, ::3] = True
    x = mask.astype(dtype) if binary else (mask * rng.uniform(0.1, 1.0, mask.shape)).astype(dtype)
    got = model._touched_blocks(x, 3).mean()
    if share == 1.0:
        assert got == 1.0
    else:
        assert abs(got - share) < 0.05, got
    return x


def tile_forward(x, w, b, need_cache=True):
    return model._tile_block_forward(x, w, b, model._touched_blocks(x, w.shape[0]), need_cache)


def tile_backward(w, entry, dcur):
    """The tile block's (dw, db) from a full-size pooled gradient, as a one-block model hands it over."""
    return model._tile_block_backward(w, entry, *model._at_sites(dcur, entry[2]))


def assert_forward_matches(x, w, b):
    for need_cache in (True, False):
        got, _ = tile_forward(x, w, b, need_cache)
        want = reference_block(x, w, b, need_cache)[0]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"need_cache={need_cache}"


def assert_grads_match(x, w, b, rng):
    _, entry = tile_forward(x, w, b)
    dcur = rng.normal(size=(x.shape[0], x.shape[1] // 2, x.shape[2] // 2, w.shape[3])).astype(x.dtype)
    dw, db = tile_backward(w, entry, dcur)
    want_dw, want_db = reference_block_grads(x, w, b, dcur)
    assert_float32_close(dw, want_dw, "conv0_w")
    assert_float32_close(db, want_db, "conv0_b")


class TestTouchedBlocks:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_a_brute_force_reach(self, k):
        rng = np.random.default_rng(k)
        x = sparse_frames(rng, 4, np.float32, size=16, max_points=6)
        half = k // 2
        lit = np.pad(x[..., 0] != 0, ((0, 0), (half, half), (half, half)))
        want = np.zeros((4, 8, 8), dtype=bool)
        for n in range(4):
            for i in range(8):
                for j in range(8):
                    want[n, i, j] = lit[n, 2 * i : 2 * i + 2 + 2 * half, 2 * j : 2 * j + 2 + 2 * half].any()
        assert np.array_equal(model._touched_blocks(x, k), want)

    def test_any_nonzero_channel_lights_a_pixel(self):
        x = np.zeros((1, 8, 8, 3), dtype=np.float32)
        x[0, 4, 4, 2] = -0.5
        touched = model._touched_blocks(x, 3)
        assert touched.sum() == 4 and touched[0, 1:3, 1:3].all()


class TestTileForward:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "graded"])
    def test_bytes_match_the_full_frame_block_on_random_masks(self, dtype, frames, binary):
        rng = np.random.default_rng(frames + binary)
        for _ in range(12):
            w, b = block_params(rng, dtype)
            assert_forward_matches(sparse_frames(rng, frames, dtype, binary=binary), w, b)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    @pytest.mark.parametrize("density", list(DENSITIES))
    def test_bytes_match_the_full_frame_block_at_every_density(self, dtype, frames, density):
        rng = np.random.default_rng(frames)
        for binary in (True, False):
            w, b = block_params(rng, dtype)
            assert_forward_matches(dense_frames(rng, frames, dtype, density, binary=binary), w, b)

    def test_single_corner_pixel(self):
        # one touched pool block: the smallest product the block runs, 4 x 9 by 9 x 16
        rng = np.random.default_rng(8)
        for dtype in DTYPES:
            x = np.zeros((1, 64, 64, 1), dtype=dtype)
            x[0, 0, 0, 0] = 1.0
            w, b = block_params(rng, dtype)
            assert_forward_matches(x, w, b)
            assert_grads_match(x, w, b, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_blank_window_has_no_tiles(self, dtype):
        rng = np.random.default_rng(1)
        w, b = block_params(rng, dtype)
        x = np.zeros((7, 64, 64, 1), dtype=dtype)
        pooled, (inner, cols, sites, _, idx, _) = tile_forward(x, w, b)
        assert inner.shape == (0, 2, 2, 1) and cols.shape == (0, 9) and idx.shape == (0, 1, 1, 16)
        assert all(len(s) == 0 for s in sites)
        assert np.array_equal(pooled, np.broadcast_to(np.maximum(b, 0), pooled.shape))
        assert_forward_matches(x, w, b)
        assert_grads_match(x, w, b, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_lit_pixels_on_every_border_and_corner(self, dtype):
        rng = np.random.default_rng(2)
        x = np.zeros((2, 64, 64, 1), dtype=dtype)
        for r, c in ((0, 0), (0, 63), (63, 0), (63, 63)):
            x[0, r, c, 0] = 1.0
        edge = rng.integers(1, 63, 4)
        x[1, 0, edge[0]] = x[1, 63, edge[1]] = x[1, edge[2], 0] = x[1, edge[3], 63] = 1.0
        x[1, 0, 1] = x[1, 1, 0] = 0.5  # two pixels next to one corner
        w, b = block_params(rng, dtype)
        assert_forward_matches(x, w, b)
        assert_grads_match(x, w, b, rng)

    def test_other_kernel_sizes_and_channels(self):
        rng = np.random.default_rng(3)
        for k, cin in ((1, 1), (5, 1), (3, 2)):
            x = np.repeat(sparse_frames(rng, 3, np.float64, size=32, max_points=3), cin, axis=3)
            w = rng.normal(size=(k, k, cin, 4))
            b = rng.normal(size=4) * 0.1
            assert_forward_matches(x, w, b)
            assert_grads_match(x, w, b, rng)


def block_0_input(rng, frames, dtype, density):
    """Block 0 frames: blank, one lit corner pixel, sparse strokes, or one of DENSITIES."""
    if density in ("blank", "corner"):
        x = np.zeros((frames, 64, 64, 1), dtype=dtype)
        x[0, 0, 0, 0] = density == "corner"
        return x
    if density == "sparse":
        return sparse_frames(rng, frames, dtype)
    return dense_frames(rng, frames, dtype, density)


class TestSiteRows:
    """Block 1's input gradient at block 0's sites against the full one ``ops.conv2d_backward`` gives."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("density", ["blank", "corner", "sparse", *DENSITIES])
    def test_rows_are_the_full_input_gradient_at_the_sites(self, dtype, frames, k, density):
        rng = np.random.default_rng(k * frames)
        w0, b0 = block_params(rng, dtype)
        x1, (_, _, sites, *_) = tile_forward(block_0_input(rng, frames, dtype, density), w0, b0)
        sites_expected = {"blank": 0, "corner": 1, "lit": x1[..., 0].size}
        assert len(sites[0]) == sites_expected.get(density, len(sites[0]))
        w1 = (rng.normal(size=(k, k, 16, 32)) * 0.1).astype(dtype)
        b1 = (rng.normal(size=32) * 0.1).astype(dtype)
        _, entry = model._block_forward(x1, w1, b1, True)
        dcur = rng.normal(size=(frames, 16, 16, 32)).astype(dtype)
        dx, dw, db = model._block_backward(w1, entry, dcur)
        (rows, off_sum), dw_at, db_at = model._block_backward(w1, entry, dcur, sites)
        assert rows.dtype == dx.dtype and rows.shape == (len(sites[0]), 16)
        assert rows.tobytes() == dx[sites].tobytes()
        assert dw_at.tobytes() == dw.tobytes() and db_at.tobytes() == db.tobytes()
        assert off_sum.dtype == model._wide(dtype) and off_sum.shape == (16,)
        off = np.ones(dx.shape[:3], dtype=bool)
        off[sites] = False
        assert_float32_close(off_sum.astype(dtype), exact_sum(dx[off]), "sum off the sites")
        total = off_sum + rows.sum(axis=0, dtype=off_sum.dtype)
        assert_float32_close(total.astype(dtype), exact_sum(dx), "total")


class TestTileGradients:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    def test_weight_and_bias_gradients_within_the_contract(self, dtype, frames):
        rng = np.random.default_rng(frames)
        for _ in range(6):
            w, b = block_params(rng, dtype)
            assert_grads_match(sparse_frames(rng, frames, dtype), w, b, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("density", list(DENSITIES))
    def test_within_the_contract_at_every_density(self, dtype, density):
        rng = np.random.default_rng(9)
        for frames in (7, 56):
            w, b = block_params(rng, dtype)
            assert_grads_match(dense_frames(rng, frames, dtype, density), w, b, rng)


def _tiny_config():
    return ModelConfig(T=7, height=32, width=32, frame_embedding=16, lstm_hidden=8, seed=4)


def _spy_paths(monkeypatch):
    taken = []
    for name in ("_tile_block_forward", "_block_forward"):
        real = getattr(model, name)

        def spy(*args, real=real, name=name):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(model, name, spy)
    return taken


def _whole_frame_block_0(monkeypatch):
    """Run block 0 of forward_batch and backward_batch as ``reference_block`` does.

    Its sites are every pooled cell, so its backward receives the whole
    output gradient as rows, in (n, i, j) order.
    """
    def forward(x, w, b, touched, need_cache):
        pooled = reference_block(x, w, b, need_cache)[0]
        return pooled, (x, b, np.nonzero(np.ones(pooled.shape[:3], dtype=bool)))

    def backward(w, entry, drows, doff):
        x, b, _ = entry
        return reference_block_grads(x, w, b, drows.reshape(x.shape[0], x.shape[1] // 2, x.shape[2] // 2, -1))

    monkeypatch.setattr(model, "_tile_block_forward", forward)
    monkeypatch.setattr(model, "_tile_block_backward", backward)


def _window(rng, cfg, batch, dtype, lit):
    if lit == "sparse":
        frames = sparse_frames(rng, batch * cfg.T, dtype, size=cfg.height, max_points=10)
    else:
        frames = dense_frames(rng, batch * cfg.T, dtype, lit, size=cfg.height)
    return frames.reshape(batch, cfg.T, cfg.height, cfg.width, 1)


class TestForwardBatch:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("lit", ["sparse", "50%", "lit"])
    def test_only_the_first_block_gradients_move(self, monkeypatch, dtype, batch, lit):
        cfg = _tiny_config()
        params = init_params(cfg, dtype)
        params["conv0_b"][:] = np.linspace(-0.1, 0.1, len(params["conv0_b"]))
        x = _window(np.random.default_rng(batch), cfg, batch, dtype, lit)
        y = (np.arange(batch) % 2).astype(dtype)
        taken = _spy_paths(monkeypatch)
        p = forward_batch(params, cfg, x, need_cache=False)[0]
        got = analytic_grads(params, cfg, x, y)
        assert taken == ["_tile_block_forward", "_block_forward"] * 2
        _whole_frame_block_0(monkeypatch)
        assert p.tobytes() == forward_batch(params, cfg, x, need_cache=False)[0].tobytes()
        want = analytic_grads(params, cfg, x, y)
        for name in want:
            if name in ("conv0_w", "conv0_b"):
                assert_float32_close(got[name], want[name], name)
            else:
                assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("lit", [0.005, 0.05, 0.5, 1.0])
    def test_one_call_of_each_conv_and_pool_op_per_block(self, monkeypatch, lit):
        cfg = _tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(6)
        x = (rng.random((2, cfg.T, 32, 32, 1)) < lit).astype(np.float32)
        calls = {}
        for name in ("conv2d_forward", "maxpool2_forward", "conv2d_backward", "maxpool2_backward"):
            real = getattr(ops, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(ops, name, counted)
        taken = _spy_paths(monkeypatch)
        p, cache = forward_batch(params, cfg, x)
        forward_batch(params, cfg, x, need_cache=False)
        assert taken == ["_tile_block_forward", "_block_forward"] * 2
        _, dp = bce_loss(p, np.array([0.0, 1.0], dtype=np.float32))
        backward_batch(params, cfg, cache, dp)
        blocks = len(cfg.conv_blocks)
        assert calls == {"conv2d_forward": 2 * blocks, "maxpool2_forward": 2 * blocks,
                         "conv2d_backward": blocks, "maxpool2_backward": blocks}


class TestSparseGradCheck:
    """Finite differences on a sparse binary clip, whose untouched pool blocks the tiles skip.

    The dense ``rng.random`` clip of the other grad checks lights every
    block, so there no cell is filled with the bias. The conv biases are nonzero
    (one of each sign): at a zero bias every untouched cell sits on the
    ReLU's kink, where a central difference is undefined.
    """

    @staticmethod
    def _setup(two_blocks=False):
        cfg = micro_config(seed=3)
        clip = np.zeros((2, 8, 8))
        clip[0, 0, 0] = clip[0, 0, 1] = 1.0  # by the top-left corner
        clip[1, 7, 7] = 1.0  # the bottom-right corner
        if two_blocks:
            # block 1 reads its input gradient at block 0's sites, here all on
            # its own 4 x 4 frame's border, where some taps fall off the frame
            cfg = replace(cfg, conv_blocks=(ConvBlock(4), ConvBlock(4)))
            clip[0, 4, 7] = clip[1, 7, 2] = 1.0  # the right and bottom edges
        params = init_params(cfg, np.float64)
        params["conv0_b"][:] = [0.2, -0.1, 0.05, 0.3]
        x = clip[None, :, :, :, None]
        touched = model._touched_blocks(x[0], 3)
        assert 0 < np.count_nonzero(touched) < touched.size
        return cfg, params, x, np.array([1.0])

    @pytest.mark.parametrize("two_blocks", [False, True], ids=["one_block", "two_blocks"])
    def test_passes_below_1e4(self, two_blocks):
        cfg, params, x, y = self._setup(two_blocks)
        err, per_param = max_relative_error(analytic_grads(params, cfg, x, y),
                                            finite_difference_grads(params, cfg, x, y))
        assert err < 1e-4, per_param

    def test_fails_when_the_bias_gradient_skips_untouched_blocks(self, monkeypatch):
        cfg, params, x, y = self._setup()
        real = model._tile_block_backward

        def touched_only(w, entry, drows, doff):
            return real(w, entry, drows, np.zeros_like(doff))

        monkeypatch.setattr(model, "_tile_block_backward", touched_only)
        _, per_param = max_relative_error(analytic_grads(params, cfg, x, y),
                                            finite_difference_grads(params, cfg, x, y))
        assert per_param["conv0_b"] > 0.1
        assert per_param["conv0_w"] < 1e-4
