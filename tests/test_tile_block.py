"""The conv block's tile path against the whole-frame block it replaces.

``reference_block`` and ``reference_block_grads`` are a block as every
frame ran it before the tile path: im2col, conv, ReLU and pool over whole
frames, and the pool and conv backward over the full-size gradient. Each
block of a chain must give the same bytes at every density, from a blank
window to a fully lit one; a block's weight and bias gradients regroup
their sums and are held to the numeric contract instead, the bias
against the exact sum of the reference's terms. A block reads its output
gradient only at its sites and, per cell, as the sum over the frames
where the cell is off them; the rows of its input gradient at the sites
of the block below must be the full input gradient's bytes. Blocks pass
their activations sparse, as (ground frame, site rows, site index);
``dense`` makes one whole frames only to compare it with the reference.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stimkit.nn import model, ops
from stimkit.nn.gradcheck import analytic_grads, finite_difference_grads, max_relative_error, micro_config
from stimkit.nn.model import ConvBlock, ModelConfig, backward_batch, forward_batch, init_params
from stimkit.nn.optim import bce_loss

from numeric_contract import assert_float32_close, exact_sum, wide_matmul

DTYPES = [np.float32, np.float64]


def reference_block(x, w, b, need_cache=True):
    """A block over whole frames: (pooled, cols, a_shape, idx); the scoring path lowers without columns."""
    cols = ops.im2col(x, w.shape[0]) if need_cache else None
    a = ops.conv2d_forward(x, w, b, cols=cols)
    np.maximum(a, 0, out=a)
    pooled, idx = ops.maxpool2_forward(a, need_argmax=need_cache)
    return pooled, cols, a.shape, idx


def reference_block_grads(x, w, b, dcur):
    """(dx, dw, db) of the whole-frame block; dw and db are the exact sums of the terms it adds."""
    pooled, cols, a_shape, idx = reference_block(x, w, b)
    dz = ops.maxpool2_backward(a_shape, idx, ops.relu_backward(pooled, dcur))
    dx, _, _ = ops.conv2d_backward(x, w, dz, cols=cols)
    return dx, wide_matmul(cols.T, dz.reshape(-1, w.shape[3])).reshape(w.shape), exact_sum(dz)


def block_params(rng, dtype, cin=1, cout=16, k=3):
    w = (rng.normal(size=(k, k, cin, cout)) * 0.3).astype(dtype)
    # both signs: a positive bias lights every unreached cell of block 0, a negative one none
    b = (rng.normal(size=cout) * 0.1).astype(dtype)
    return w, b


def chain(rng, dtype, w, b):
    """Block 0's (w, b) and two more blocks above it, of 32 filters each."""
    return [(w, b), block_params(rng, dtype, w.shape[3], 32), block_params(rng, dtype, 32, 32)]


def lit_of(x):
    return (x != 0).any(axis=3)


def reached_of(lit, k):
    """The pool blocks reached from the True cells of an (N, H, W) mask."""
    return model._reached(model._sites(lit), lit.shape, k)


def block_0_of(x):
    """Frames as block 0 takes them: a blank ground, and the rows at the nonzero pixels."""
    lit = model._sites(lit_of(x))
    return np.zeros_like(x[:1]), x[lit], lit


def dense(out, frames):
    """A block's (ground, rows, sites) output as whole frames."""
    ground, rows, sites = out
    pooled = np.repeat(ground, frames, axis=0)
    pooled[sites] = rows
    return pooled


def sparse_frames(rng, frames, dtype, size=64, max_points=40, binary=True):
    x = np.zeros((frames, size, size, 1), dtype=dtype)
    for f in range(frames):
        k = int(rng.integers(0, max_points))
        rows, cols = rng.integers(0, size, (2, k))
        x[f, rows, cols, 0] = 1.0 if binary else rng.uniform(0.1, 1.0, k)
    return x


# pixel probability and the share of pool blocks it reaches, 1 - (1 - p)**16
# for a 4 x 4 reach; "100%" also lights every third row and column (any
# three rows of a block's reach hold a multiple of 3), "lit" every pixel
DENSITIES = {"25%": (0.0178, 0.25), "50%": (0.0424, 0.5), "100%": (0.3, 1.0), "lit": (1.0, 1.0)}


def dense_frames(rng, frames, dtype, density, size=64, binary=True):
    """Frames at one of DENSITIES, with the reached share checked."""
    p, share = DENSITIES[density]
    mask = rng.random((frames, size, size, 1)) < p
    if density == "100%":
        mask[:, ::3, ::3] = True
    x = mask.astype(dtype) if binary else (mask * rng.uniform(0.1, 1.0, mask.shape)).astype(dtype)
    got = reached_of(lit_of(x), 3).mean()
    if share == 1.0:
        assert got == 1.0
    else:
        assert abs(got - share) < 0.05, got
    return x


def tile_forward(x, w, b, need_cache=True):
    """Block 0 on tiles: its ground frame is zeros and its sites the nonzero pixels."""
    return model._block_forward(block_0_of(x), len(x), w, b, need_cache)


def at_sites(dcur, sites):
    """A full-size gradient of a block's pooled output as the block reads it.

    Its rows at the sites, and per cell its sum over the other frames.
    """
    dcur = dcur.copy()
    rows = dcur[sites]
    dcur[sites] = 0
    return rows, dcur.sum(axis=0, dtype=model._wide(dcur.dtype))


def sites_of(entry):
    return entry[3]


def assert_forward_matches(x, blocks, same_bytes=True):
    """Every block of the chain gives the whole-frame block's bytes (or meets the contract), in training and scoring."""
    for need_cache in (True, False):
        cur, want = block_0_of(x), x
        for n, (w, b) in enumerate(blocks):
            cur, _ = model._block_forward(cur, len(x), w, b, need_cache)
            got = dense(cur, len(x))
            want = reference_block(want, w, b, need_cache)[0]
            name = f"block {n}, need_cache={need_cache}"
            if same_bytes:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
            else:
                assert_float32_close(got, want, name)


def assert_grads_match(x, w, b, rng):
    _, entry = tile_forward(x, w, b)
    dcur = rng.normal(size=(x.shape[0], x.shape[1] // 2, x.shape[2] // 2, w.shape[3])).astype(x.dtype)
    dw, db, dbelow = model._block_backward(w, entry, at_sites(dcur, sites_of(entry)), None)
    assert dbelow is None
    _, want_dw, want_db = reference_block_grads(x, w, b, dcur)
    assert_float32_close(dw, want_dw, "conv0_w")
    assert_float32_close(db, want_db, "conv0_b")


class TestReached:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_a_brute_force_reach(self, k):
        rng = np.random.default_rng(k)
        lit = sparse_frames(rng, 4, np.float32, size=16, max_points=6)[..., 0] != 0
        half = k // 2
        padded = np.pad(lit, ((0, 0), (half, half), (half, half)))
        want = np.zeros((4, 8, 8), dtype=bool)
        for n in range(4):
            for i in range(8):
                for j in range(8):
                    want[n, i, j] = padded[n, 2 * i : 2 * i + 2 + 2 * half, 2 * j : 2 * j + 2 + 2 * half].any()
        assert np.array_equal(reached_of(lit, k), want)

    def test_any_nonzero_channel_lights_a_pixel(self):
        cfg = ModelConfig(T=2, height=8, width=8, channels=3, conv_blocks=(ConvBlock(4),),
                          frame_embedding=4, lstm_hidden=2)
        params = init_params(cfg, np.float64)
        x = np.zeros((1, 2, 8, 8, 3))
        x[0, 0, 4, 4, 2] = -0.5
        p, cache = forward_batch(params, cfg, x)
        sites = sites_of(cache[2][0])
        assert len(sites[0]) == 4 and set(zip(*sites)) == {(0, i, j) for i in (1, 2) for j in (1, 2)}
        assert p.tobytes() == _whole_frame_p(params, cfg, x).tobytes()


class TestTileForward:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "graded"])
    def test_bytes_match_the_whole_frame_chain_on_random_masks(self, dtype, frames, binary):
        rng = np.random.default_rng(frames + binary)
        for _ in range(12):
            w, b = block_params(rng, dtype)
            assert_forward_matches(sparse_frames(rng, frames, dtype, binary=binary), chain(rng, dtype, w, b))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    @pytest.mark.parametrize("density", list(DENSITIES))
    def test_bytes_match_the_whole_frame_chain_at_every_density(self, dtype, frames, density):
        rng = np.random.default_rng(frames)
        for binary in (True, False):
            w, b = block_params(rng, dtype)
            x = dense_frames(rng, frames, dtype, density, binary=binary)
            assert_forward_matches(x, chain(rng, dtype, w, b))

    def test_single_corner_pixel(self):
        # one reached pool block: the fewest sites, beside the ground's tiles
        rng = np.random.default_rng(8)
        for dtype in DTYPES:
            x = np.zeros((1, 64, 64, 1), dtype=dtype)
            x[0, 0, 0, 0] = 1.0
            w, b = block_params(rng, dtype)
            assert_forward_matches(x, chain(rng, dtype, w, b))
            assert_grads_match(x, w, b, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_blank_window_runs_only_the_ground(self, dtype):
        rng = np.random.default_rng(1)
        w, b = block_params(rng, dtype)
        x = np.zeros((7, 64, 64, 1), dtype=dtype)
        out, (shape, inner, cols, sites, _, idx) = tile_forward(x, w, b)
        ground, rows, pooled = out[0], out[1], dense(out, len(x))
        assert shape == x.shape[:3] and len(rows) == 0 and all(len(s) == 0 for s in sites)
        # the ground frame's 32 x 32 pool blocks are the only tiles
        assert inner.shape == (1024, 2, 2, 1) and cols.shape == (4096, 9) and idx.shape == (1024, 1, 1, 16)
        assert np.array_equal(ground, np.broadcast_to(np.maximum(b, 0), ground.shape))
        assert np.array_equal(pooled, np.broadcast_to(np.maximum(b, 0), pooled.shape))
        assert_forward_matches(x, chain(rng, dtype, w, b))
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
        assert_forward_matches(x, chain(rng, dtype, w, b))
        assert_grads_match(x, w, b, rng)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_narrow_block_is_within_the_contract(self, dtype):
        # one 16 x 16 frame's product into 8 filters, (256, 288) @ (288, 8), can
        # take another BLAS kernel than the whole batch's, so its bytes may differ
        rng = np.random.default_rng(5)
        w, b = block_params(rng, dtype)
        blocks = [(w, b), block_params(rng, dtype, 16, 32), block_params(rng, dtype, 32, 8)]
        for x in (np.zeros((7, 64, 64, 1), dtype=dtype), sparse_frames(rng, 7, dtype)):
            assert_forward_matches(x, blocks, same_bytes=False)

    def test_other_kernel_sizes_and_channels(self):
        rng = np.random.default_rng(3)
        for k, cin in ((1, 1), (5, 1), (3, 2)):
            x = np.repeat(sparse_frames(rng, 3, np.float64, size=32, max_points=3), cin, axis=3)
            w = rng.normal(size=(k, k, cin, 4))
            b = rng.normal(size=4) * 0.1
            above = (k + 2) % 6  # kernels 3, 1 and 5 for the third block
            blocks = [(w, b), block_params(rng, np.float64, 4, 6, k=k), block_params(rng, np.float64, 6, 3, k=above)]
            assert_forward_matches(x, blocks)
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


def exact_sum_per_cell(terms):
    """``math.fsum`` over the first axis at every other index, cast to the terms' dtype."""
    return np.apply_along_axis(math.fsum, 0, terms.astype(np.float64)).astype(terms.dtype)


class TestSiteRows:
    """Block 1's input gradient at block 0's sites against the full one ``ops.conv2d_backward`` gives."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("frames", [7, 56], ids=["B1", "B8"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("density", ["blank", "corner", "sparse", *DENSITIES])
    def test_rows_are_the_full_input_gradient_at_the_sites(self, dtype, frames, k, density):
        rng = np.random.default_rng(k * frames)
        w0, b0 = block_params(rng, dtype)
        x0 = block_0_input(rng, frames, dtype, density)
        sites, _ = self.check(rng, dtype, k, x0, w0, b0)
        sites_expected = {"blank": 0, "corner": 1, "lit": frames * 32 * 32}
        assert len(sites[0]) == sites_expected.get(density, len(sites[0]))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_position_that_is_a_site_in_every_frame_has_no_sum_off_them(self, dtype):
        rng = np.random.default_rng(4)
        w0, b0 = block_params(rng, dtype)
        x0 = sparse_frames(rng, 56, dtype)
        x0[:, 20, 20] = 1.0  # block 0 reaches the same pool blocks around it in every frame
        sites, off_sum = self.check(rng, dtype, 3, x0, w0, b0)
        count = np.zeros((32, 32), dtype=int)
        np.add.at(count, sites[1:], 1)
        every = count == 56
        assert every.any() and (count[~every] > 0).any()
        assert not off_sum[every].any()

    @staticmethod
    def check(rng, dtype, k, x0, w0, b0):
        """Block 1's backward over block 0's output against the whole-frame block's; returns block 0's sites and the sums off them."""
        frames = len(x0)
        out0, entry0 = tile_forward(x0, w0, b0)
        sites = sites_of(entry0)
        x1 = dense(out0, frames)
        w1 = (rng.normal(size=(k, k, 16, 32)) * 0.1).astype(dtype)
        b1 = (rng.normal(size=32) * 0.1).astype(dtype)
        _, entry1 = model._block_forward(out0, frames, w1, b1, True)
        dcur = rng.normal(size=(frames, 16, 16, 32)).astype(dtype)
        dw, db, (rows, off_sum) = model._block_backward(w1, entry1, at_sites(dcur, sites_of(entry1)), sites)
        dx, want_dw, want_db = reference_block_grads(x1, w1, b1, dcur)
        assert rows.dtype == dx.dtype and rows.shape == (len(sites[0]), 16)
        assert rows.tobytes() == dx[sites].tobytes()
        assert_float32_close(dw, want_dw, "conv1_w")
        assert_float32_close(db, want_db, "conv1_b")
        assert off_sum.dtype == model._wide(dtype) and off_sum.shape == (32, 32, 16)
        off = dx.copy()
        off[sites] = 0
        assert_float32_close(off_sum.astype(dtype), exact_sum_per_cell(off), "per-cell sums off the sites")
        total = off_sum.sum(axis=(0, 1)) + rows.sum(axis=0, dtype=off_sum.dtype)
        assert_float32_close(total.astype(dtype), exact_sum(dx), "total")
        return sites, off_sum


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


def _spy_blocks(monkeypatch):
    taken = []
    real = model._block_forward

    def spy(*args):
        taken.append("_block_forward")
        return real(*args)

    monkeypatch.setattr(model, "_block_forward", spy)
    return taken


def _whole_frame_blocks(monkeypatch):
    """Run every block of forward_batch and backward_batch as ``reference_block`` does.

    Its sites are every pooled cell, so its backward receives the whole
    output gradient as rows, in (n, i, j) order, and hands the block below
    its whole input gradient the same way.
    """
    def forward(x, frames, w, b, need_cache):
        x = dense(x, frames)
        pooled = reference_block(x, w, b, need_cache)[0]
        sites = np.nonzero(np.ones(pooled.shape[:3], dtype=bool))
        return (pooled[:1], pooled[sites], sites), (x, b, None, sites)

    def backward(w, entry, dcur, below):
        x, b, _, _ = entry
        drows, doff = dcur
        assert not doff.any()
        dx, dw, db = reference_block_grads(x, w, b, drows.reshape(x.shape[0], x.shape[1] // 2, x.shape[2] // 2, -1))
        if below is None:
            return dw, db, None
        return dw, db, (dx[below], np.zeros(dx.shape[1:], dtype=model._wide(dx.dtype)))

    monkeypatch.setattr(model, "_block_forward", forward)
    monkeypatch.setattr(model, "_block_backward", backward)


def _whole_frame_p(params, cfg, x):
    """forward_batch's scoring probabilities with every block run over whole frames."""
    with pytest.MonkeyPatch.context() as mp:
        _whole_frame_blocks(mp)
        return forward_batch(params, cfg, x, need_cache=False)[0]


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
    def test_only_the_conv_gradients_move(self, monkeypatch, dtype, batch, lit):
        cfg = _tiny_config()
        params = init_params(cfg, dtype)
        params["conv0_b"][:] = np.linspace(-0.1, 0.1, len(params["conv0_b"]))
        params["conv1_b"][:] = np.linspace(0.1, -0.1, len(params["conv1_b"]))
        x = _window(np.random.default_rng(batch), cfg, batch, dtype, lit)
        y = (np.arange(batch) % 2).astype(dtype)
        taken = _spy_blocks(monkeypatch)
        p = forward_batch(params, cfg, x, need_cache=False)[0]
        got = analytic_grads(params, cfg, x, y)
        assert taken == ["_block_forward"] * 4
        assert p.tobytes() == _whole_frame_p(params, cfg, x).tobytes()
        _whole_frame_blocks(monkeypatch)
        want = analytic_grads(params, cfg, x, y)
        for name in want:
            if name.startswith("conv"):
                assert_float32_close(got[name], want[name], name)
            else:
                assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("need_cache", [True, False])
    def test_an_empty_batch_has_no_probabilities(self, need_cache):
        cfg = _tiny_config()
        x = np.zeros((0, cfg.T, cfg.height, cfg.width, 1), dtype=np.float32)
        p, _ = forward_batch(init_params(cfg), cfg, x, need_cache=need_cache)
        assert p.shape == (0,) and p.dtype == np.float32

    def test_a_blank_scoring_batch_makes_no_dense_block_0_output(self):
        # the blocks hand on a ground frame and site rows, so a blank 8-window
        # call peaks below one whole-frame block 0 output, (56, 32, 32, 16) float32
        cfg = ModelConfig()
        params = init_params(cfg)
        x = np.zeros((8, cfg.T, cfg.height, cfg.width, 1), dtype=np.float32)
        tracemalloc.start()
        try:
            forward_batch(params, cfg, x, need_cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * cfg.T * 32 * 32 * 16 * 4

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
        taken = _spy_blocks(monkeypatch)
        p, cache = forward_batch(params, cfg, x)
        forward_batch(params, cfg, x, need_cache=False)
        assert taken == ["_block_forward"] * 4
        _, dp = bce_loss(p, np.array([0.0, 1.0], dtype=np.float32))
        backward_batch(params, cfg, cache, dp)
        blocks = len(cfg.conv_blocks)
        assert calls == {"conv2d_forward": 2 * blocks, "maxpool2_forward": 2 * blocks,
                         "conv2d_backward": blocks, "maxpool2_backward": blocks}


class TestSparseGradCheck:
    """Finite differences on a sparse binary clip, whose unreached pool blocks take the ground's values.

    The dense ``rng.random`` clip of the other grad checks lights every
    block, so there no cell takes the ground's value. The conv biases are
    nonzero (both signs): at a zero bias every unreached cell of block 0
    sits on the ReLU's kink, where a central difference is undefined.
    """

    @staticmethod
    def _setup(blocks=1):
        cfg = micro_config(seed=3)
        clip = np.zeros((2, 8, 8))
        clip[0, 0, 0] = clip[0, 0, 1] = 1.0  # by the top-left corner
        clip[1, 7, 7] = 1.0  # the bottom-right corner
        if blocks > 1:
            # block 1 reads its input gradient at block 0's sites, here all on
            # its own 4 x 4 frame's border, where some taps fall off the frame
            cfg = replace(cfg, conv_blocks=(ConvBlock(4),) * blocks)
            clip[0, 4, 7] = clip[1, 7, 2] = 1.0  # the right and bottom edges
        params = init_params(cfg, np.float64)
        params["conv0_b"][:] = [0.2, -0.1, 0.05, 0.3]
        if blocks > 1:
            params["conv1_b"][:] = [-0.05, 0.1, 0.15, -0.2]
        x = clip[None, :, :, :, None]
        reached = reached_of(x[0, ..., 0] != 0, 3)
        assert 0 < np.count_nonzero(reached) < reached.size
        return cfg, params, x, np.array([1.0])

    @pytest.mark.parametrize("blocks", [1, 2, 3], ids=["one_block", "two_blocks", "three_blocks"])
    def test_passes_below_1e4(self, blocks):
        cfg, params, x, y = self._setup(blocks)
        err, per_param = max_relative_error(analytic_grads(params, cfg, x, y),
                                            finite_difference_grads(params, cfg, x, y))
        assert err < 1e-4, per_param

    def test_fails_when_the_bias_gradient_skips_unreached_blocks(self, monkeypatch):
        cfg, params, x, y = self._setup()
        real = model._block_backward

        def reached_only(w, entry, dcur, below):
            return real(w, entry, (dcur[0], np.zeros_like(dcur[1])), below)

        monkeypatch.setattr(model, "_block_backward", reached_only)
        _, per_param = max_relative_error(analytic_grads(params, cfg, x, y),
                                            finite_difference_grads(params, cfg, x, y))
        assert per_param["conv0_b"] > 0.1
        assert per_param["conv0_w"] < 1e-4
