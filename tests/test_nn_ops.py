import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stimkit.errors import SizeError
from stimkit.nn import ops


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8))


class TestConv2d:
    def test_identity_1x1_kernel(self):
        x = np.random.default_rng(0).random((2, 6, 6, 3))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0] = np.eye(3)
        y = ops.conv2d_forward(x, w, np.zeros(3))
        assert np.allclose(y, x, atol=1e-12)

    def test_ones_kernel_on_constant_image(self):
        c = 0.7
        x = np.full((1, 5, 5, 1), c)
        w = np.ones((3, 3, 1, 1))
        y = ops.conv2d_forward(x, w, np.zeros(1))[0, :, :, 0]
        assert np.isclose(y[2, 2], 9 * c)  # interior
        assert np.isclose(y[0, 0], 4 * c)  # corner under zero padding
        assert np.isclose(y[0, 2], 6 * c)  # edge

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 6, 6, 3))
        w = rng.standard_normal((3, 3, 3, 4)) * 0.3
        b = rng.standard_normal(4) * 0.1
        dy = rng.standard_normal((2, 6, 6, 4))

        def loss():
            return float(np.sum(ops.conv2d_forward(x, w, b) * dy))

        dx, dw, db = ops.conv2d_backward(x, w, dy)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-4
        assert rel_err(dw, fd_grad(loss, w)) < 1e-4
        assert rel_err(db, fd_grad(loss, b)) < 1e-4

    def test_channel_mismatch_rejected(self):
        with pytest.raises(SizeError, match="channel mismatch"):
            ops.conv2d_forward(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 3, 1)), np.zeros(1))

    def test_even_kernel_rejected(self):
        with pytest.raises(SizeError, match="odd"):
            ops.conv2d_forward(np.zeros((1, 4, 4, 1)), np.zeros((2, 2, 1, 1)), np.zeros(1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,cout,k", [(1, 4, 3), (1, 1, 5), (3, 5, 3), (16, 8, 1), (2, 3, 5)])
    def test_cached_columns_give_the_same_bytes(self, dtype, cin, cout, k):
        rng = np.random.default_rng(cin * 10 + k)
        x = (rng.random((3, 6, 8, cin)) < 0.3).astype(dtype)  # binary, as rasters are
        w = rng.standard_normal((k, k, cin, cout)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype)
        dy = rng.standard_normal((3, 6, 8, cout)).astype(dtype)
        cols = ops.im2col(x, k)
        assert ops.conv2d_forward(x, w, b, cols=cols).tobytes() == ops.conv2d_forward(x, w, b).tobytes()
        for need_dx in (True, False):
            cached = ops.conv2d_backward(x, w, dy, need_dx, cols=cols)
            lowered = ops.conv2d_backward(x, w, dy, need_dx)
            if need_dx:
                assert cached[0].dtype == dtype and cached[0].tobytes() == lowered[0].tobytes()
            else:
                assert cached[0] is None and lowered[0] is None
            for got, want in zip(cached[1:], lowered[1:]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_cached_columns_with_mixed_dtypes(self):
        rng = np.random.default_rng(7)
        x = (rng.random((3, 6, 8, 2)) < 0.3).astype(np.float32)
        for wt, b in ((rng.standard_normal((3, 3, 2, 4)), rng.standard_normal(4)),
                      (rng.standard_normal((3, 3, 2, 4)).astype(np.float32), rng.standard_normal(4))):
            y = ops.conv2d_forward(x, wt, b, cols=ops.im2col(x, 3))
            assert y.dtype == np.float32
            assert y.tobytes() == _reference_conv2d_forward(x, wt, b).tobytes()

    @pytest.mark.parametrize(
        "shape,dtype",
        [((56, 32, 32, 32), np.float32), ((7, 32, 32, 32), np.float32),
         ((2, 8, 8, 4), np.float64), ((5, 2, 2, 4), np.float64)],
        ids=["block2-B8", "block2-B1", "micro-frames", "micro-tiles"],
    )
    def test_bias_gradient_bytes_match_the_axis_sum(self, shape, dtype):
        rng = np.random.default_rng(shape[0])
        dy = rng.standard_normal(shape).astype(dtype)
        x = np.zeros(shape[:3] + (1,), dtype=dtype)
        w = np.zeros((1, 1, 1, shape[3]), dtype=dtype)
        _, _, db = ops.conv2d_backward(x, w, dy, need_dx=False)
        want = dy.sum(axis=(0, 1, 2))
        assert db.dtype == want.dtype and db.tobytes() == want.tobytes()

    def test_gradient_of_wrong_shape_rejected(self):
        x, w = np.zeros((2, 4, 4, 1)), np.zeros((3, 3, 1, 2))
        for dy in (np.zeros((1, 1, 1, 1)), np.zeros((2, 4, 4, 1)), np.zeros((2, 2, 2, 2))):
            with pytest.raises(SizeError, match="gradient"):
                ops.conv2d_backward(x, w, dy)


def _reference_im2col(x, k):
    # The one-shot sliding-window lowering, kept apart from ops.im2col as its reference.
    half = k // 2
    xp = np.pad(x, ((0, 0), (half, half), (half, half), (0, 0)))
    patches = sliding_window_view(xp, (k, k), axis=(1, 2))
    n, h, w = patches.shape[:3]
    return patches.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, -1)


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,k",
        [((1, 1, 1, 1), 1), ((1, 1, 1, 1), 3), ((2, 5, 7, 1), 3), ((3, 8, 8, 1), 5), ((1, 4, 6, 1), 1),
         ((2, 6, 4, 3), 3), ((1, 9, 5, 16), 3), ((2, 4, 4, 2), 1), ((1, 3, 3, 4), 5)],
    )
    def test_matches_sliding_window_reference(self, dtype, shape, k):
        rng = np.random.default_rng(sum(shape) + k)
        x = rng.choice(np.array([-1.5, -0.0, 0.0, 1.0, 2.5], dtype=dtype), size=shape)
        cols = ops.im2col(x, k)
        want = _reference_im2col(x, k)
        assert cols.shape == want.shape == (shape[0] * shape[1] * shape[2], k * k * shape[3])
        assert cols.dtype == dtype and cols.flags.c_contiguous
        assert cols.tobytes() == want.tobytes()


def _reference_conv2d_forward(x, w, b):
    # the one-shot sliding-window lowering and the bias add
    y = _reference_im2col(x, w.shape[0]) @ w.reshape(-1, w.shape[3]) + b
    return y.reshape(x.shape[:3] + (w.shape[3],)).astype(x.dtype, copy=False)


def _reference_conv2d_input_grad(x, w, dy):
    # the one-shot lowering of the padded dy, times the rotated kernel
    wrot = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2))
    dx = _reference_im2col(dy, w.shape[0]) @ wrot.reshape(-1, w.shape[2])
    return dx.reshape(x.shape).astype(x.dtype, copy=False)


def _reference_conv2d_weight_grad(x, w, dy):
    # the one-shot lowering of x, transposed, times the flattened dy
    dw = _reference_im2col(x, w.shape[0]).T @ dy.reshape(-1, w.shape[3])
    return dw.reshape(w.shape).astype(w.dtype, copy=False)


class TestOneShotLowering:
    @pytest.mark.parametrize(
        "x_dtype,w_dtype,b_dtype",
        [(np.float32,) * 3, (np.float64,) * 3, (np.float32, np.float64, np.float64), (np.float32, np.float32, np.float64)],
        ids=["f32", "f64", "f32-x-f64-wb", "f32-xw-f64-b"],
    )
    @pytest.mark.parametrize("output", ["forward", "input gradient", "weight gradient"])
    @pytest.mark.parametrize(
        "n,h,w,cin,cout,k",
        [(5, 6, 8, 1, 4, 3), (7, 4, 4, 3, 1, 5), (4, 6, 6, 16, 8, 1), (3, 8, 6, 2, 3, 3)],
    )
    def test_matches_one_shot_reference(self, monkeypatch, x_dtype, w_dtype, b_dtype, output,
                                        n, h, w, cin, cout, k):
        # each op lowers the whole batch in one im2col call, and its bytes
        # are those of the one-shot sliding-window product
        rng = np.random.default_rng(n * 100 + cin * 10 + k)
        x = np.where(rng.random((n, h, w, cin)) < 0.3, rng.random((n, h, w, cin)), 0.0).astype(x_dtype)
        wt = rng.standard_normal((k, k, cin, cout)).astype(w_dtype)
        b = rng.standard_normal(cout).astype(b_dtype)
        dy = rng.standard_normal((n, h, w, cout)).astype(x_dtype)
        cols = ops.im2col(x, k)
        lowered = []
        im2col = ops.im2col

        def counting_im2col(a, kk):
            lowered.append(len(a))
            return im2col(a, kk)

        monkeypatch.setattr(ops, "im2col", counting_im2col)
        if output == "forward":
            got, want = ops.conv2d_forward(x, wt, b), _reference_conv2d_forward(x, wt, b)
            dtype = x_dtype
        elif output == "input gradient":
            got, want = ops.conv2d_backward(x, wt, dy, cols=cols)[0], _reference_conv2d_input_grad(x, wt, dy)
            dtype = x_dtype
        else:
            got, want = ops.conv2d_backward(x, wt, dy, need_dx=False)[1], _reference_conv2d_weight_grad(x, wt, dy)
            dtype = w_dtype
        assert lowered == [n]
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _reference_maxpool2_forward(x):
    # The block-copy pool the four-view kernel replaced: (..., 4, C) blocks,
    # argmax, then take_along_axis.
    n, h, w, c = x.shape
    blocks = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h // 2, w // 2, 4, c)
    idx = blocks.argmax(axis=3).astype(np.int8)
    out = np.take_along_axis(blocks, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, idx


def _reference_maxpool2_backward(x_shape, idx, dy):
    # The put_along_axis scatter into (..., 4, C) blocks and the transposing
    # copy back that the flat-index scatter replaced.
    n, h, w, c = x_shape
    dx4 = np.zeros((n, h // 2, w // 2, 4, c), dtype=dy.dtype)
    np.put_along_axis(dx4, idx[:, :, :, None, :].astype(np.intp), dy[:, :, :, None, :], axis=3)
    return dx4.reshape(n, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h, w, c)


def _tied_pool_input(dtype, shape):
    # few distinct values, so most blocks hold ties: positive, +0.0 against
    # -0.0 (equal, but different bytes) and all-negative
    rng = np.random.default_rng(sum(shape))
    values = np.array([-3.0, -1.5, -0.0, 0.0, 0.5, 2.0], dtype=dtype)
    x = rng.choice(values, size=shape)
    x[0, :2, :2, 0] = -0.0  # a block of equal zeros whose first is -0.0
    x[-1, :2, :2, -1] = [[0.0, -0.0], [-0.0, 0.0]]
    return x


POOL_SHAPES = [(1, 2, 2, 1), (3, 6, 10, 5), (2, 8, 4, 33), (7, 16, 16, 16)]


class TestMaxpool2:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_matches_block_copy_reference(self, dtype, shape):
        x = _tied_pool_input(dtype, shape)
        want_y, want_idx = _reference_maxpool2_forward(x)
        y, idx = ops.maxpool2_forward(x)
        assert y.dtype == dtype and idx.dtype == np.int8
        assert y.tobytes() == want_y.tobytes()
        assert idx.tobytes() == want_idx.tobytes()
        y_only, none = ops.maxpool2_forward(x, need_argmax=False)
        assert none is None
        assert y_only.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_backward_matches_put_along_axis_reference(self, dtype, shape):
        x = _tied_pool_input(dtype, shape)
        _, idx = ops.maxpool2_forward(x)
        rng = np.random.default_rng(len(shape) + x.size)
        dy = rng.choice(np.array([-2.5, -0.0, 0.0, 1.25, 3.0], dtype=dtype), size=idx.shape)
        dx = ops.maxpool2_backward(x.shape, idx, dy)
        want = _reference_maxpool2_backward(x.shape, idx, dy)
        assert dx.shape == x.shape and dx.dtype == dtype and dx.flags.c_contiguous
        assert dx.tobytes() == want.tobytes()

    def test_gradient_of_wrong_shape_rejected(self):
        x = np.zeros((2, 4, 4, 3))
        _, idx = ops.maxpool2_forward(x)
        # a (1, 1, 1, 1) gradient would broadcast over every block unnoticed
        for dy in (np.ones((1, 1, 1, 1)), np.ones((2, 2, 2, 1)), np.ones((2, 4, 4, 3))):
            with pytest.raises(SizeError, match="gradient"):
                ops.maxpool2_backward(x.shape, idx, dy)
        with pytest.raises(SizeError, match="argmax"):
            ops.maxpool2_backward(x.shape, idx[:1], np.ones((2, 2, 2, 3)))

    def test_constant_image_unchanged(self):
        x = np.full((1, 4, 4, 2), 0.3)
        y, _ = ops.maxpool2_forward(x)
        assert np.all(y == 0.3)
        assert y.shape == (1, 2, 2, 2)

    def test_block_max(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        y, idx = ops.maxpool2_forward(x)
        assert y[0, 0, 0, 0] == 4.0
        assert idx[0, 0, 0, 0] == 3

    def test_tie_routes_to_first(self):
        x = np.full((1, 2, 2, 1), 5.0)
        y, idx = ops.maxpool2_forward(x)
        assert idx[0, 0, 0, 0] == 0
        dx = ops.maxpool2_backward(x.shape, idx, np.ones((1, 1, 1, 1)))
        assert dx[0, 0, 0, 0] == 1.0 and dx.sum() == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 4, 3))
        dy = rng.standard_normal((2, 2, 2, 3))

        def loss():
            y, _ = ops.maxpool2_forward(x)
            return float(np.sum(y * dy))

        _, idx = ops.maxpool2_forward(x)
        dx = ops.maxpool2_backward(x.shape, idx, dy)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-4

    def test_odd_dims_rejected(self):
        with pytest.raises(SizeError):
            ops.maxpool2_forward(np.zeros((1, 5, 4, 1)))


class TestDense:
    def test_identity_passthrough(self):
        x = np.random.default_rng(3).random((4, 5))
        y, _ = ops.dense_forward(x, np.eye(5), np.zeros(5), "none")
        assert np.allclose(y, x, atol=1e-12)

    @pytest.mark.parametrize("activation", ["none", "relu"])
    def test_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4)) * 0.5
        b = rng.standard_normal(4) * 0.1
        dy = rng.standard_normal((3, 4))

        def loss():
            y, _ = ops.dense_forward(x, w, b, activation)
            return float(np.sum(y * dy))

        _, z = ops.dense_forward(x, w, b, activation)
        dx, dw, db = ops.dense_backward(x, w, z, dy, activation)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-4
        assert rel_err(dw, fd_grad(loss, w)) < 1e-4
        assert rel_err(db, fd_grad(loss, b)) < 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SizeError):
            ops.dense_forward(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
