import numpy as np
import pytest

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


class TestMaxpool2:
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

    def test_sigmoid_at_zero_is_half(self):
        y, _ = ops.dense_forward(np.zeros((1, 3)), np.zeros((3, 2)), np.zeros(2), "sigmoid")
        assert np.allclose(y, 0.5)

    @pytest.mark.parametrize("activation", ["none", "relu", "sigmoid"])
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
