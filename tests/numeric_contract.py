"""The closeness half of the numeric contract (docs/formats.md, "Numeric contract").

A kernel that adds in another order than the kernel it replaces keeps
the old kernel in the tests as a reference and is checked against it
here. The bound is normwise: every element of the result lies within
``TOLERANCE_EPS`` machine epsilons of the reference's largest
magnitude. A sum that is only regrouped moves by a few epsilons of its
terms' scale; a wrong term, a skipped block or a lost sign moves it by
far more.

A sum whose terms largely cancel, such as a bias gradient over every
position of a batch, is the exception: there any evaluation order in the
dtype is off the exact value by epsilons of the terms' scale, which can
be many epsilons of the result's. Its reference is ``exact_sum`` of the
terms the old kernel added, not the old kernel's own rounding of them.
A weight gradient summed over every position is such a sum too: in
float32 its reference is ``wide_matmul`` of the old kernel's terms.
"""

from __future__ import annotations

import math

import numpy as np

# 100 * 2**-23 ~ 1.2e-5 of the largest element in float32, ~2.2e-14 in float64
TOLERANCE_EPS = 100


def exact_sum(terms):
    """Per-channel sum of ``terms`` (..., C): ``math.fsum`` of each channel, cast to the terms' dtype."""
    terms = np.asarray(terms)
    channels = terms.reshape(-1, terms.shape[-1]).T.astype(np.float64)
    return np.array([math.fsum(c) for c in channels.tolist()], dtype=terms.dtype)


def wide_matmul(a, b):
    """``a @ b`` summed in float64 and cast back: the reference of a weight gradient.

    For float32 terms every product is exact and the sum is off the exact
    one by far less than a float32 epsilon; for float64 terms it is the
    old kernel's own product.
    """
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(a.dtype)


def contract_error(got, want) -> float:
    """max |got - want| in epsilons of want's dtype, relative to max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want), initial=0.0))
    diff = float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64)), initial=0.0))
    if diff == 0.0:
        return 0.0
    return diff / (np.finfo(want.dtype).eps * scale) if scale > 0 else float("inf")


def assert_float32_close(got, want, name: str = ""):
    """``got`` matches the reference ``want`` within the contract's tolerance.

    Shape and dtype must be equal; non-finite values must not appear.
    The tolerance is in epsilons of the dtype, so a float64 result is held
    to the same relative rounding budget as a float32 one.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}"
    assert got.dtype == want.dtype, f"{name}: dtype {got.dtype} != {want.dtype}"
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(want)), f"{name}: non-finite values"
    err = contract_error(got, want)
    assert err <= TOLERANCE_EPS, f"{name}: off by {err:.1f} eps of its largest element (bound {TOLERANCE_EPS})"
