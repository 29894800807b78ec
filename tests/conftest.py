import sys

import numpy as np
import pytest

from dynbc import BoundaryParams, build_basis
from dynbc import fem_oracle

ACCEPTANCE_PARAM_SETS = ((1.0, 1.0), (0.5, 2.0), (10.0, 0.1))


def densify(band):
    """Dense symmetric tridiagonal matrix from the oracle's upper band form
    (row 0 superdiagonal with an unused first entry, row 1 diagonal)."""
    off = band[0, 1:]
    return np.diag(band[1]) + np.diag(off, 1) + np.diag(off, -1)


@pytest.fixture(scope="session")
def params11():
    return BoundaryParams(1.0, 1.0)


@pytest.fixture(scope="session")
def basis8(params11):
    return build_basis(params11, 8)


@pytest.fixture(scope="session")
def basis16(params11):
    return build_basis(params11, 16)


@pytest.fixture(scope="session")
def basis32(params11):
    return build_basis(params11, 32)


@pytest.fixture(scope="session")
def basis64(params11):
    return build_basis(params11, 64)


@pytest.fixture(scope="session")
def basis200(params11):
    # oscillation of mode 199 needs a finer quadrature than the default
    return build_basis(params11, 200, panels=512)


@pytest.fixture(scope="session")
def fd_op_cache():
    cache = {}

    def get(b0=1.0, b1=1.0, n=2000):
        key = (b0, b1, n)
        if key not in cache:
            cache[key] = fem_oracle.build(n, BoundaryParams(b0, b1))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.Philox(key=2024))


@pytest.fixture
def switch_often():
    # worker threads switch as often as the interpreter lets them, so
    # blocks stepped at the same time interleave at every step
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
