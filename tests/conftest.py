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


def _square(half_width, n):
    # the n x n points of [-half_width, half_width]^2, as rows (n * n, 2)
    axis = np.linspace(-half_width, half_width, n)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def grid_minimizer(t, states, ps, problem):
    """Values (P,) and minimizers (P, 2) of running_cost(t, state, z) + p.z
    over the ball Z for the pairs of states (P, N) and costates (P, 2), by
    brute force with no projection.

    Two levels of candidates, each a square grid masked to the ball joined
    by samples of its boundary circle: a 101 x 101 grid over [-r, r]^2 and
    512 circle samples, then a 121 x 121 grid over 0.03 r about the best
    of those and 401 circle samples over 0.04 rad about its angle.  Under
    the cost |z|^2/2 + p.z a feasible z costs at least the minimum plus
    |z - z*|^2 / 2, so the finer level's spacings, 5e-4 r on the grid and
    2e-4 rad on the circle, bound the distance to the minimizer z*.
    """
    r, rows = problem.Z.radius, np.arange(len(ps))

    def best(cands):
        values = problem.running_cost(t, states[:, None], cands)
        values = values + (cands * ps[:, None]).sum(axis=-1)
        k = np.argmin(np.where(problem.Z.contains(cands), values, np.inf), axis=1)
        return values[rows, k], cands[rows, k]

    def circle(theta):
        return r * np.stack((np.cos(theta), np.sin(theta)), axis=-1)

    ring = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    coarse = np.concatenate((_square(r, 101), circle(ring)))
    _, z = best(np.broadcast_to(coarse, (len(ps),) + coarse.shape))
    angles = np.arctan2(z[:, 1], z[:, 0])[:, None] + np.linspace(-0.04, 0.04, 401)
    fine = np.concatenate((z[:, None] + _square(0.03 * r, 121), circle(angles)), axis=1)
    return best(fine)


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
