"""Mild-solution simulation by eigenbasis truncation and exponential Euler.

The state is advanced in modal coordinates: each step applies the exact
modal semigroup to the Euler-frozen drift and noise increments,

    a(t+dt) = exp(lambda dt) * (a(t) + F(t,a) dt + G(t,a) dW),

with the cylindrical noise on X truncated to the leading ``m_noise``
eigenmodes.  The combined interior/boundary Wiener process is taken with
identity covariance on X (the standard cylindrical choice), so expanding
it in the eigenbasis is exact in law.  Noise is counter-based: path p
draws the Philox stream with key seed and counter p << 128, so ensembles
are reproducible and order-independent; ``block_increments`` draws a
block with one Philox, resetting its counter for each row.

``rollout`` is the one stepping loop and ``step_exp_euler`` its one step,
and a block of paths (P, N) is the one trajectory shape: ensemble blocks,
controlled paths and the inner paths of the nested Monte Carlo provider all
advance through it.  For state-free coefficients (``L == 0``: f and g do
not read u) the step never builds the nodal field u; for state-dependent
ones it writes u and the noise field into one pair of (P, nodes) arrays
that ``rollout`` holds for the whole block.  ``run_blocks`` is the one
pass over an ensemble, controlled or not, in blocks of whole slabs as wide
as ``block_rows`` allows: each of its workers draws and steps one block at
a time.  Recorded paths are rows of ``terminal_states``' pass.
``mean_var_se`` is the one mean/standard-error estimator.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from threading import Event

import numpy as np
from numpy.random import Generator, Philox

from .errors import ShapeError
from .spectral import EigenBasis

# the slab every block is made of: paths stepped together, the smallest
# block; transient memory grows with it
PATH_BLOCK = 64
# largest noise array a PATH_BLOCK-row block may draw, steps x m_noise x
# PATH_BLOCK doubles, and the noise that the blocks ``run_blocks``' workers
# hold at once may take when there is more than one
MAX_BLOCK_NOISE_BYTES = 2**30
# largest noise array a block wider than PATH_BLOCK rows may draw, steps x
# m_noise x rows doubles, and largest recorded history the blocks hold
MAX_WIDE_NOISE_BYTES = 2**24
# largest array of one step's terms a wide block may hold:
# rows x n_modes doubles
MAX_WIDE_STEP_BYTES = 2**17
# largest nodal field of one step a wide state-dependent block may hold:
# rows x nodes doubles, for u and for the noise field each
MAX_NODAL_FIELD_BYTES = 2**20


def block_rows(
    steps: int, n_modes: int, m_noise: int, nodes: int, state_dependent=False
) -> int:
    """Rows of a block of an ensemble, a multiple of ``PATH_BLOCK``: as many
    as keep one step's (rows, n_modes) terms within ``MAX_WIDE_STEP_BYTES``,
    the block's (steps, rows, m_noise) noise and the (rows, nodes) noise
    field of a nodal g within ``MAX_WIDE_NOISE_BYTES`` and, for
    ``state_dependent`` coefficients, the (rows, nodes) fields of one step
    within ``MAX_NODAL_FIELD_BYTES``; ``PATH_BLOCK`` at the least, whose
    arrays the run configuration bounds."""
    rows = min(
        MAX_WIDE_STEP_BYTES // (n_modes * 8),
        MAX_WIDE_NOISE_BYTES // (max(steps * m_noise, nodes) * 8),
    )
    if state_dependent:
        rows = min(rows, MAX_NODAL_FIELD_BYTES // (nodes * 8))
    return PATH_BLOCK * max(1, rows // PATH_BLOCK)


def block_noise_fits(span: float, dt: float, m_noise: int) -> bool:
    """Whether the noise of a ``PATH_BLOCK``-row block over ``span`` in steps
    of ``dt`` stays within ``MAX_BLOCK_NOISE_BYTES``; a wider block draws at
    most ``MAX_WIDE_NOISE_BYTES``, less than that.  The step count is a
    float, so a ``dt`` small enough to overflow it gives inf and is
    rejected."""
    steps = span / dt + 1.0
    return steps * m_noise * PATH_BLOCK * 8 <= MAX_BLOCK_NOISE_BYTES


def path_blocks(n_paths: int, rows: int = PATH_BLOCK) -> list:
    """Consecutive ranges of at most ``rows`` path indices from 0, whole
    ``PATH_BLOCK``-path slabs each (``rows`` is a multiple of ``PATH_BLOCK``),
    the last one ending with the slab that holds path n_paths - 1."""
    end = -(-n_paths // PATH_BLOCK) * PATH_BLOCK
    return [range(a, min(a + rows, end)) for a in range(0, n_paths, rows)]


@dataclass(frozen=True)
class Coefficients:
    """Problem coefficients: drift/diffusion densities and boundary gains.

    ``f`` and ``g`` map (t, x, u) -> value, vectorized over node arrays
    (a scalar return is broadcast); ``h`` maps t to the pair of boundary
    noise gains.  ``K`` bounds |f|, |g| and |h|; ``L`` is the Lipschitz
    constant of f, g in u.  The bounds are declared, not proven:
    ``spot_check_coefficients`` samples them, and the test suite runs it
    on every family ``named_coefficients`` builds; loading a config does not.

    ``L == 0`` is a contract the stepper relies on: f and g must then not
    depend on u at all.  They are called with a zero nodal field of shape
    (nodes,) in place of u, and the nodal field of the states is never
    built.
    """

    f: callable
    g: callable
    h: callable
    K: float
    L: float


@dataclass(frozen=True)
class SimConfig:
    """Galerkin/noise truncation sizes, time grid and seed for one run."""

    n_modes: int
    m_noise: int
    dt: float
    T: float
    t0: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.t0 < self.T:
            raise ValueError("need 0 <= t0 < T")
        if self.n_modes < 1 or self.m_noise < 1:
            raise ValueError("n_modes and m_noise must be >= 1")
        if self.m_noise > self.n_modes:
            raise ValueError("m_noise must not exceed n_modes")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class PathRecord:
    """Simulated trajectories: times and the modal states at each; the
    result of ``simulate_path``, kept with it."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    """Fixed-order reduction of terminal statistics over a path ensemble."""

    n_paths: int
    mean_terminal: np.ndarray
    var_terminal: np.ndarray
    se_terminal: np.ndarray
    mean_norm: float
    var_norm: float
    se_norm: float


def sim_config(run) -> SimConfig:
    """The ``SimConfig`` of a run configuration: its truncation sizes, time
    grid and seed."""
    return SimConfig(run.n_modes, run.m_noise, run.dt, run.T, run.t0, run.seed)


def time_grid(config: SimConfig) -> np.ndarray:
    """Strictly increasing times from t0 to T; last step possibly short."""
    span = config.T - config.t0
    n_full = int(np.floor(span / config.dt + 1e-9))
    times = config.t0 + config.dt * np.arange(n_full + 1)
    # a span shorter than the merge tolerance still takes its one step
    if n_full == 0 or times[-1] < config.T - 1e-12 * (1.0 + abs(config.T)):
        times = np.append(times, config.T)
    else:
        times[-1] = config.T
    return times


def path_increments(
    seed: int, path_index: int, dts: np.ndarray, m_noise: int
) -> np.ndarray:
    """Gaussian increments N(0, dt_i) for one path, shape (steps, m_noise):
    the one-row block of ``block_increments``.  No command calls it; it is
    kept for perfbench's noise counters and the README's noise contract."""
    p = int(path_index)
    return block_increments(seed, range(p, p + 1), dts, m_noise)[:, 0]


def block_increments(
    seed: int, rows: range, dts: np.ndarray, m_noise: int
) -> np.ndarray:
    """Gaussian increments N(0, dt_i) of the paths ``rows``, shape
    (steps, len(rows), m_noise).  Row r draws the Philox stream with key
    ``seed`` and counter ``rows[r] << 128``, disjoint per path, so any subset
    of paths can be regenerated alone.  One bit generator serves the block,
    its counter reset per row: the normals of a fresh ``Philox`` per path."""
    bits = Philox(key=seed)
    rng, state = Generator(bits), bits.state
    # the 256-bit counter p << 128 as four little-endian 64-bit words
    counter = state["state"]["counter"]
    z = np.empty((len(rows), len(dts), m_noise))
    for row, p in zip(z, rows):
        counter[2:] = int(p) % 2**64, int(p) >> 64
        bits.state = state
        rng.standard_normal(out=row)
    z *= np.sqrt(dts)[:, None]
    return z.transpose(1, 0, 2)


@lru_cache
def _zero_field(nodes: int) -> np.ndarray:
    # the read-only u handed to state-free coefficients (L == 0)
    u = np.zeros(nodes)
    u.flags.writeable = False
    return u


def _interior_moments(fv, basis: EigenBasis) -> np.ndarray:
    # int fv e_k dx for nodal values fv (one row per path) or a constant
    if np.ndim(fv) == 0:
        return float(fv) * basis.interior_integrals
    return (basis.quad.weights * fv) @ basis.values


def _interior_noise(gv, dW, basis: EigenBasis, out=None) -> np.ndarray:
    # the interior noise field g dW projected on the modes, with the bits of
    # _interior_moments(gv * field); the field is built in ``out`` when
    # given, else in a fresh array, and weighted in place, since a fresh
    # node-sized array each time is handed back to the OS and faulted in
    # again (see ``rollout``)
    m = np.shape(dW)[-1]
    if np.ndim(gv) == 0:
        return float(gv) * (dW @ basis.interior_gram[:m])
    field = np.matmul(dW, basis.values[:, :m].T, out=out)
    field *= gv
    field *= basis.quad.weights
    return field @ basis.values


def _apply_diffusion(interior, h, dW, basis: EigenBasis) -> np.ndarray:
    # G(u) dW row by row without forming G: the interior noise plus the two
    # rank-one boundary terms, added in that order into ``interior``, a
    # fresh array of the result's shape; the gains h0, h1 broadcast against
    # dW without its last axis
    m = np.shape(dW)[-1]
    for gain, trace in zip(h, (basis.trace0, basis.trace1)):
        interior += (gain * (dW @ trace[:m]))[..., None] * trace
    return interior


def galerkin_drift(
    t: float, state: np.ndarray, coeffs: Coefficients, basis: EigenBasis
) -> np.ndarray:
    """Modal drift F_k = int f(t, x, u(x)) e_k(x) dx with u = sum a_k e_k.

    The boundary block of the drift is zero: the nonlinearity acts on the
    interior only.  ``state`` is one state (N,) or a block of them (P, N).
    No command calls it; it is kept as a perfbench span target.
    """
    u = state @ basis.values.T
    return _interior_moments(coeffs.f(t, basis.quad.nodes, u), basis)


def galerkin_diffusion(
    t: float,
    state: np.ndarray,
    coeffs: Coefficients,
    basis: EigenBasis,
    m_noise: int = None,
) -> np.ndarray:
    """Noise matrix G_km = <G(t,u) phi_m, phi_k> on the eigenbasis.

    Interior part int g(t,x,u) e_m e_k dx plus the diagonal boundary gains
    h0 e_m(0) e_k(0) + h1 e_m(1) e_k(1); shape (n_modes, m_noise).
    """
    n = basis.n_modes
    m = n if m_noise is None else m_noise
    if m > n:
        raise ShapeError("m_noise must not exceed the basis size")
    gv = coeffs.g(t, basis.quad.nodes, basis.values @ state)
    # column j is G applied to the j-th unit noise direction
    dW = np.eye(m)
    return _apply_diffusion(_interior_noise(gv, dW, basis), coeffs.h(t), dW, basis).T


def step_exp_euler(
    t: float,
    state: np.ndarray,
    dW: np.ndarray,
    coeffs: Coefficients,
    basis: EigenBasis,
    dt: float,
    extra_drift: np.ndarray = None,
    fields: tuple = None,
) -> np.ndarray:
    """One exponential-Euler step with coefficients frozen at time t.

    ``state`` is one modal state (N,) or a block of independent paths
    (P, N), with ``dW`` of shape (m,) or (P, m) holding N(0, dt) samples.
    ``extra_drift`` (used by the control layer) is added to the modal
    drift before the semigroup is applied.  ``fields``, when given, is a
    pair of arrays shaped like the nodal field, (*P, nodes), that a
    state-dependent step writes u and the noise field into in place of
    fresh ones; the bits are the same.
    """
    x = basis.quad.nodes
    u_out, noise_out = fields or (None, None)
    # state-free coefficients never read u, so the nodal field is not built
    if coeffs.L == 0:
        u = _zero_field(x.size)
    else:
        u = np.matmul(state, basis.values.T, out=u_out)
    drift = _interior_moments(coeffs.f(t, x, u), basis)
    if extra_drift is not None:
        drift = drift + extra_drift
    interior = _interior_noise(coeffs.g(t, x, u), dW, basis, noise_out)
    noise = _apply_diffusion(interior, coeffs.h(t), dW, basis)
    # exp(lambda dt) * (a + F dt + G dW), summed left to right and scaled
    # in place; ``state`` is left as it is
    out = state + drift * dt + noise
    out *= np.exp(basis.lam * dt)
    return out


def time_steps(config: SimConfig, basis: EigenBasis):
    """Time grid and step sizes of ``config``, checked against ``basis``."""
    if basis.n_modes != config.n_modes:
        raise ShapeError(
            f"basis has {basis.n_modes} modes, config expects {config.n_modes}"
        )
    times = time_grid(config)
    return times, np.diff(times)


def rollout(times, dts, initial, dW, coeffs, basis, drift=None):
    """Yield the states of the exponential-Euler scheme, ``initial`` first.

    ``times`` holds the steps + 1 grid points, ``dts`` the step sizes and
    ``dW`` the increments (steps, *P, m) of a block of paths of shape P,
    one axis of rows or (slabs, rows per slab); each state has shape
    (*P, N), and ``initial`` broadcasts against it.  Every step is one
    ``step_exp_euler``.  ``drift(t, state)``, when given, returns the extra
    modal drift of each step (the control hook).  Only the current state
    is held; a caller keeps what it needs of the history.

    For state-dependent coefficients (``L != 0``) the block's nodal field
    u and noise field, (*P, nodes) each, are allocated once and every step
    writes into them: fresh ones each step, 1 MiB each on a 256-row block,
    were handed back to the OS and faulted in again (a default
    multiplicative ``dynbc control --threads 2``: 120-135k minor page
    faults, against about 7k with the pair).
    """
    rows = dW.shape[1:-1]
    state = np.empty(rows + (basis.n_modes,))
    state[...] = initial
    fields = None
    if coeffs.L != 0:
        fields = tuple(np.empty(rows + (basis.quad.nodes.size,)) for _ in range(2))
    yield state
    for i, dt in enumerate(dts):
        extra = None if drift is None else drift(times[i], state)
        state = step_exp_euler(times[i], state, dW[i], coeffs, basis, dt, extra, fields)
        yield state


def run_blocks(config, coeffs, basis, n_paths, threads, work):
    """Call ``work(rows, dW)`` on every block of the ensemble on ``threads``
    worker threads, and return once every call has returned.

    The blocks are the ranges of ``path_blocks``, ``block_rows`` wide, and
    ``dW`` their increments (steps, slabs, PATH_BLOCK, m); ``rows`` are the
    paths below n_paths, and the padding after them is drawn and stepped
    for whole slabs, then dropped.  Row p draws ``path_increments(seed, p,
    ...)`` and every matrix product is one a ``PATH_BLOCK``-row block
    computes, whatever the BLAS does with more, so row p's bits are set by
    (seed, p) alone, and not by the block's neighbours or by when or where
    it is stepped.  A state-dependent block (``L != 0``) is narrower than a
    state-free one of the same run when its (rows, nodes) fields would pass
    ``MAX_NODAL_FIELD_BYTES``: 256 rows at the default 512 nodes.

    Each worker draws and steps one block at a time, so at most ``threads``
    blocks are held, fewer when their noise would exceed
    ``MAX_BLOCK_NOISE_BYTES``, and at least one.  The calls run at the same
    time, so each may write only its own rows.  Results are read in block
    order, so a failure raises the exception of the earliest failing block;
    blocks not yet started are then skipped, and every worker has stopped
    before the exception leaves."""
    dts = time_steps(config, basis)[1]
    nodes = basis.quad.nodes.size
    width = block_rows(len(dts), config.n_modes, config.m_noise, nodes, coeffs.L != 0)
    noise = len(dts) * width * config.m_noise * 8
    failed = Event()

    def task(drawn):
        # blocks start in index order, so one skipped here is later than
        # the block that failed
        if failed.is_set():
            return
        try:
            dW = block_increments(config.seed, drawn, dts, config.m_noise)
            dW = dW.reshape(len(dts), -1, PATH_BLOCK, config.m_noise)
            work(range(drawn.start, min(drawn.stop, n_paths)), dW)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max(1, min(threads, MAX_BLOCK_NOISE_BYTES // noise)))
    try:
        for future in [pool.submit(task, b) for b in path_blocks(n_paths, width)]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _recorded(path, times, rows, record, n_modes, sink):
    # pass ``path`` on, handing its first rows, the paths ``rows``, to
    # ``sink`` as tables in step chunks sized so that ``record`` recorded
    # paths, in however many blocks, hold at most MAX_WIDE_NOISE_BYTES
    k = max(1, MAX_WIDE_NOISE_BYTES // (record * (n_modes + 1) * 8))
    held = np.empty((min(k, len(times)), len(rows), n_modes + 1))
    for i, state in enumerate(path):
        held[i % k, :, 0] = times[i]
        held[i % k, :, 1:] = state.reshape(-1, n_modes)[: len(rows)]
        if i % k == k - 1 or i == len(times) - 1:
            for r, p in enumerate(rows):
                sink(p, held[: i % k + 1, r])
        yield state


def terminal_states(
    config, coeffs, basis, initial, n_paths, record=0, sink=None, threads=1
):
    """Terminal modal states over the blocks of ``run_blocks``, stepped on
    ``threads`` workers; the bits do not depend on ``threads``.

    Paths 0 to ``record`` - 1 are handed out as they are stepped, as rows
    (t, a_0, ..., a_{N-1}): ``sink(p, table)`` gets path p's in step chunks,
    in time order, each as long as keeps all ``record`` paths' held rows
    within ``MAX_WIDE_NOISE_BYTES``, and overwritten once ``sink`` returns.
    ``sink`` runs on the worker stepping the path, at the same time as the
    calls for paths of other blocks."""
    times, dts = time_steps(config, basis)
    out = np.empty((n_paths, config.n_modes))

    def work(rows, dW):
        path = rollout(times, dts, initial, dW, coeffs, basis)
        recorded = range(rows.start, min(rows.stop, record))
        if recorded:
            path = _recorded(path, times, recorded, record, config.n_modes, sink)
        for state in path:
            pass
        out[rows.start : rows.stop] = state.reshape(-1, config.n_modes)[: len(rows)]

    run_blocks(config, coeffs, basis, n_paths, threads, work)
    return out


def simulate_path(config, coeffs, basis, initial, rows=range(1)) -> PathRecord:
    """The trajectories of the paths ``rows``, states (steps + 1, len(rows),
    N): those rows of the ``terminal_states`` pass over paths 0 to
    rows.stop - 1, recorded as it steps them, so each is its ensemble row,
    bit for bit.  No command calls it; it is kept for the README's quick
    start and as a perfbench span target."""
    held = {p: [] for p in rows}

    def keep(p, table):
        if p in held:
            held[p].append(table[:, 1:].copy())

    terminal_states(config, coeffs, basis, initial, rows.stop, rows.stop, keep)
    states = np.stack([np.concatenate(held[p]) for p in rows], axis=1)
    return PathRecord(times=time_grid(config), states=states)


def mean_var_se(samples: np.ndarray):
    """Mean, unbiased variance and standard error of the mean over axis 0,
    reduced in index order."""
    var = samples.var(axis=0, ddof=1)
    return samples.mean(axis=0), var, np.sqrt(var / len(samples))


def ensemble_stats(
    config: SimConfig,
    coeffs: Coefficients,
    basis: EigenBasis,
    initial: np.ndarray,
    n_paths: int,
    record: int = 0,
    sink=None,
    threads: int = 1,
) -> EnsembleStats:
    """Terminal mean/variance over an ensemble, with standard errors,
    reduced in fixed path-index order; ``record``, ``sink`` and ``threads``
    as in ``terminal_states``."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    terminal = terminal_states(
        config, coeffs, basis, initial, n_paths, record, sink, threads
    )
    norm_stats = map(float, mean_var_se(np.linalg.norm(terminal, axis=1)))
    return EnsembleStats(n_paths, *mean_var_se(terminal), *norm_stats)


def spot_check_coefficients(
    coeffs: Coefficients, seed: int = 0, samples: int = 200, t_max: float = 1.0
):
    """Sample-test the declared bound K and Lipschitz constant L.

    Raises ValueError on a violated bound; a passing check is evidence,
    not proof.
    """
    rng = Generator(Philox(key=seed))
    slack = 1e-9
    for _ in range(samples):
        t = float(rng.uniform(0.0, t_max))
        x = rng.uniform(0.0, 1.0, size=4)
        u1 = rng.normal(scale=2.0, size=4)
        u2 = rng.normal(scale=2.0, size=4)
        fv1, fv2 = coeffs.f(t, x, u1), coeffs.f(t, x, u2)
        gv1, gv2 = coeffs.g(t, x, u1), coeffs.g(t, x, u2)
        if np.max(np.abs(fv1)) > coeffs.K + slack:
            raise ValueError("|f| exceeds the declared bound K")
        if np.max(np.abs(gv1)) > coeffs.K + slack:
            raise ValueError("|g| exceeds the declared bound K")
        if np.max(np.abs(np.asarray(coeffs.h(t)))) > coeffs.K + slack:
            raise ValueError("|h| exceeds the declared bound K")
        du = np.abs(u1 - u2)
        if np.any(np.abs(fv1 - fv2) > coeffs.L * du + slack) or np.any(
            np.abs(gv1 - gv2) > coeffs.L * du + slack
        ):
            if coeffs.L == 0:
                raise ValueError("f or g depends on u under a declared L = 0")
            raise ValueError("Lipschitz constant L violated on samples")


COEFFICIENT_FAMILIES = ("zero", "additive", "multiplicative", "forced")


def named_coefficients(
    name: str,
    g_scale: float = 0.2,
    h0: float = 1.0,
    h1: float = 1.0,
    f_scale: float = 1.0,
) -> Coefficients:
    """Built-in coefficient families selectable from run configurations.

    zero            f = g = 0, h = (0, 0)
    additive        f = 0, g = g_scale (constant), h = (h0, h1)
    multiplicative  f = 0, g = g_scale * sin(u), h = (h0, h1)
    forced          f = f_scale * cos(pi x), g = g_scale, h = (h0, h1)
    """
    hpair = (float(h0), float(h1))
    if name == "zero":
        return Coefficients(
            f=lambda t, x, u: 0.0,
            g=lambda t, x, u: 0.0,
            h=lambda t: (0.0, 0.0),
            K=0.0,
            L=0.0,
        )
    if name == "additive":
        return Coefficients(
            f=lambda t, x, u: 0.0,
            g=lambda t, x, u: g_scale,
            h=lambda t: hpair,
            K=max(abs(g_scale), abs(h0), abs(h1)),
            L=0.0,
        )
    if name == "multiplicative":
        return Coefficients(
            f=lambda t, x, u: 0.0,
            g=lambda t, x, u: g_scale * np.sin(u),
            h=lambda t: hpair,
            K=max(abs(g_scale), abs(h0), abs(h1)),
            L=abs(g_scale),
        )
    if name == "forced":
        return Coefficients(
            f=lambda t, x, u: f_scale * np.cos(np.pi * x),
            g=lambda t, x, u: g_scale,
            h=lambda t: hpair,
            K=max(abs(f_scale), abs(g_scale), abs(h0), abs(h1)),
            L=0.0,
        )
    raise ValueError(f"unknown coefficient family: {name!r}")
