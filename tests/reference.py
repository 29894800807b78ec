"""Test-side references that no command uses.

``dirichlet_gap`` takes the Dirichlet gap that contains an eigenvalue, the
reference for the gaps the package assigns by rank through the counting
rule.  ``characteristic_determinant`` is the unregularized characteristic
function of the coupled operator, the reference the root solve and
``characteristic_regularized`` are checked against.  ``spot_check_coefficients``
samples a coefficient family against the bound K on |f|, |g| and |h| that
the paper's hypotheses state, and against the family's declared Lipschitz
constant L, whose ``L == 0`` contract the stepper relies on.
"""

import math

import numpy as np
from numpy.random import Generator, Philox

from dynbc.errors import DomainError

_POLE_RTOL = 1e-13
_DIRICHLET_RTOL = 1e-9


class PoleError(Exception):
    """Characteristic determinant evaluated at a pole (lambda = -b0 or -b1)."""


class DirichletPointError(Exception):
    """Characteristic determinant evaluated at a Dirichlet eigenvalue -pi^2 k^2."""


def dirichlet_gap(lam: float) -> tuple[int, float, float]:
    """Index k and endpoints of the Dirichlet gap containing ``lam``."""
    if lam >= 0.0:
        raise DomainError("eigenvalues are negative")
    k = int(math.floor(math.sqrt(-lam) / math.pi))
    return k, -math.pi**2 * (k + 1) ** 2, -math.pi**2 * k**2


def characteristic_determinant(lam: float, params) -> float:
    """Scalar characteristic function whose negative roots are eigenvalues.

    Continuous on each pole-free interval; poles sit at -b0, -b1 and (for
    lam < 0) at the Dirichlet points -pi^2 k^2.  Strictly positive for
    lam > 0, so the spectrum is negative.
    """
    b0, b1 = params.b0, params.b1
    ptol = _POLE_RTOL * (1.0 + abs(lam))
    if abs(lam + b0) <= ptol or abs(lam + b1) <= ptol:
        raise PoleError(f"lambda={lam} is a pole (-b0 or -b1)")
    if lam == 0.0:
        # analytic limit: sqrt(-lam)*cot(sqrt(-lam)) -> 1
        return 1.0 + 1.0 / b0 + 1.0 / b1
    if lam < 0.0:
        s = math.sqrt(-lam)
        k = round(s / math.pi)
        if k >= 1 and abs(s - k * math.pi) <= _DIRICHLET_RTOL * (1.0 + s):
            raise DirichletPointError(f"lambda={lam} is a Dirichlet point")
        cot = math.cos(s) / math.sin(s)
        return (
            1.0
            + s * cot * (1.0 / (lam + b0) + 1.0 / (lam + b1))
            + lam / ((lam + b0) * (lam + b1))
        )
    # lam > 0: exponential form, arranged with exp(-2 sqrt(lam)) so that it
    # stays finite for large lam (the raw (1+e^{2r})/(e^{2r}-1) overflows)
    r = math.sqrt(lam)
    em = math.exp(-2.0 * r)
    ratio = (1.0 + em) / (1.0 - em)
    return (
        1.0
        + r * ratio * (1.0 / (b0 + lam) + 1.0 / (b1 + lam))
        + lam / ((b0 + lam) * (b1 + lam))
    )


def spot_check_coefficients(
    coeffs, K: float, seed: int = 0, samples: int = 200, t_max: float = 1.0
):
    """Sample-test the bound ``K`` on |f|, |g| and |h| and the declared
    Lipschitz constant ``coeffs.L``.

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
        if np.max(np.abs(fv1)) > K + slack:
            raise ValueError("|f| exceeds the declared bound K")
        if np.max(np.abs(gv1)) > K + slack:
            raise ValueError("|g| exceeds the declared bound K")
        if np.max(np.abs(np.asarray(coeffs.h(t)))) > K + slack:
            raise ValueError("|h| exceeds the declared bound K")
        du = np.abs(u1 - u2)
        if np.any(np.abs(fv1 - fv2) > coeffs.L * du + slack) or np.any(
            np.abs(gv1 - gv2) > coeffs.L * du + slack
        ):
            if coeffs.L == 0:
                raise ValueError("f or g depends on u under a declared L = 0")
            raise ValueError("Lipschitz constant L violated on samples")
