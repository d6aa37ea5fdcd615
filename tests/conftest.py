"""Shared helpers: parameter sampling, mpmath oracles, the acceptance evolution."""

import json
import math
import time

import mpmath
import numpy as np
import pytest

from gardner5 import validate_params
from gardner5.cli import main

# criterion 4's evolution: breather (2, 1, 0.3) on 640 points over 24 pi,
# 62,500 RK4 steps of dt = 1.6e-7 to t = 0.01
ACCEPTANCE_EVOLVE = {
    "params": [2, 1, 0.3],
    "grid": [0.0, 24 * np.pi, 640],
    "t_end": 0.01,
    "dt": 1.6e-7,
    "diagnostics_every": 12500,
}


def random_valid_params(rng, mu_zero=False):
    """Random tuple with Delta bounded away from zero.

    mu is capped at 0.45 * sqrt(alpha^2 + beta^2), keeping Delta >= 0.19
    (alpha^2 + beta^2); 2 mu > alpha (phase-winding regime for the arctan
    branch) is deliberately reachable.
    """
    alpha = float(rng.uniform(0.6, 4.0))
    beta = float(rng.uniform(0.3, 3.0))
    if mu_zero:
        mu = 0.0
    else:
        mu = float(rng.uniform(0.0, 1.0) ** 2 * 0.45 * math.hypot(alpha, beta))
    x1 = float(rng.uniform(-3.0, 3.0))
    x2 = float(rng.uniform(-3.0, 3.0))
    return validate_params(alpha, beta, mu, x1, x2)


def mp_breather(params, t, x, dps=50, mu4_scale=1):
    """Arbitrary-precision (G, F, B) via the closed forms.

    `mu4_scale` multiplies the -30 mu^4 term of both phase velocities, so a
    test can check that an oracle notices a wrong velocity.
    """
    with mpmath.workdps(dps):
        al, be, mu = mpmath.mpf(params.alpha), mpmath.mpf(params.beta), mpmath.mpf(params.mu)
        x1, x2 = mpmath.mpf(params.x1), mpmath.mpf(params.x2)
        t = mpmath.mpf(t)
        x = mpmath.mpf(x)
        a2, b2, m2 = al**2, be**2, mu**2
        delta = a2 + b2 - 4 * m2
        m4 = 30 * m2**2 * mu4_scale
        d5 = -(a2**2) + 10 * a2 * b2 - 5 * b2**2 + 10 * (a2 - 3 * b2) * m2 - m4
        g5 = -(b2**2) + 10 * a2 * b2 - 5 * a2**2 + 10 * (3 * a2 - b2) * m2 - m4
        a = al * (x + d5 * t + x1)
        z = be * (x + g5 * t + x2)
        sab = mpmath.sqrt(a2 + b2)
        sD = mpmath.sqrt(delta)
        ez = mpmath.exp(z)
        G = be * sab / (al * sD) * mpmath.sin(a) - 2 * mu * be * ez / delta
        F = mpmath.cosh(z) - 2 * mu * be * (al * mpmath.cos(a) - be * mpmath.sin(a)) / (al * sab * sD)
        Gx = be * sab / sD * mpmath.cos(a) - 2 * mu * b2 * ez / delta
        Fx = be * mpmath.sinh(z) + 2 * mu * be * (al * mpmath.sin(a) + be * mpmath.cos(a)) / (sab * sD)
        B = 2 * (Gx * F - Fx * G) / (F**2 + G**2)
        return G, F, B


def mp_breather_value(params, t, x, dps=50):
    return float(mp_breather(params, t, x, dps)[2])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def acceptance_evolution(tmp_path_factory):
    """ACCEPTANCE_EVOLVE run once through `gardner5 evolve`.

    Returns the exit code, the parsed diagnostics.json and the run's wall
    time in seconds, so tests sharing the run can still gate its cost.
    """
    out = tmp_path_factory.mktemp("acceptance_evolution")
    config = out / "evolve.json"
    config.write_text(json.dumps(ACCEPTANCE_EVOLVE))
    t0 = time.time()
    rc = main(["evolve", "--config", str(config), "--out", str(out)])
    seconds = time.time() - t0
    return rc, json.loads((out / "diagnostics.json").read_text()), seconds
