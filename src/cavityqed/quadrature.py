"""Angular quadrature over the sphere and a principal-value integration engine.

The sphere is integrated in cos(theta) on the AngularGrid of polar_rule:
one Gauss-Legendre rule on each segment between the mirror edges, where
integrands jump (_panel_rule, which pv_integrate shares). The operator
blocks are assembled on it (wave_ops.operator_grid); the ray route adds a
uniform azimuth (ray_model.ray_integration_nodes). Weights carry the
dOmega/4pi measure, so integrating the constant 1 gives exactly 1.

The Gauss-Legendre rule on [-1, 1] is computed here, by Newton's method on
the three-term Legendre recurrence started from Tricomi's asymptotic nodes
(Hale & Townsend, SIAM J. Sci. Comput. 35, A652, 2013). Each order is
built alone when it is first asked for, and the 256 most recently used
are kept as read-only arrays. Importing this module loads no scipy module; only
pv_integrate imports scipy.special, for digamma, when it is called.
pv_integrate runs one fixed configuration, the one the airy-check scan
runs; only the period and the refine points are arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AngularGrid",
    "cap_edges",
    "polar_rule",
    "pv_integrate",
    "PVResult",
    "PVConvergenceError",
]


class PVConvergenceError(RuntimeError):
    """Principal-value integral failed to reach its tolerance."""


@dataclass(frozen=True)
class AngularGrid:
    """The grid of polar_rule: polar quadrature nodes under the dOmega/4pi
    measure of an integrand that does not depend on the azimuth, ascending
    in mu = cos(theta) (sum of w_theta is 1), and the sorted theta edges at
    which the rule was split."""

    theta: np.ndarray
    mu: np.ndarray
    w_theta: np.ndarray
    edges: tuple[float, ...]


@functools.lru_cache(maxsize=256)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], as read-only
    arrays shared by every caller of the same order.

    Newton's method from Tricomi's nodes runs on the nonnegative half of
    the nodes only; the rule is mirrored from it, so it is exactly
    symmetric. The weights are 2/((1 - x^2) P_n'(x)^2), normalized to sum
    to 2.
    """
    n = int(order)
    if n != order or n < 1:
        raise ValueError(f"Gauss-Legendre order must be a positive integer, got {order}")
    k = np.arange(1, n // 2 + n % 2 + 1)
    t = (4 * k - 1) * math.pi / (4 * n + 2)
    x = np.cos(t) * (1.0 - (n - 1) / (8.0 * n**3)
                     - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n**4))
    if n % 2:
        x[-1] = 0.0
    # Newton converges quadratically from these guesses: its third correction
    # is at rounding level for n >= 47, its fourth for smaller n
    for _ in range(6):
        p, dp = _legendre_with_derivative(n, x)
        updated = x - p / dp
        moved, x = x - updated, updated
        if np.max(np.abs(moved)) <= 4.0 * np.finfo(float).eps:
            break
    # carry P_n' over the last move with P_n'' from Legendre's equation: near
    # x = 1 the weights are 2x/(1 - x^2) times as sensitive as the nodes
    dp -= moved * (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate((-x, x[::-1][n % 2:]))
    weights = np.concatenate((w, w[::-1][n % 2:]))
    weights *= 2.0 / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _legendre_with_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the recurrence
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}, for |x| < 1."""
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        p_prev *= -k / (k + 1)
        p_prev += ((2 * k + 1) / (k + 1)) * x * p
        p_prev, p = p, p_prev
    return p, n * (p_prev - x * p) / (1.0 - x * x)


def _panel_rule(lo: np.ndarray, hi: np.ndarray, order: int):
    """The Gauss-Legendre rule of the given order mapped onto every panel
    [lo_i, hi_i]: nodes and weights 0.5 (hi - lo) w, panel after panel."""
    xs, ws = _gauss_legendre(order)
    half = 0.5 * (hi - lo)[:, None]
    return (half * xs + 0.5 * (lo + hi)[:, None]).ravel(), (half * ws).ravel()


def polar_rule(theta_edges, order: int) -> AngularGrid:
    """Polar grid: Gauss-Legendre nodes of the given order in mu = cos(theta)
    on each segment between the sorted theta_edges, theta = arccos(mu).

    The weights carry the polar half of the dOmega/4pi measure: sum(w_theta)
    = 1 over the full sphere. The arrays are fresh on every call.
    """
    if order < 2:
        raise ValueError(f"polar order must be >= 2, got {order}")
    edges = np.sort(np.asarray(theta_edges, dtype=float))
    if edges.size and (edges[0] <= 0.0 or edges[-1] >= math.pi):
        raise ValueError("theta edges must lie strictly inside (0, pi)")
    mus = np.concatenate(([-1.0], np.cos(edges)[::-1], [1.0]))
    if np.any(np.diff(mus) <= 0.0):
        raise ValueError("degenerate segment: repeated theta edge")
    mu, w = _panel_rule(mus[:-1], mus[1:], order)
    w *= 0.5  # the polar half of the dOmega/4pi measure
    return AngularGrid(theta=np.arccos(np.clip(mu, -1.0, 1.0)), mu=mu, w_theta=w,
                       edges=tuple(float(e) for e in edges))


def cap_edges(theta_1: float, theta_2: float) -> list[float]:
    """Sorted polar edges of two mirror caps, of half-aperture theta_1 around
    theta = 0 and theta_2 around theta = pi. A cap so narrow that the cosine
    of its edge rounds to +-1 covers no solid angle in floating point and
    gives no edge (a zero half-aperture is the absent mirror)."""
    return sorted({e for e in (theta_1, math.pi - theta_2) if -1.0 < math.cos(e) < 1.0})


@dataclass(frozen=True)
class PVResult:
    value: float
    error: float
    n_nodes: int


# the one configuration of pv_integrate (see its docstring)
_PV_PERIODS = 2048
_PV_ORDER = 16
_PV_SUBPANELS = 8
_PV_REFINE_LEVELS = 14
_PV_TOL = 1e-6


def _pv_panels(period, refine_points):
    edges = set(np.linspace(0.0, period, _PV_SUBPANELS + 1))
    for p in refine_points:
        p = p % period
        h = period / _PV_SUBPANELS / 2.0
        for _ in range(_PV_REFINE_LEVELS):
            for e in (p - h, p + h):
                if 0.0 < e < period:
                    edges.add(e)
            h /= 2.0
        if 0.0 < p < period:
            edges.add(p)
    return np.array(sorted(edges))


def pv_integrate(kernel, *, period: float = math.pi, refine_points=()) -> PVResult:
    """Principal value of the integral of kernel(d)/d over the real line.

    kernel must be a vectorized function periodic with the given period and
    with zero mean over one period (both hold for resonance-line kernels).
    The pole at d = 0 is removed by the odd-part pairing
    (kernel(d) - kernel(-d))/d, the first period is split into 8 panels,
    halved 14 times toward each of the caller-supplied refine_points (e.g.
    resonance peaks), and integrated with a 16-node Gauss-Legendre rule per
    panel, and every later period reuses the same kernel values reweighted by
    1/(d + n*period); the reweighted sums over the first N periods are
    evaluated in closed form through digamma differences. Partial sums
    converge like 1/N in the period count and are accelerated by two
    Richardson extrapolation levels on the doubling ladder 256, 512, 1024,
    2048 periods. This is the one configuration that the airy-check scan
    runs.

    Raises PVConvergenceError when the error estimate, relative to
    max(1, |value|), exceeds 1e-6.
    """
    from scipy.special import digamma  # the only scipy use; kept off the import path

    edges = _pv_panels(period, refine_points)
    u, w = _panel_rule(edges[:-1], edges[1:], _PV_ORDER)
    h = np.asarray(kernel(u)) - np.asarray(kernel(-u))
    wh = w * h
    # partial sum over the first N periods reuses the same kernel values:
    # sum_{n<N} 1/(u + nP) = (psi(u/P + N) - psi(u/P)) / P
    base = digamma(u / period)
    ns = [_PV_PERIODS // 8, _PV_PERIODS // 4, _PV_PERIODS // 2, _PV_PERIODS]
    s = [float(np.dot(wh, digamma(u / period + n) - base)) / period for n in ns]
    r1 = [2.0 * s[i + 1] - s[i] for i in range(3)]
    r2 = [(4.0 * r1[i + 1] - r1[i]) / 3.0 for i in range(2)]
    value = r2[-1]
    error = abs(r2[-1] - r2[-2]) + 0.25 * abs(r2[-1] - r1[-1])
    if error > _PV_TOL * max(1.0, abs(value)):
        raise PVConvergenceError(
            f"principal-value estimate {value:.6e} has error {error:.2e} "
            f"above tolerance {_PV_TOL:.1e} after {_PV_PERIODS} periods"
        )
    return PVResult(value=float(value), error=float(error), n_nodes=u.size)
