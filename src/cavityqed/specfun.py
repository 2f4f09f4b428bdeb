"""Stable special functions and spherical-harmonic basis machinery.

Radial solutions regular at the origin are J_{l+1/2}(kr)/sqrt(kr), tabulated
for every l at once by radial_bessel_table, with recurrences that stay
accurate deep into the evanescent regime (l >> kr).
Spherical harmonics are normalized to unit mean square over the sphere,
<|Y_lm|^2> = 1 under the measure dOmega/4pi, i.e. sqrt(4pi) times the usual
orthonormal harmonics. That convention makes Parseval sums read directly as
angular averages and is used consistently everywhere in the package. No
harmonic is formed on its own: Y_lm(theta, phi) = P_lm(cos theta) e^{i m phi}
for m >= 0 and Y_{l,-m} = (-1)^m conj(Y_lm). P_lm comes from one recurrence
in l, _legendre: over a range of m at many nodes at once for the operator
blocks, and over every m at one point for the focused-wave input.

The focused-wave input at a point is real and free of the point's azimuth:
with v[|m|, l] = sqrt(pi/2) u_l(kr) P_lm(cos theta_r), the coefficient of
Y_{l,+-m} is (-i)^l v[|m|, l] times a unit phase of the block. Coefficients
are stored [|m|, l]: row |m| is block |m|, zero for l < |m|, and a point on
the axis has the row m = 0 alone. _focused_input returns v, which the
operator route solves and evaluates; plane_wave_coeffs is its complex view,
with the phases. Off the axis v stops at the input's reach in l and |m|.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .structures import AngularFunction, FieldPoint, TruncationWarning

__all__ = [
    "radial_bessel_table",
    "legendre_table",
    "plane_wave_coeffs",
    "SQRT_2_OVER_PI",
    "TAIL_TOL",
]

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_RESCALE = 1e250
# the default truncation-tail tolerance of plane_wave_coeffs, and so of
# enhancement_full and of a scenario's numerics.tail_tol
TAIL_TOL = 1e-8
# share of the input energy that the cut above a point's reach, and the
# skipped |m| pairs of enhancement_full, may each add to a full-route value
_SKIP_FLOOR = 1e-16


def _ratio_cf(l: int, x: float) -> float:
    """Ratio j_l(x)/j_{l-1}(x) of spherical Bessel functions by the
    continued fraction r_l = 1/(b_l - 1/(b_{l+1} - ...)), b_n = (2n+1)/x,
    evaluated with the modified Lentz algorithm until a factor is within
    1e-16 of 1."""
    tiny = 1e-300
    max_iter = int(10 * x) + 2000
    b = (2 * l + 1) / x
    f = b if b != 0.0 else tiny
    c, d = f, 0.0
    for k in range(1, max_iter):
        b = (2 * (l + k) + 1) / x
        d = b - d
        if d == 0.0:
            d = tiny
        c = b - 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return 1.0 / f
    raise RuntimeError(f"Bessel ratio CF did not converge for l={l}, x={x}")


def radial_bessel_table(l_max: int, kr: float) -> np.ndarray:
    """J_{l+1/2}(kr)/sqrt(kr) for every l = 0..l_max at fixed kr >= 0.

    For kr > l_max the upward recurrence is stable and used directly.
    Below kr = 1e-8, the origin included, the leading series term
    x^l/(2l+1)!! is exact to rounding (the next is x^2/(4l+6) smaller), and
    the downward recurrence, whose factors (2l+1)/x overflow there, is not
    used. Otherwise the table is generated downward from a continued-fraction
    seed at l_max and normalized against the l = 0 (or, near its zeros,
    l = 1) closed form. Values below the double-precision floor underflow to
    zero, which is the correct limit in the deep evanescent regime.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be nonnegative, got {l_max}")
    if kr < 0:
        raise ValueError(f"kr must be nonnegative, got {kr}")
    # the recurrences run on Python floats, which round exactly as float64
    # does but cost a fraction of a numpy scalar operation; one conversion
    x = float(kr)
    out = [0.0] * (l_max + 1)
    if x < 1e-8:
        out[0] = 1.0
        for l in range(1, l_max + 1):
            out[l] = out[l - 1] * x / (2 * l + 1)
            if out[l] == 0.0:
                break  # every later term is zero as well, as at the origin
        return SQRT_2_OVER_PI * np.array(out)
    j0 = math.sin(x) / x
    if l_max == 0:
        out[0] = j0
        return SQRT_2_OVER_PI * np.array(out)
    j1 = j0 / x - math.cos(x) / x
    if x > l_max:
        out[0], out[1] = j0, j1
        for l in range(1, l_max):
            out[l + 1] = (2 * l + 1) / x * out[l] - out[l - 1]
        return SQRT_2_OVER_PI * np.array(out)
    ratio = _ratio_cf(l_max, x)
    out[l_max] = 1.0
    out[l_max - 1] = 1.0 / ratio if ratio != 0.0 else 1.0 / 1e-300
    shrink = 1.0 / _RESCALE
    for l in range(l_max - 1, 0, -1):
        out[l - 1] = (2 * l + 1) / x * out[l] - out[l + 1]
        if abs(out[l - 1]) > _RESCALE:
            # keep the growing minimal solution in range; the rescaled-away
            # top of the table is super-exponentially small and flushes to 0
            out[l - 1 :] = [v * shrink for v in out[l - 1 :]]
    table = np.array(out)
    scale = j0 / table[0] if abs(j0) >= abs(j1) else j1 / table[1]
    table *= scale
    return SQRT_2_OVER_PI * table


def legendre_table(l_max: int, m: int, x) -> np.ndarray:
    """Normalized associated Legendre values for l = m..l_max at points x.

    Returns an array of shape (len(x), l_max - m + 1) with column i holding
    l = m + i. Normalization satisfies (1/2) * int_{-1}^{1} P_lm(x)^2 dx = 1,
    matching the unit-mean-square harmonics; the Condon-Shortley sign is
    included. The three-term recurrence in l at fixed m is stable to degrees
    of at least several hundred. The array is a transposed view, in Fortran
    order, of the recurrence's [l, m, point] storage.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative here, got {m}")
    if l_max < m:
        raise ValueError(f"l_max={l_max} smaller than m={m}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    return _legendre(l_max, m, m, x)[:, 0].T


_COLUMNS: list[tuple[np.ndarray, np.ndarray]] = []


def _column_coefficients(l_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The coefficients a and b of the recurrence in l for each l = 2..l_max,
    as rows over m = 0..l-2. Rows do not depend on l_max, so one table serves
    every l_max; it grows by a copy, so no list is grown by two callers."""
    global _COLUMNS
    rows = _COLUMNS
    if len(rows) < l_max - 1:
        rows = _COLUMNS = list(rows)
        m_sq = np.arange(l_max) ** 2
        for l in range(len(rows) + 2, l_max + 1):
            mm = m_sq[: l - 1]
            a = np.sqrt((4 * l * l - 1) / (l * l - mm))
            b = np.sqrt(((l - 1) ** 2 - mm) / (4 * (l - 1) ** 2 - 1))
            a.flags.writeable = b.flags.writeable = False
            rows.append((a, b))
    return rows[: max(0, l_max - 1)]


def _legendre(l_max: int, m_lo: int, m_hi: int, x) -> np.ndarray:
    """P_lm(x) for every m = m_lo..m_hi <= l_max at x, a 1-D array of nodes
    or one Python float: entry [l - m_lo, m - m_lo, i] is P_lm(x[i]), or
    [l - m_lo, m - m_lo] at the one point, for l >= m, zero for l < m.

    P_mm, the running product over k = 1..m of -sqrt(1 - x^2) times
    sqrt((2k+1)/2k), is one cumulative product over m = 0..m_hi cut to
    m_lo..m_hi; P_{m+1,m} = sqrt(2m+3) x P_mm, and every later l is one
    step of P_lm = a (x P_{l-1,m} - b P_{l-2,m}) for all m and x at once.
    The steps broadcast over the shape of x: a float gets the values of
    the array [x] bit for bit."""
    n_m = m_hi - m_lo + 1
    span = (None,) * np.ndim(x)
    out = np.zeros((l_max - m_lo + 1, n_m) + np.shape(x))
    k = np.arange(1, m_hi + 1)
    diag = np.empty((m_hi + 1,) + np.shape(x))
    diag[0] = 1.0
    np.multiply(np.sqrt((2 * k + 1) / (2 * k))[(slice(None),) + span],
                -np.sqrt(np.maximum(0.0, 1.0 - x * x)), out=diag[1:])
    diag = np.cumprod(diag, axis=0, out=diag)[m_lo:]
    j = np.arange(n_m)
    out[j, j] = diag
    j = j[: l_max - m_lo]  # the m < l_max, which have a row l = m + 1
    out[j + 1, j] = np.sqrt(2 * (m_lo + j) + 3)[(slice(None),) + span] * x * diag[j]
    mul, sub = np.multiply, np.subtract
    for l, (a, b) in enumerate(_column_coefficients(l_max)[m_lo:], start=m_lo + 2):
        r, w = l - m_lo, min(l - 1 - m_lo, n_m)  # the m < l - 1 are w columns
        c = (slice(m_lo, m_lo + w),) + span
        row = out[r, :w]
        mul(x, out[r - 1, :w], out=row)
        sub(row, mul(b[c], out[r - 2, :w]), out=row)
        mul(a[c], row, out=row)
    return out


@functools.lru_cache(maxsize=4)
def _phases(l_max: int) -> np.ndarray:
    """(-i)^l for l = 0..l_max, exact (numpy's complex power is not, from
    l = 100 on)."""
    phase = np.array([1.0, -1.0j, -1.0, 1.0j])[np.arange(l_max + 1) % 4]
    phase.flags.writeable = False
    return phase


def _warn_tail(tail: float, tail_tol: float, kr: float, l_max: int, stacklevel: int):
    """TruncationWarning when tail exceeds tail_tol, attributed to the frame
    that stacklevel, counted from here, names."""
    if tail > tail_tol:
        warnings.warn(f"truncation tail {tail:.3e} exceeds {tail_tol:.1e} for kr={kr:.6g} "
                      f"at l_max={l_max}; increase l_max", TruncationWarning,
                      stacklevel=stacklevel)


def _focused_input(point: FieldPoint, l_max: int, tail_tol: float = TAIL_TOL,
                   gain: float = math.inf):
    """The real input v[|m|, l] = sqrt(pi/2) u_l(kr) P_lm(cos theta_r),
    zero for l < |m|, its truncation tail and the bound of its cut. Row |m|
    is the input of block |m|; on the axis v holds the row m = 0 alone,
    where P_l0 is sqrt(2l+1) times (sign of kz)^l, and the origin, whose
    input is l = 0 alone, takes either sign. v depends on the point through
    kr and theta_r alone: plane_wave_coeffs adds the phases.

    The tail is the input energy e_l = (pi/2)(2l+1) u_l^2 of the last five
    l; above tail_tol it warns (TruncationWarning, _warn_tail), attributed
    to the caller of plane_wave_coeffs. Off the axis v stops at its
    reach, the first l whose energy beyond, E_d, of E in all, bounds the cut
    by gain (2 sqrt(E E_d) + E_d) <= _SKIP_FLOOR E, the most it can move a
    form x^H K x with ||K|| <= gain, and holds the rows |m| <= reach alone;
    an infinite gain cuts none."""
    u = radial_bessel_table(l_max, point.kr)
    ls = np.arange(l_max + 1)
    energy = (math.pi / 2.0) * (2 * ls + 1) * u**2
    tail = float(np.sum(energy[max(0, l_max - 4):]))
    _warn_tail(tail, tail_tol, point.kr, l_max, stacklevel=4)
    weights = _SQRT_PI_OVER_2 * u
    if point.on_axis:
        sign = 1.0 if point.kvec[2] > 0 else -1.0
        return (weights * (np.sqrt(2 * ls + 1) * sign**ls))[None], tail, 0.0
    reach, cut = l_max, 0.0
    if gain < math.inf:
        beyond = np.append(np.cumsum(energy[:0:-1])[::-1], 0.0)  # energy above each l
        total = beyond[0] + energy[0]
        bounds = gain * (2.0 * np.sqrt(total * beyond) + beyond)
        # bounds fall with l, so the l that keep too little are a prefix
        reach = int(np.count_nonzero(bounds > _SKIP_FLOOR * total))
        cut = float(bounds[reach])
    cos_theta = math.cos(math.acos(min(1.0, max(-1.0, point.kvec[2] / point.kr))))
    v, n = np.zeros((reach + 1, l_max + 1)), reach + 1
    np.multiply(_legendre(reach, 0, reach, cos_theta).T, weights[:n], out=v[:, :n])
    return v, tail, cut


def plane_wave_coeffs(
    point: FieldPoint, l_max: int, *, tail_tol: float = TAIL_TOL
) -> AngularFunction:
    """Harmonic coefficients of the focused-wave kernel exp(-i k Omega.r).

    The coefficient of Y_{l,m}(Omega) is
    (-i)^l sqrt(pi/2) * u_l(kr) * conj(Y_{l,m}(rhat)), with u_l(kr) =
    J_{l+1/2}(kr)/sqrt(kr) the entry l of radial_bessel_table: the complex
    view (-i)^l v e^{-+i m phi_r} of _focused_input's v, with
    conj(Y_{l,-m}) = (-1)^m Y_{l,m} on the -m plane.

    The squared coefficient norm tends to 1 from below as l_max grows
    (the kernel has unit modulus); the energy left in the last five l
    values is reported as the truncation tail and triggers a
    TruncationWarning above tail_tol.
    """
    v, tail, _ = _focused_input(point, l_max, tail_tol)
    m = np.arange(v.shape[0])
    turn = np.exp(-1j * m * math.atan2(point.kvec[1], point.kvec[0]))[:, None]
    c = _phases(l_max) * v
    coeffs = np.empty((2,) + v.shape, dtype=complex)
    np.multiply(c, turn, out=coeffs[0])
    np.multiply(c, (1 - 2 * (m % 2))[:, None] * np.conj(turn), out=coeffs[1])
    coeffs[1, 0] = 0.0
    return AngularFunction(l_max=l_max, coeffs=coeffs, truncation_tail=tail)
