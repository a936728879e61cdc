"""Reference values computed with scipy, independent of bridgepot's code.

Potentials are described here in their own terms, never through
bridgepot's profile reductions:

* ``balls``: a same-sign sum of centred ball indicators, as a list of
  (radius, |amplitude|).  Because the signs agree, |V| is the sum of the
  |amplitude| indicators, so every oracle below is linear in the list.
* ``shell``: (exponent, inner, outer, |amplitude|) for |a| r^p on
  inner <= r <= outer.

Bridge oracles use the noncentral chi-squared law: for Z ~ N(m, s^2 I_d),
|Z|^2 / s^2 ~ ncx2(d, |m|^2 / s^2).  The kernel-transform oracle for a ball
in d = 3 integrates the elementary ray integral over the sphere of
directions with ``scipy.integrate.dblquad``.

The runner computes the values in a child process, so scipy.stats and
scipy.integrate stay out of the process it measures:

    echo '{"key": ["bridge_potential", [["balls", [[1, 1]]], 1.0, [0, 0, 0], [1, 0, 0]]]}' \
        | python3 bench/oracles.py

reads ``{key: [function, arguments]}`` as JSON and prints ``{key: value}``.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy import integrate
from scipy.stats import ncx2

_GL = np.polynomial.legendre.leggauss(64)
_QUAD = dict(epsabs=0.0, epsrel=1e-11, limit=400)


# --------------------------------------------------------------------------
# Gaussian means of |V|
# --------------------------------------------------------------------------


def ball_mass(R: float, mu: float, sigma: float, d: int) -> float:
    """P(|Z| <= R) for Z ~ N(m, sigma^2 I_d), |m| = mu."""
    if sigma <= 1e-150 * (mu + R + 1.0):
        return 1.0 if mu <= R else 0.0
    return float(ncx2.cdf((R / sigma) ** 2, d, (mu / sigma) ** 2))


def shell_mean(shell, mu: float, sigma: float) -> float:
    """E |V|(|Z|) for the d = 3 shell profile, by the ncx2 density of |Z|^2.

    The density of |Z| at r is ncx2.pdf(r^2/sigma^2, 3, mu^2/sigma^2) 2r/sigma^2;
    it is integrated with a 64-point Gauss rule on each side of mu over the
    window mu +- 12 sigma clipped to the shell.
    """
    p, r_in, r_out, amp = shell
    if sigma <= 1e-150 * (mu + 1.0):
        return amp * mu**p if r_in <= mu <= r_out else 0.0
    lo = max(r_in, mu - 12.0 * sigma)
    hi = min(r_out, mu + 12.0 * sigma)
    if hi <= lo:
        return 0.0
    nodes, weights = _GL
    total = 0.0
    mid = min(max(mu, lo), hi)
    for a, b in ((lo, mid), (mid, hi)):
        if b <= a:
            continue
        r = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        dens = ncx2.pdf((r / sigma) ** 2, 3, (mu / sigma) ** 2) * 2.0 * r / sigma**2
        total += 0.5 * (b - a) * float(np.sum(weights * amp * r**p * dens))
    return total


def gaussian_mean(potential, mu: float, sigma: float, d: int) -> float:
    kind, data = potential
    if kind == "balls":
        return sum(amp * ball_mass(R, mu, sigma, d) for R, amp in data)
    if d != 3:
        raise ValueError("the shell oracle is for d = 3")
    return shell_mean(data, mu, sigma)


def _radii(potential) -> list[float]:
    kind, data = potential
    return [R for R, _ in data] if kind == "balls" else [data[1], data[2]]


def _crossings(a: np.ndarray, b: np.ndarray, t: float, radii) -> list[float]:
    """Times s in (0, t) where |a + (s/t)(b - a)| equals one of the radii."""
    out = []
    for R in radii:
        for s in np.roots([np.dot(b - a, b - a) / t**2, 2 * np.dot(a, b - a) / t, np.dot(a, a) - R * R]):
            if abs(s.imag) < 1e-12 and 0.0 < s.real < t:
                out.append(float(s.real))
    return sorted(out)


def _quad(f, lo: float, hi: float, points) -> float:
    pts = [p for p in points if lo < p < hi]
    return integrate.quad(f, lo, hi, points=pts or None, **_QUAD)[0]


def bridge_potential(potential, t: float, x, y) -> float:
    """S(V, t, x, y) = int_0^t E|V|(Z_s) ds, Z_s the bridge marginal."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.size

    def g(s: float) -> float:
        mu = float(np.linalg.norm(x + (s / t) * (y - x)))
        return gaussian_mean(potential, mu, math.sqrt(2.0 * s * (t - s) / t), d)

    return _quad(g, 0.0, t, _crossings(x, y, t, _radii(potential)) + [t / 2.0])


def two_sided(potential, t: float, x, y) -> float:
    """N(V, t, x, y): centres y - (tau/t)(y - x), variance 2 tau then 2 (t - tau)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.size
    cross = _crossings(y, x, t, _radii(potential))

    def centre(tau: float) -> float:
        return float(np.linalg.norm(y - (tau / t) * (y - x)))

    first = _quad(
        lambda tau: gaussian_mean(potential, centre(tau), math.sqrt(2.0 * tau), d),
        0.0, t / 2.0, cross,
    )
    second = _quad(
        lambda tau: gaussian_mean(potential, centre(tau), math.sqrt(2.0 * (t - tau)), d),
        t / 2.0, t, cross,
    )
    return (4.0 * math.pi) ** (d / 2.0) * (first + second)


def trapezoid_bridge_potential(potential, t: float, x, y, steps: int) -> float:
    """Expectation of the trapezoid occupation sum on a uniform grid of steps.

    By linearity this is the trapezoid rule applied to s -> E|V|(Z_s), so a
    Monte Carlo estimate of the trapezoid sum is unbiased for it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.size
    dt = t / steps
    total = 0.0
    for i in range(steps + 1):
        s = i * dt
        mu = float(np.linalg.norm(x + (s / t) * (y - x)))
        var = 2.0 * s * (t - s) / t if 0 < i < steps else 0.0
        w = 0.5 if i in (0, steps) else 1.0
        total += w * gaussian_mean(potential, mu, math.sqrt(var), d)
    return dt * total


# --------------------------------------------------------------------------
# The kernel transform of a ball in d = 3
# --------------------------------------------------------------------------


def _ray_moment(c: float, s: float) -> float:
    """int_0^s u e^{-c u} du, stable as c s -> 0."""
    u = c * s
    if u < 0.05:
        phi = 0.5 - u / 3.0 + u * u / 8.0 - u**3 / 30.0 + u**4 / 144.0
    else:
        phi = (-math.expm1(-u) - u * math.exp(-u)) / (u * u)
    return s * s * phi


def k_transform_ball_d3(R: float, amp: float, x, y) -> float:
    """K(V, x, y) for V = amp 1{|z| <= R} in d = 3, y != 0.

    In d = 3, k0(w, y) = exp(-(|w||y| - w.y)/2) / |w|.  Along the ray
    z = x + s w (|w| = 1) the volume element s^2 ds turns the integrand
    into s exp(-c s) with c = (|y| - w.y)/2, integrated in closed form over
    the chord of the ball.  The remaining direction integral puts its pole
    on -x, so the chord depends on the polar angle alone and the rays that
    miss the ball are cut off at a fixed polar angle.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ny = float(np.linalg.norm(y))
    nx = float(np.linalg.norm(x))
    pole = -x / nx if nx > 0.0 else y / ny
    y_par = float(np.dot(y, pole))
    y_perp = float(np.linalg.norm(y - y_par * pole))
    theta_max = math.pi if nx < R else math.asin(R / nx)

    def chord(phi: float, theta: float) -> float:
        ct, st = math.cos(theta), math.sin(theta)
        b = -nx * ct
        root = math.sqrt(max(R * R - (nx * st) ** 2, 0.0))
        hi = max(-b + root, 0.0)
        lo = max(-b - root, 0.0)
        c = 0.5 * (ny - y_par * ct - y_perp * st * math.cos(phi))
        return (_ray_moment(c, hi) - _ray_moment(c, lo)) * st

    val, _ = integrate.dblquad(chord, 0.0, theta_max, 0.0, math.pi, epsabs=0.0, epsrel=1e-11)
    # the azimuth in (pi, 2 pi) mirrors (0, pi)
    return 2.0 * abs(amp) * val


def k_transform_d3(potential, x, y) -> float:
    """K(V, x, y) in d = 3 for a same-sign sum of balls, y != 0."""
    kind, data = potential
    if kind != "balls":
        raise ValueError("the kernel-transform oracle is for balls")
    return sum(k_transform_ball_d3(R, amp, x, y) for R, amp in data)


ENTRY_POINTS = {f.__name__: f for f in (bridge_potential, two_sided, trapezoid_bridge_potential, k_transform_d3)}


def main() -> None:
    requests = json.load(sys.stdin)
    json.dump({key: ENTRY_POINTS[f](*args) for key, (f, args) in requests.items()}, sys.stdout)


if __name__ == "__main__":
    main()
