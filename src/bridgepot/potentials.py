"""Closed-form potential algebra with symmetry, sign, and support metadata.

Potentials are built from a small set of analytic forms:

    Constant(value)                  constant on all of R^d
    BallIndicator(center, radius, amplitude)
    RadialPower(exponent, inner_radius, outer_radius, amplitude)
    CounterexampleA(z1_max)          -1/z1 on the paraboloidal region
                                     {z1 > 4, |z2| <= sqrt(z1)}, optionally
                                     truncated at z1 <= z1_max
    Dilate(s, inner)                 (dilate_s V)(z) = s V(sqrt(s) z)
    Scale(factor, inner)
    Sum(terms)

Every form carries derived symmetry (radial / axial about e1 / general),
support and ``value_range()`` metadata: an interval (lo, hi) holding every
value, from which the sign class (nonpositive when hi <= 0, nonnegative
when lo >= 0, else mixed) and ``bound_above()`` = max(hi, 0) are read off
in the base class.  The transform modules use the symmetry tag to pick a
dimension-reduced quadrature, and take |V| as the cells of
``RadialProfile.kernel_cells()`` or in (z1, rho) up to each on-axis ball's
exact chord.  Pointwise |V| on both reductions is the form's own
``_values``, at r e1 or at z1 e1 + rho e2: the profiles add only where |V|
lives (cells, ranges, rho caps and breakpoints), never a second statement
of its values.  All potentials are immutable and evaluation is pure.

The JSON wire format round-trips exactly::

    {"type": "ball", "center": [0, 0, 0], "radius": 1.0, "amplitude": -1.0}
    {"type": "counterexample_a"}
    {"type": "dilate", "s": 4.0, "inner": {...}}
    {"type": "sum", "terms": [...]}
    {"type": "radial_power", "exponent": -1.0, "inner_radius": 0.1,
     "outer_radius": 10.0, "amplitude": -1.0}
    {"type": "constant", "value": -0.5}
    {"type": "scale", "factor": 2.0, "inner": {...}}

An unbounded outer_radius is encoded as JSON null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BridgepotError, DimensionError, GeometryError
from .growth import growth_diagnosis, shell_sum, verdict_estimate
from .kernels import as_dimension
from .quadrature import (
    DEFAULT_SPEC_1D,
    Estimate,
    QuadratureSpec,
    Status,
    fold_status,
    integrate_finite,
)
from .special import ball_volume, sphere_area

__all__ = [
    "Symmetry",
    "SignClass",
    "Potential",
    "Constant",
    "BallIndicator",
    "RadialPower",
    "CounterexampleA",
    "Dilate",
    "Scale",
    "Sum",
    "evaluate",
    "evaluate_many",
    "dilate",
    "parse_potential",
    "serialize_potential",
    "radial_profile",
    "axial_profile",
    "RadialProfile",
    "AxialProfile",
    "lp_halfd_norm",
]


def _sq_norm(Z: np.ndarray, center: tuple[float, ...] | None = None) -> np.ndarray:
    """Row-wise |z - center|^2 of an (n, k) array (center None: |z|^2), with
    the bits of ``np.sum((Z - center) ** 2, axis=1)``.

    Up to 7 columns the squares are added column by column, in the order
    numpy adds them and many times faster than its short-axis reduction.
    From 8 columns on numpy's pairwise summation groups the terms
    differently, so ``np.sum`` itself is used there.
    """
    k = Z.shape[1]
    if not 0 < k < 8:
        D = Z if center is None else Z - np.asarray(center)
        return np.sum(D * D, axis=1)

    def square(j: int) -> np.ndarray:
        col = Z[:, j] if center is None else Z[:, j] - center[j]
        return col * col

    total = square(0)
    for j in range(1, k):
        total += square(j)
    return total


class Symmetry(str, Enum):
    RADIAL = "radial"
    AXIAL = "axial"  # axis of symmetry is e1 in v1
    GENERAL = "general"


class SignClass(str, Enum):
    NONPOSITIVE = "nonpositive"
    NONNEGATIVE = "nonnegative"
    MIXED = "mixed"


class Potential:
    """Base class; concrete forms are the dataclasses below."""

    @property
    def symmetry(self) -> Symmetry:
        raise NotImplementedError

    @property
    def sign(self) -> SignClass:
        lo, hi = self.value_range()
        if hi <= 0.0:
            return SignClass.NONPOSITIVE
        if lo >= 0.0:
            return SignClass.NONNEGATIVE
        return SignClass.MIXED

    def support_radius(self) -> float:
        """Radius of a ball (about the origin) containing the support; inf if unbounded."""
        raise NotImplementedError

    @property
    def is_compact(self) -> bool:
        return math.isfinite(self.support_radius())

    def dimension_hint(self) -> int | None:
        """Dimension pinned by the form (ball centers), or None if d-agnostic."""
        return None

    def value_range(self) -> tuple[float, float]:
        """(lo, hi) with lo <= V(z) <= hi everywhere; either end may be infinite."""
        raise NotImplementedError

    def bound_above(self) -> float:
        """Upper bound for V^+ = max(V, 0); +inf means the positive part is unbounded."""
        return max(self.value_range()[1], 0.0)

    def _values(self, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Potential):
    value: float

    @property
    def symmetry(self) -> Symmetry:
        return Symmetry.RADIAL

    def support_radius(self) -> float:
        return 0.0 if self.value == 0.0 else math.inf

    def value_range(self) -> tuple[float, float]:
        return self.value, self.value

    def _values(self, Z: np.ndarray) -> np.ndarray:
        return np.full(Z.shape[0], float(self.value))


@dataclass(frozen=True)
class BallIndicator(Potential):
    center: tuple[float, ...] | None
    radius: float
    amplitude: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise BridgepotError(f"ball radius must be positive, got {self.radius}")
        if self.center is not None:
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _center_norm(self) -> float:
        return 0.0 if self.center is None else float(np.linalg.norm(self.center))

    @property
    def symmetry(self) -> Symmetry:
        if self._center_norm() == 0.0:
            return Symmetry.RADIAL
        if self.center is not None and all(c == 0.0 for c in self.center[1:]):
            return Symmetry.AXIAL
        return Symmetry.GENERAL

    def support_radius(self) -> float:
        return self._center_norm() + self.radius

    def dimension_hint(self) -> int | None:
        return None if self.center is None else len(self.center)

    def value_range(self) -> tuple[float, float]:
        return min(self.amplitude, 0.0), max(self.amplitude, 0.0)

    def _values(self, Z: np.ndarray) -> np.ndarray:
        dist2 = _sq_norm(Z, self.center)
        return np.where(dist2 <= self.radius**2, self.amplitude, 0.0)


@dataclass(frozen=True)
class RadialPower(Potential):
    """amplitude * |z|^exponent on the annulus inner_radius <= |z| <= outer_radius."""

    exponent: float
    inner_radius: float
    outer_radius: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.inner_radius < 0.0:
            raise BridgepotError("inner_radius must be >= 0")
        if not (self.outer_radius > self.inner_radius):
            raise BridgepotError("outer_radius must exceed inner_radius")
        if self.exponent < 0.0 and self.inner_radius == 0.0:
            # |z|^p with p < 0 is singular at the origin; keeping the
            # singularity out of the support makes |V| locally integrable
            # in every supported dimension
            raise BridgepotError("negative exponents require inner_radius > 0")

    @property
    def symmetry(self) -> Symmetry:
        return Symmetry.RADIAL

    def support_radius(self) -> float:
        return self.outer_radius

    def value_range(self) -> tuple[float, float]:
        # r^exponent is monotone on [inner, outer]; V is 0 off the annulus
        ends = sorted((self.inner_radius**self.exponent, self.outer_radius**self.exponent))
        lo, hi = _scaled_range(self.amplitude, *ends)
        return min(lo, 0.0), max(hi, 0.0)

    def _values(self, Z: np.ndarray) -> np.ndarray:
        r = np.sqrt(_sq_norm(Z))
        inside = (r >= self.inner_radius) & (r <= self.outer_radius)
        out = np.zeros(Z.shape[0])
        # r = 0 is inside only when exponent >= 0, where 0^exponent is exact
        out[inside] = self.amplitude * r[inside] ** self.exponent
        return out


@dataclass(frozen=True)
class CounterexampleA(Potential):
    """-1/z1 on A = {z1 > 4, |z2| <= sqrt(z1)}, optionally truncated to z1 <= z1_max.

    The Newton potential of this potential stays bounded while its
    comparison-kernel norm grows like log of the truncation radius.
    """

    z1_max: float | None = None

    def __post_init__(self) -> None:
        if self.z1_max is not None and not (self.z1_max > 4.0):
            raise BridgepotError("z1_max must exceed 4")

    @property
    def symmetry(self) -> Symmetry:
        return Symmetry.AXIAL

    def support_radius(self) -> float:
        if self.z1_max is None:
            return math.inf
        # A cap {z1 <= m} fits inside the ball of radius sqrt(m^2 + m)
        return math.sqrt(self.z1_max**2 + self.z1_max)

    def value_range(self) -> tuple[float, float]:
        return -0.25, 0.0

    def _values(self, Z: np.ndarray) -> np.ndarray:
        z1 = Z[:, 0]
        rho2 = _sq_norm(Z[:, 1:])
        inside = (z1 > 4.0) & (rho2 <= z1)
        if self.z1_max is not None:
            inside &= z1 <= self.z1_max
        return np.where(inside, -1.0 / np.where(z1 > 4.0, z1, 1.0), 0.0)


@dataclass(frozen=True)
class Dilate(Potential):
    """(dilate_s V)(z) = s V(sqrt(s) z); preserves sign, symmetry, and both
    comparison norms, and shrinks a compact support radius by 1/sqrt(s)."""

    s: float
    inner: Potential

    def __post_init__(self) -> None:
        if not (self.s > 0.0):
            raise BridgepotError(f"dilation scale must be positive, got {self.s}")

    @property
    def symmetry(self) -> Symmetry:
        return self.inner.symmetry

    def support_radius(self) -> float:
        return self.inner.support_radius() / math.sqrt(self.s)

    def dimension_hint(self) -> int | None:
        return self.inner.dimension_hint()

    def value_range(self) -> tuple[float, float]:
        return _scaled_range(self.s, *self.inner.value_range())

    def _values(self, Z: np.ndarray) -> np.ndarray:
        return self.s * self.inner._values(math.sqrt(self.s) * Z)


@dataclass(frozen=True)
class Scale(Potential):
    factor: float
    inner: Potential

    @property
    def symmetry(self) -> Symmetry:
        return self.inner.symmetry

    def support_radius(self) -> float:
        return 0.0 if self.factor == 0.0 else self.inner.support_radius()

    def dimension_hint(self) -> int | None:
        return self.inner.dimension_hint()

    def value_range(self) -> tuple[float, float]:
        return _scaled_range(self.factor, *self.inner.value_range())

    def _values(self, Z: np.ndarray) -> np.ndarray:
        return self.factor * self.inner._values(Z)


def _scaled_range(factor: float, lo: float, hi: float) -> tuple[float, float]:
    """The range of factor * V for V in [lo, hi]; a zero factor gives {0}."""
    if factor == 0.0:
        return 0.0, 0.0
    return (factor * lo, factor * hi) if factor > 0.0 else (factor * hi, factor * lo)


@dataclass(frozen=True)
class Sum(Potential):
    terms: tuple[Potential, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise BridgepotError("Sum needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def symmetry(self) -> Symmetry:
        syms = {t.symmetry for t in self.terms}
        if syms <= {Symmetry.RADIAL}:
            return Symmetry.RADIAL
        if syms <= {Symmetry.RADIAL, Symmetry.AXIAL}:
            return Symmetry.AXIAL
        return Symmetry.GENERAL

    def support_radius(self) -> float:
        return max(t.support_radius() for t in self.terms)

    def dimension_hint(self) -> int | None:
        hints = {h for t in self.terms if (h := t.dimension_hint()) is not None}
        if len(hints) > 1:
            raise DimensionError(f"sum terms pin conflicting dimensions {sorted(hints)}")
        return next(iter(hints), None)

    def value_range(self) -> tuple[float, float]:
        ranges = [t.value_range() for t in self.terms]
        return sum(lo for lo, _ in ranges), sum(hi for _, hi in ranges)

    def _values(self, Z: np.ndarray) -> np.ndarray:
        total = np.zeros(Z.shape[0])
        for t in self.terms:
            total += t._values(Z)
        return total


# --------------------------------------------------------------------------
# Evaluation and the dilation operation
# --------------------------------------------------------------------------


def evaluate(V: Potential, z) -> float:
    """Pointwise value V(z)."""
    return float(evaluate_many(V, np.atleast_2d(z))[0])


def evaluate_many(V: Potential, Z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (n, d) array of points."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise DimensionError("expected an (n, d) array of points")
    hint = V.dimension_hint()
    if hint is not None and Z.shape[1] != hint:
        raise DimensionError(f"potential expects {hint}-dimensional points, got {Z.shape[1]}")
    return V._values(Z)


def dilate(V: Potential, s: float) -> Potential:
    """Return dilate_s V; nested dilations are flattened (scales multiply)."""
    if not (s > 0.0):
        raise BridgepotError(f"dilation scale must be positive, got {s}")
    if isinstance(V, Dilate):
        return Dilate(V.s * s, V.inner)
    return Dilate(s, V)


# --------------------------------------------------------------------------
# JSON wire format
# --------------------------------------------------------------------------


def serialize_potential(V: Potential) -> str:
    return json.dumps(_to_obj(V))


def _to_obj(V: Potential) -> dict:
    if isinstance(V, Constant):
        return {"type": "constant", "value": V.value}
    if isinstance(V, BallIndicator):
        obj = {"type": "ball", "radius": V.radius, "amplitude": V.amplitude}
        if V.center is not None:
            obj["center"] = list(V.center)
        return obj
    if isinstance(V, RadialPower):
        return {
            "type": "radial_power",
            "exponent": V.exponent,
            "inner_radius": V.inner_radius,
            "outer_radius": None if math.isinf(V.outer_radius) else V.outer_radius,
            "amplitude": V.amplitude,
        }
    if isinstance(V, CounterexampleA):
        obj: dict = {"type": "counterexample_a"}
        if V.z1_max is not None:
            obj["z1_max"] = V.z1_max
        return obj
    if isinstance(V, Dilate):
        return {"type": "dilate", "s": V.s, "inner": _to_obj(V.inner)}
    if isinstance(V, Scale):
        return {"type": "scale", "factor": V.factor, "inner": _to_obj(V.inner)}
    if isinstance(V, Sum):
        return {"type": "sum", "terms": [_to_obj(t) for t in V.terms]}
    raise BridgepotError(f"cannot serialize {type(V).__name__}")


def parse_potential(source: str | dict) -> Potential:
    """Parse the JSON wire format (a string or an already-decoded dict)."""
    obj = json.loads(source) if isinstance(source, str) else source
    if not isinstance(obj, dict):
        raise BridgepotError("potential spec must be a JSON object")
    return _from_obj(obj)


def _require(obj: dict, key: str):
    if key not in obj:
        raise BridgepotError(f"potential spec of type {obj.get('type')!r} is missing {key!r}")
    return obj[key]


def _from_obj(obj: dict) -> Potential:
    kind = obj.get("type")
    if kind == "constant":
        return Constant(float(_require(obj, "value")))
    if kind == "ball":
        center = obj.get("center")
        return BallIndicator(
            None if center is None else tuple(float(c) for c in center),
            float(_require(obj, "radius")),
            float(_require(obj, "amplitude")),
        )
    if kind == "radial_power":
        outer = _require(obj, "outer_radius")
        return RadialPower(
            float(_require(obj, "exponent")),
            float(_require(obj, "inner_radius")),
            math.inf if outer is None else float(outer),
            float(_require(obj, "amplitude")),
        )
    if kind == "counterexample_a":
        z1m = obj.get("z1_max")
        return CounterexampleA(None if z1m is None else float(z1m))
    if kind == "dilate":
        return Dilate(float(_require(obj, "s")), _from_obj(_require(obj, "inner")))
    if kind == "scale":
        return Scale(float(_require(obj, "factor")), _from_obj(_require(obj, "inner")))
    if kind == "sum":
        terms = _require(obj, "terms")
        if not isinstance(terms, list):
            raise BridgepotError("sum terms must be a list")
        return Sum(tuple(_from_obj(t) for t in terms))
    raise BridgepotError(f"unknown potential type {kind!r}")


# --------------------------------------------------------------------------
# Reduced profiles consumed by the transform quadratures
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Radial reduction |V|(r) with its piece structure.

    |V|(r) is read from V's own ``_values`` at the points r e1
    (``abs_value``), so each form states its values in one place.
    ``cells`` are the signed (lo, hi, amplitude, exponent) pieces of V,
    amplitude * r^exponent on [lo, hi], which may overlap; they give the
    breakpoints, the kernel cells and, when |V| is piecewise constant, the
    partition ``constant_cells`` into (lo, hi, value) cells that enables
    closed-form Gaussian overlaps in the bridge functionals.
    """

    potential: Potential
    width: int  # coordinates of the points r e1: V's pinned dimension, else 1
    breakpoints: tuple[float, ...]
    support: float
    constant_cells: tuple[tuple[float, float, float], ...] | None
    cells: tuple[tuple[float, float, float, float], ...]

    def abs_value(self, r) -> np.ndarray:
        return np.abs(_axis_values(self.potential, self.width, r))

    def kernel_cells(self) -> list[tuple[float, float, float, float]]:
        """|V| as (lo, hi, amplitude, exponent) cells whose |amplitude|s add up.

        Piecewise-constant |V| gives its nonzero constant cells; otherwise
        the signed pieces are returned, and overlapping pieces of both signs
        raise GeometryError, since their absolute values do not add.
        """
        if self.constant_cells is not None:
            return [(lo, hi, val, 0.0) for lo, hi, val in self.constant_cells if val != 0.0]
        if len({math.copysign(1.0, amp) for _, _, amp, _ in self.cells if amp != 0.0}) > 1:
            raise GeometryError("mixed-sign overlapping power cells are not supported")
        return list(self.cells)


def _axis_values(V: Potential, width: int, *columns) -> np.ndarray:
    """V at the points of R^width whose leading coordinates are the given
    columns (one shape, or scalars after the first) and the rest 0, shaped
    like the first column."""
    shape = np.shape(columns[0])
    Z = np.zeros((np.size(columns[0]), width), order="F")  # each column contiguous
    for j, col in enumerate(columns):
        Z[:, j] = np.ravel(col)
    return V._values(Z).reshape(shape)


def _radial_cells(V: Potential) -> list[tuple[float, float, float, float]]:
    """The signed (lo, hi, amplitude, exponent) cells of a radial V."""
    if isinstance(V, Constant):
        return [(0.0, math.inf, V.value, 0.0)]
    if isinstance(V, BallIndicator) and V.symmetry is Symmetry.RADIAL:
        return [(0.0, V.radius, V.amplitude, 0.0)]
    if isinstance(V, RadialPower):
        return [(V.inner_radius, V.outer_radius, V.amplitude, V.exponent)]
    if isinstance(V, Dilate):
        rt = math.sqrt(V.s)
        cells = _radial_cells(V.inner)
        return [(lo / rt, hi / rt, V.s * amp * rt**expo, expo) for lo, hi, amp, expo in cells]
    if isinstance(V, Scale):
        return [(lo, hi, V.factor * amp, expo) for lo, hi, amp, expo in _radial_cells(V.inner)]
    if isinstance(V, Sum) and V.symmetry is Symmetry.RADIAL:
        return [c for t in V.terms for c in _radial_cells(t)]
    raise BridgepotError(f"potential {type(V).__name__} has no radial reduction")


def radial_profile(V: Potential) -> RadialProfile:
    """Radial reduction of a radially symmetric potential."""
    if V.symmetry is not Symmetry.RADIAL:
        raise BridgepotError("radial_profile requires a radially symmetric potential")
    cells = _radial_cells(V)
    support = V.support_radius()
    const_cells = None
    if all(expo == 0.0 for _, _, _, expo in cells):
        edges = sorted({0.0, support, *(e for c in cells for e in c[:2] if math.isfinite(e))})
        merged = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            val = sum(amp for clo, chi, amp, _ in cells if clo <= lo and hi <= chi)
            merged.append((lo, hi, abs(val)))
        tail = [c for c in cells if math.isinf(c[1])]
        if tail:
            merged.append((edges[-1], math.inf, abs(sum(c[2] for c in tail))))
        const_cells = tuple(merged)
    width = V.dimension_hint() or 1
    return RadialProfile(V, width, cell_edges(cells), support, const_cells, tuple(cells))


def cell_edges(cells) -> tuple[float, ...]:
    """The finite positive edges of (lo, hi, ...) radial cells, sorted."""
    return tuple(sorted({r for c in cells for r in c[:2] if math.isfinite(r) and r > 0}))


@dataclass(frozen=True)
class AxialProfile:
    """Axial reduction: |V| as a function of (z1, rho = |z2|).

    |V|(z1, rho) is read from V's own ``_values`` at the points
    z1 e1 + rho e2 (``abs_value``), as for the radial profile.  The rest is
    data about where |V| lives: the z1 range, each term's cap z1 -> rho in
    ``rho_caps`` (an on-axis ball's chord; |V| is zero above the largest
    and may jump at the others) and the z1 breakpoints.
    """

    potential: Potential
    width: int  # coordinates of the points z1 e1 + rho e2: V's pinned dimension, else 2
    z1_lo: float
    z1_hi: float
    rho_caps: tuple[callable, ...]
    breakpoints_z1: tuple[float, ...]

    def abs_value(self, z1, rho) -> np.ndarray:
        return np.abs(_axis_values(self.potential, self.width, z1, rho))

    def rho_cap(self, z1) -> np.ndarray:
        """The largest useful rho at each z1."""
        if len(self.rho_caps) == 1:
            return self.rho_caps[0](z1)
        return np.max(np.stack([cap(z1) for cap in self.rho_caps]), axis=0)


def _chord(c1: float, radius: float):
    """The rho cap z1 -> sqrt(radius^2 - (z1 - c1)^2) of a ball centred at c1 e1, 0 off it."""

    def cap(z1):
        return np.sqrt(np.maximum(radius * radius - (np.asarray(z1, float) - c1) ** 2, 0.0))

    return cap


def _axial_caps(V: Potential):
    """(z1_lo, z1_hi, per-term rho caps, z1 breakpoints) of an axial V."""
    if isinstance(V, CounterexampleA):
        hi = V.z1_max if V.z1_max is not None else math.inf
        return 4.0, hi, ((lambda z1: np.sqrt(np.maximum(z1, 0.0))),), (4.0,)
    if isinstance(V, BallIndicator) and V.symmetry in (Symmetry.RADIAL, Symmetry.AXIAL):
        c1 = 0.0 if V.center is None else V.center[0]
        lo, hi = c1 - V.radius, c1 + V.radius
        return lo, hi, (_chord(c1, V.radius),), (lo, hi)
    if V.symmetry is Symmetry.RADIAL:
        sup, pts = V.support_radius(), cell_edges(_radial_cells(V))
        return -sup, sup, (_chord(0.0, sup),), tuple(b for p in pts for b in (-p, p))
    if isinstance(V, Dilate):
        lo, hi, caps, pts = _axial_caps(V.inner)
        rt = math.sqrt(V.s)
        caps = tuple((lambda z1, cap=cap: cap(rt * z1) / rt) for cap in caps)
        return lo / rt, hi / rt, caps, tuple(p / rt for p in pts)
    if isinstance(V, Scale):
        return _axial_caps(V.inner)
    if isinstance(V, Sum):
        parts = [_axial_caps(t) for t in V.terms]
        lo = min(p[0] for p in parts)
        hi = max(p[1] for p in parts)
        caps = tuple(cap for p in parts for cap in p[2])
        pts = tuple(sorted({b for p in parts for b in p[3]}))
        return lo, hi, caps, pts
    raise BridgepotError(f"potential {type(V).__name__} has no axial reduction")


def axial_profile(V: Potential) -> AxialProfile:
    """Axial reduction of a potential symmetric about the e1 axis."""
    if V.symmetry is Symmetry.GENERAL:
        raise BridgepotError("axial_profile requires radial or axial symmetry")
    return AxialProfile(V, V.dimension_hint() or 2, *_axial_caps(V))


# --------------------------------------------------------------------------
# The L^{d/2} norm
# --------------------------------------------------------------------------


def lp_halfd_norm(
    V: Potential, d, q: QuadratureSpec = DEFAULT_SPEC_1D
) -> Estimate:
    """|| V ||_{d/2} = (int |V|^{d/2})^{2/d}.

    Closed forms are used where the structure permits (single indicators);
    otherwise the defining integral is reduced by symmetry and, when the
    support is unbounded, its truncations are growth-diagnosed before a
    finite value is reported.  A divergent diagnosis yields the +inf
    sentinel with DIVERGED status.
    """
    d = as_dimension(d)
    p = d / 2.0
    if isinstance(V, Constant):
        if V.value == 0.0:
            return Estimate(0.0, 0.0, Status.CONVERGED)
        return Estimate(math.inf, math.inf, Status.DIVERGED)
    if isinstance(V, BallIndicator):
        val = abs(V.amplitude) * ball_volume(d, V.radius) ** (2.0 / d)
        return Estimate(val, abs(val) * 1e-14, Status.CONVERGED)

    # a bounded support is one shell; an unbounded one is a growth ladder
    # whose shells are the rows of one lockstep call
    if V.symmetry is Symmetry.RADIAL:
        prof = radial_profile(V)
        area = sphere_area(d - 1)
        if math.isfinite(prof.support):
            ladder = [prof.support]
        else:
            base = max([b for b in prof.breakpoints if math.isfinite(b)], default=1.0)
            ladder = [base * 10.0**k for k in range(1, 9)]
        ests = integrate_finite(
            lambda owner, r: prof.abs_value(r) ** p * r ** (d - 1),
            [0.0, *ladder[:-1]],
            ladder,
            q,
            [prof.breakpoints] * len(ladder),
        )
        shells = [est.scaled(area) for est in ests]
    else:
        prof = axial_profile(V)
        area = sphere_area(d - 2)
        ladder = [prof.z1_hi] if math.isfinite(prof.z1_hi) else [10.0**k for k in range(2, 10)]
        lo = [min(max(prof.z1_lo, r), hi) for r, hi in zip([-math.inf, *ladder[:-1]], ladder)]
        inner: list[set[Status]] = [set() for _ in ladder]

        def outer(owner: np.ndarray, z1: np.ndarray) -> np.ndarray:
            chords = np.stack([c(z1) for c in prof.rho_caps])
            cap = chords.max(axis=0)
            live = np.flatnonzero(cap > 0)
            z_live = z1[live]
            # |V| jumps in rho at every term's chord below the cap
            breaks = [] if len(chords) == 1 else [
                [c for c in chords[:, i] if 0.0 < c < cap[i]] for i in live
            ]
            ests = integrate_finite(
                lambda o, rho: prof.abs_value(z_live[o], rho) ** p * rho ** (d - 2),
                [0.0] * live.size,
                cap[live],
                q,
                breaks,
            )
            out = np.zeros_like(z1)
            for i, est in zip(live, ests):
                inner[owner[i]].add(est.status)
                out[i] = est.value
            return out

        ests = integrate_finite(outer, lo, ladder, q, [prof.breakpoints_z1] * len(ladder))
        shells = [fold_status(est, statuses).scaled(area) for est, statuses in zip(ests, inner)]

    if len(shells) == 1:
        raw = shells[0]
    else:
        raw = verdict_estimate(growth_diagnosis(shell_sum(shells, ladder), ladder, rel_tol=1e-6))
    if not math.isfinite(raw.value):
        return Estimate(math.inf, math.inf, Status.DIVERGED)
    val = raw.value ** (2.0 / d)
    err = (2.0 / d) * val / raw.value * raw.error_bound if raw.value > 0 else 0.0
    return Estimate(val, err, raw.status)
