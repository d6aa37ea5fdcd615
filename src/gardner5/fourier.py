"""Uniform periodic grids, spectral calculus, and Sobolev norms.

Wide windows with decayed tails stand in for the real line.  All norms carry
continuum normalization: the trapezoid weight h in physical space and the
frequency spacing 2*pi/L in spectral space, so computed values approximate
real-line integrals rather than dimensionless discrete sums.

Spectral operations require the sampled field to be numerically periodic on
its window.  Two sufficient conditions are accepted: the field has decayed
at the window edges (the usual case for localized fields), or its spectrum
has a negligible top octave (band-limited periodic fields such as pure
trigonometric modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

EDGE_RATIO = 1e-12     # |v| at edges relative to max|v|
TAIL_RATIO = 1e-11     # spectral amplitude fraction in the top octave
MAX_UNION_POINTS = 2**22   # largest zero-filled lattice the window-union paths build


class GridError(ValueError):
    """Invalid grid construction."""


class GridMismatchError(ValueError):
    """Operation requires compatible grids."""


class EdgeDecayError(ValueError):
    """Field is not numerically periodic on its window."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic sampling window: N nodes covering [center - L/2, center + L/2)."""

    center: float
    length: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.length)):
            raise GridError("grid center and length must be finite")
        if self.length <= 0:
            raise GridError(f"grid length must be > 0, got {self.length}")
        if self.points < 16:
            raise GridError(f"grid needs at least 16 points, got {self.points}")
        if self.points % 2:
            raise GridError(f"grid point count must be even, got {self.points}")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def left(self) -> float:
        return self.center - self.length / 2.0

    @property
    def nodes(self) -> np.ndarray:
        return self.left + self.spacing * np.arange(self.points)

    @property
    def frequencies(self) -> np.ndarray:
        """xi_k = 2 pi k / L in numpy fft ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)


def make_grid(center, length, points) -> Grid:
    return Grid(float(center), float(length), int(points))


@dataclass(frozen=True)
class SampledField:
    """Real samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.points,):
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid points {self.grid.points}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)


def _check_periodic(field: SampledField, what: str) -> None:
    v = field.values
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return
    edge = max(abs(v[0]), abs(v[-1]))
    if edge <= EDGE_RATIO * peak:
        return
    spec = np.abs(np.fft.fft(v))
    k = np.abs(np.fft.fftfreq(field.grid.points, d=1.0)) * field.grid.points
    top = k >= field.grid.points / 4.0
    total = np.sqrt(np.sum(spec**2))
    tail = np.sqrt(np.sum(spec[top] ** 2))
    if tail <= TAIL_RATIO * total:
        return
    raise EdgeDecayError(
        f"{what}: field is not numerically periodic on its window "
        f"(edge/max ratio {edge / peak:.2e} > {EDGE_RATIO:.0e} and top-octave "
        f"spectral fraction {tail / total:.2e} > {TAIL_RATIO:.0e}); "
        f"widen the window or refine the grid"
    )


def derivatives(
    field: SampledField, orders, edge_check: bool = True
) -> tuple[SampledField, ...]:
    """Spectral derivatives of several orders (each 1..5) from one forward FFT.

    Multiplies the spectrum by (i xi)^order; the Nyquist mode is zeroed for
    odd orders.  The imaginary residue of each inverse transform is checked
    against the worst-case derivative amplification before being discarded.
    Returns one SampledField per entry of `orders`, in that order.
    """
    for order in orders:
        if not isinstance(order, int) or not 1 <= order <= 5:
            raise ValueError(f"derivative order must be an integer in 1..5, got {order}")
    if edge_check:
        _check_periodic(field, "derivative")
    xi = field.grid.frequencies
    spec = np.fft.fft(field.values)
    peak = np.max(np.abs(field.values))
    xi_max = np.max(np.abs(xi))
    out = []
    for order in orders:
        mult = (1j * xi) ** order
        if order % 2:
            mult[field.grid.points // 2] = 0.0
        d = np.fft.ifft(mult * spec)
        residue_scale = 1.0 + xi_max**order * peak
        residue = np.max(np.abs(d.imag))
        if residue > 1e-10 * residue_scale:
            raise EdgeDecayError(
                f"derivative: imaginary residue {residue:.2e} exceeds "
                f"1e-10 * {residue_scale:.2e}; field is not consistently real/periodic"
            )
        out.append(SampledField(field.grid, d.real))
    return tuple(out)


def derivative(field: SampledField, order: int, edge_check: bool = True) -> SampledField:
    """Spectral derivative of given order (1..5); see `derivatives`."""
    return derivatives(field, (order,), edge_check)[0]


def l2_norm(field: SampledField) -> float:
    """Continuum-normalized L^2 norm: sqrt(h * sum v^2)."""
    return math.sqrt(field.grid.spacing * float(np.sum(field.values**2)))


def mean(field: SampledField) -> float:
    """Continuum-normalized integral h * sum v (the window integral of v)."""
    return field.grid.spacing * float(np.sum(field.values))


def sobolev_norm(field: SampledField, s: float, edge_check: bool = True) -> float:
    """Discrete H^s norm with continuum normalization.

    norm^2 = (h^2 / L) * sum_k (1 + xi_k^2)^s |FFT(v)_k|^2, which approximates
    (1/2pi) * integral (1+xi^2)^s |v_hat(xi)|^2 dxi on the line; s = 0
    recovers the L^2 norm (Parseval).
    """
    if not math.isfinite(s):
        raise ValueError(f"Sobolev index must be finite, got {s}")
    if edge_check:
        _check_periodic(field, "sobolev_norm")
    g = field.grid
    spec2 = np.abs(np.fft.fft(field.values)) ** 2
    weight = (1.0 + g.frequencies**2) ** s
    return math.sqrt(g.spacing**2 / g.length * float(np.sum(weight * spec2)))


def _lattice_offset(a: Grid, b: Grid) -> int:
    """Integer lattice shift between two grids of equal spacing.

    The one test of whether two windows share nodes: a shared grid is
    offset 0, and a shift that is not a whole number of nodes raises.
    """
    h = a.spacing
    if abs(h - b.spacing) > 1e-12 * h:
        raise GridMismatchError(
            f"grids have different spacings: {h!r} vs {b.spacing!r}"
        )
    off = (b.left - a.left) / h
    k = round(off)
    if abs(off - k) > 1e-6:
        raise GridMismatchError(
            f"grid lattices are misaligned by {off - k:.2e} nodes; "
            f"snap window centers to multiples of the spacing"
        )
    return k


def _place_on_union(a: SampledField, b: SampledField):
    """Zero-extend both fields onto the covering lattice; None above MAX_UNION_POINTS."""
    k = _lattice_offset(a.grid, b.grid)
    lo = min(0, k)
    hi = max(a.grid.points, k + b.grid.points)
    n = hi - lo
    if n % 2:
        n += 1
    if n > MAX_UNION_POINTS:
        return None
    ua = np.zeros(n)
    ub = np.zeros(n)
    ua[-lo : -lo + a.grid.points] = a.values
    ub[k - lo : k - lo + b.grid.points] = b.values
    h = a.grid.spacing
    left = a.grid.left + lo * h
    g = Grid(left + n * h / 2.0, n * h, n)
    return g, ua, ub


def window_overlap(a: Grid, b: Grid) -> float:
    """Overlap length of two windows as a fraction of the shorter one."""
    lo = max(a.left, b.left)
    hi = min(a.left + a.length, b.left + b.length)
    return max(0.0, hi - lo) / min(a.length, b.length)


def window_union_distance(field_a: SampledField, field_b: SampledField, s: float) -> float:
    """H^s distance of a - b for fields on possibly different windows.

    Each field must have decayed at its own window edges, so its zero
    extension to the line is accurate.  Both fields are placed on the
    lattice covering their windows (for a shared grid, that grid) and the
    norm of the difference is computed there; when that lattice would exceed
    MAX_UNION_POINTS (far-separated windows) the supports are disjoint and
    the Pythagorean sum of the individual norms is exact to the
    (exponentially small) tail inner product.
    """
    _check_periodic(field_a, "window_union_distance")
    _check_periodic(field_b, "window_union_distance")
    placed = _place_on_union(field_a, field_b)
    if placed is not None:
        g, ua, ub = placed
        return sobolev_norm(SampledField(g, ua - ub), s, edge_check=False)
    if window_overlap(field_a.grid, field_b.grid) > 0.0:
        raise GridMismatchError("overlapping windows too large for a common grid")
    na = sobolev_norm(field_a, s, edge_check=False)
    nb = sobolev_norm(field_b, s, edge_check=False)
    return math.sqrt(na**2 + nb**2)


def window_union_inner(field_a: SampledField, field_b: SampledField) -> float:
    """L^2 inner product of zero-extended fields; exactly 0 for disjoint windows."""
    if window_overlap(field_a.grid, field_b.grid) == 0.0:
        return 0.0
    placed = _place_on_union(field_a, field_b)
    if placed is None:
        raise GridMismatchError("overlapping windows too large for a common grid")
    g, ua, ub = placed
    return g.spacing * float(np.dot(ua, ub))
