"""Closed-track centerline geometry.

A track is a closed polyline with uniform-ish vertex spacing, a constant
half width, and derived per-vertex arclengths, tangent headings, and
signed curvatures. All arclength arithmetic is modulo the lap length.
Positive lateral offset is to the left of the direction of travel.

Every course comes from one construction rule, ``gen_track``'s: a smooth
closed curve through randomly perturbed points around a circle. A course
spec names the rule as ``"preset": "random"`` and the course records that
name in its meta.
"""

from __future__ import annotations

import dataclasses
import json
import numbers

import numpy as np

from .nets import CheckpointError, replacing
from .seeding import stream

__all__ = [
    "Track",
    "gen_track",
    "save_track",
    "load_track",
    "wrap_angle",
    "left_normal",
]

TRACK_FORMAT = "racelab-track-v1"

MIN_POINTS = 64
MIN_SPACING = 0.5
MAX_SPACING = 10.0
MIN_HALF_WIDTH = 3.0
# Segment offsets, from the nearest vertex, that project_many refines over.
_CANDIDATES = np.arange(-2, 2)

# Windowed projection (``Track.project_many`` with a hint). A car moves at
# most v_cap * dt = 4.5 m per control step, under two vertices at the
# default 2.5 m spacing. CLEAR_SKIP is K: vertices more than K indices
# away lie at least 7 * 2.5 = 17.5 m of arc off, more than the
# 2 * sqrt(6^2 + 1.25^2) = 12.3 m the exactness check needs for a car
# inside a 6 m half width. WINDOW is W: the window holds the hint's
# segment and W vertices to either side, so the nearest vertex may move
# W - K = 4 vertices past the hint's segment before the check gives up.
CLEAR_SKIP = 6
WINDOW = 10


@dataclasses.dataclass(frozen=True)
class Track:
    """Closed centerline polyline with constant half width.

    Parameters
    ----------
    points : ndarray, shape (P, 2)
        Vertices in order of travel; the segment from the last vertex back
        to the first closes the circuit.
    half_width : float
        Lateral distance from centerline to either wall, >= 3.
    meta : dict
        Generation record (preset name, parameters, seed).

    Derived arrays (vertex arclengths, headings, curvatures, clearances)
    are computed once at construction. ``clearance_sq[k]`` is the squared
    distance from vertex k to the nearest vertex more than CLEAR_SKIP
    indices away around the loop; it lets ``project_many`` prove that a
    windowed nearest-vertex search found the global answer. Construction
    validates vertex count, spacing, half width, and that
    ``|curvature| * half_width < 1`` everywhere so wall offsets never
    self-intersect.
    """

    points: np.ndarray
    half_width: float
    meta: dict = dataclasses.field(default_factory=dict)
    s_points: np.ndarray = dataclasses.field(init=False, repr=False)
    headings: np.ndarray = dataclasses.field(init=False, repr=False)
    curvatures: np.ndarray = dataclasses.field(init=False, repr=False)
    clearance_sq: np.ndarray = dataclasses.field(init=False, repr=False)
    length: float = dataclasses.field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (P, 2)")
        if pts.shape[0] < MIN_POINTS:
            raise ValueError(f"track needs at least {MIN_POINTS} points, got {pts.shape[0]}")
        if self.half_width < MIN_HALF_WIDTH:
            raise ValueError(f"half_width must be >= {MIN_HALF_WIDTH}")
        seg = np.roll(pts, -1, axis=0) - pts
        seg_len = np.linalg.norm(seg, axis=1)
        if seg_len.min() < MIN_SPACING or seg_len.max() > MAX_SPACING:
            raise ValueError(
                f"vertex spacing must lie in [{MIN_SPACING}, {MAX_SPACING}], "
                f"got [{seg_len.min():.3g}, {seg_len.max():.3g}]"
            )
        s = np.concatenate(([0.0], np.cumsum(seg_len)))
        # Vertex tangent from the central difference on the closed loop.
        fwd = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
        headings = np.arctan2(fwd[:, 1], fwd[:, 0])
        curv = _menger_curvature(pts)
        if np.max(np.abs(curv)) * self.half_width >= 1.0:
            raise ValueError("curvature * half_width must stay below 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "s_points", s)
        object.__setattr__(self, "headings", headings)
        object.__setattr__(self, "curvatures", curv)
        object.__setattr__(self, "clearance_sq", _clearance_sq(pts))
        object.__setattr__(self, "length", float(s[-1]))

    # -- arclength parameterization ------------------------------------

    def wrap(self, s):
        """Wrap arclength(s) into [0, length)."""
        return np.mod(s, self.length)

    def frames(self, s):
        """Vectorized centerline samples.

        Parameters
        ----------
        s : ndarray, shape (B,)
            Arclengths, any real values; wrapped internally.

        Returns
        -------
        positions : ndarray, shape (B, 2)
        headings : ndarray, shape (B,)
        curvatures : ndarray, shape (B,)
        """
        idx, nxt, u = self._locate(s)
        p = self.points[idx] + u[:, None] * (self.points[nxt] - self.points[idx])
        h = _slerp_angle(self.headings[idx], self.headings[nxt], u)
        c = self.curvatures[idx] + u * (self.curvatures[nxt] - self.curvatures[idx])
        return p, h, c

    def centerline(self, s):
        """Centerline positions (B, 2) at arclengths s, equal to the
        positions ``frames`` returns, without headings or curvatures."""
        idx, nxt, u = self._locate(s)
        return self.points[idx] + u[:, None] * (self.points[nxt] - self.points[idx])

    def _locate(self, s):
        """Segment start and end vertex and fraction along it, per arclength."""
        s = self.wrap(np.asarray(s, dtype=np.float64))
        idx = np.searchsorted(self.s_points, s, side="right") - 1
        idx = np.clip(idx, 0, len(self.points) - 1)
        s0 = self.s_points[idx]
        u = (s - s0) / (self.s_points[idx + 1] - s0)
        return idx, (idx + 1) % len(self.points), u

    # -- projection ----------------------------------------------------

    def project_many(self, pts, s_hint=None):
        """Vectorized exact projection of (B, 2) points.

        Finds the nearest vertex per point, then solves the exact
        point-to-segment projection on the segments adjacent to it.
        Returns, per point, the arclength s of the closest centerline
        point, the signed lateral offset e (positive to the left of
        travel) and the interpolated centerline heading at s. Raises
        ValueError if a point is farther than 10 * half_width from every
        vertex, where a projection would be meaningless.

        s_hint, an arclength per point near its answer (a car's arclength
        one step earlier), narrows the nearest-vertex search to a window:
        the hint's segment and WINDOW vertices to either side. A row keeps
        the window's nearest vertex k, at distance d, only when k has at
        least CLEAR_SKIP window vertices on either side and
        ``4 d^2 < clearance_sq[k]``, with a 1e-9 relative margin for
        rounding. Every vertex outside the window is then more than
        CLEAR_SKIP indices from k, so at least ``sqrt(clearance_sq[k]) - d
        > d`` from the point: strictly farther than k. Ties inside the
        window go to the lowest vertex index, as in the dense search.
        Rows that fail the check get the dense search. The results are
        bitwise those of the dense search, with or without a hint.
        """
        pts = np.asarray(pts, dtype=np.float64)
        n = len(self.points)
        if s_hint is None:
            nearest, near_d2 = self._nearest_dense(pts)
        else:
            nearest, near_d2 = self._nearest_windowed(pts, s_hint)
        if np.sqrt(near_d2).max() > 10.0 * self.half_width:
            worst = int(np.argmax(near_d2))
            raise ValueError(
                f"point {pts[worst]} is farther than 10 * half_width from the track"
            )
        # Check the two segments touching the nearest vertex, plus one
        # more on each side to be safe near short segments, as one (B, 4)
        # batch. argmin keeps the first of equal distances.
        i = (nearest[:, None] + _CANDIDATES) % n
        a = self.points[i]
        ab = self.points[(i + 1) % n] - a
        denom = (ab * ab).sum(axis=2)
        t = np.clip(((pts[:, None] - a) * ab).sum(axis=2) / denom, 0.0, 1.0)
        q = a + t[..., None] * ab
        rows = np.arange(len(pts))
        best = ((pts[:, None] - q) ** 2).sum(axis=2).argmin(axis=1)
        s = self.wrap(self.s_points[i[rows, best]] + t[rows, best] * np.sqrt(denom[rows, best]))
        best_q = q[rows, best]
        _, h, _ = self.frames(s)
        normal = left_normal(h)
        d = pts - best_q
        e = normal[:, 0] * d[:, 0] + normal[:, 1] * d[:, 1]
        return s, e, h

    def _nearest_dense(self, pts):
        """Nearest vertex and its squared distance, over every vertex."""
        d2 = _dist_sq(pts, self.points)
        nearest = d2.argmin(axis=1)
        return nearest, d2[np.arange(len(pts)), nearest]

    def _nearest_windowed(self, pts, s_hint):
        """``_nearest_dense`` searching the hint's window where that is exact."""
        n = len(self.points)
        # The hint's segment index, as in frames; taken mod n below.
        first = np.searchsorted(self.s_points, self.wrap(s_hint), side="right") - (1 + WINDOW)
        # Sorted, so that argmin breaks ties on the lowest vertex index
        # also in windows that wrap past vertex 0.
        win = np.sort((first[:, None] + np.arange(2 * WINDOW + 2)) % n, axis=1)
        d2 = _dist_sq(pts, self.points[win])
        col = d2.argmin(axis=1)
        rows = np.arange(len(pts))
        nearest, near_d2 = win[rows, col], d2[rows, col]
        inside = (nearest - first) % n
        exact = ((inside >= CLEAR_SKIP) & (inside <= 2 * WINDOW + 1 - CLEAR_SKIP)
                 & (4.0 * near_d2 < self.clearance_sq[nearest] * (1.0 - 1e-9)))
        if not exact.all():
            miss = ~exact
            nearest[miss], near_d2[miss] = self._nearest_dense(pts[miss])
        return nearest, near_d2

    def progress_delta(self, s_now, s_prev):
        """Wrapped arclength advance from s_prev to s_now in [-L/2, L/2)."""
        d = np.mod(np.asarray(s_now) - np.asarray(s_prev) + 0.5 * self.length, self.length) - 0.5 * self.length
        return d if np.ndim(s_now) else float(d)


def _dist_sq(pts, verts):
    """Squared distances from points (B, 2) to vertices (P, 2) or (B, P, 2),
    shape (B, P), summed x term first as ``((pts - verts) ** 2).sum(-1)``
    would, without its (B, P, 2) temporary."""
    return (pts[:, None, 0] - verts[..., 0]) ** 2 + (pts[:, None, 1] - verts[..., 1]) ** 2


def _clearance_sq(pts):
    """Squared distance from each vertex of a closed polyline to the
    nearest vertex more than CLEAR_SKIP indices away around the loop.

    Works through 16 vertices at a time, so its temporaries, a few
    (16, P) arrays, leave the peak memory of building a course as it was.
    """
    n = len(pts)
    out = np.empty(n)
    for lo in range(0, n, 16):
        rows = np.arange(lo, min(lo + 16, n))
        d2 = _dist_sq(pts[rows], pts)
        near = (rows[:, None] + np.arange(-CLEAR_SKIP, CLEAR_SKIP + 1)) % n
        d2[np.arange(len(rows))[:, None], near] = np.inf
        out[rows] = d2.min(axis=1)
    return out


def _menger_curvature(pts):
    """Signed circumcircle curvature at each vertex of a closed polyline."""
    prev_pts = np.roll(pts, 1, axis=0)
    next_pts = np.roll(pts, -1, axis=0)
    a = pts - prev_pts
    b = next_pts - pts
    chord = next_pts - prev_pts
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) * np.linalg.norm(chord, axis=1)
    return np.where(denom > 0, 2.0 * cross / np.maximum(denom, 1e-12), 0.0)


def wrap_angle(a):
    """Angle(s) a wrapped to [-pi, pi].

    pi itself maps to -pi, but rounding can land an input just below an
    odd multiple of pi on +pi, so both ends of the range occur.
    """
    return np.mod(a + np.pi, 2.0 * np.pi) - np.pi


def left_normal(h):
    """Unit normal(s) pointing left of heading(s) h, shape h.shape + (2,)."""
    return np.stack([-np.sin(h), np.cos(h)], axis=-1)


def _slerp_angle(a, b, u):
    """Shortest-path interpolation between angles, wrapped to [-pi, pi]."""
    return wrap_angle(a + u * wrap_angle(b - a))


# -- generation --------------------------------------------------------


def _resample_closed(dense, spacing_target):
    """Resample a dense closed curve at near-uniform arclength spacing."""
    seg = np.roll(dense, -1, axis=0) - dense
    seg_len = np.linalg.norm(seg, axis=1)
    s = np.concatenate(([0.0], np.cumsum(seg_len)))
    total = s[-1]
    count = max(MIN_POINTS, int(round(total / spacing_target)))
    targets = np.arange(count) * (total / count)
    idx = np.searchsorted(s, targets, side="right") - 1
    idx = np.clip(idx, 0, len(dense) - 1)
    u = (targets - s[idx]) / np.maximum(seg_len[idx], 1e-12)
    return dense[idx] + u[:, None] * seg[idx]


def _catmull_rom_closed(control, samples_per_seg):
    """Dense sampling of a periodic Catmull-Rom spline through control."""
    n = len(control)
    u = np.linspace(0.0, 1.0, samples_per_seg, endpoint=False)
    out = []
    for i in range(n):
        p0 = control[(i - 1) % n]
        p1 = control[i]
        p2 = control[(i + 1) % n]
        p3 = control[(i + 2) % n]
        u2 = u * u
        u3 = u2 * u
        # Standard uniform Catmull-Rom basis.
        b0 = -0.5 * u3 + u2 - 0.5 * u
        b1 = 1.5 * u3 - 2.5 * u2 + 1.0
        b2 = -1.5 * u3 + 2.0 * u2 + 0.5 * u
        b3 = 0.5 * u3 - 0.5 * u2
        out.append(
            b0[:, None] * p0 + b1[:, None] * p1 + b2[:, None] * p2 + b3[:, None] * p3
        )
    return np.concatenate(out, axis=0)


# The random rule's parameters and their defaults, in the order the track
# meta records them.
_PARAMS = {"n_control": 12, "roughness": 0.25, "radius": 180.0}


def _course_meta(preset, seed, half_width, spacing=2.5, **params):
    """The generation record (``Track.meta``) of a course spec, each
    parameter as its default's type (n_control is an int), after the check
    that gen_track makes before it generates: the preset "random", known
    parameter names, numeric values and half_width >= MIN_HALF_WIDTH.
    Raises ValueError naming the bad one."""
    if preset != "random":
        raise ValueError(f"unknown track preset {preset!r} (the one preset is 'random')")
    unknown = sorted(set(params) - set(_PARAMS))
    if unknown:
        raise ValueError(f"unknown track parameters: {unknown}")
    for key, value in {"seed": seed, "half_width": half_width, "spacing": spacing,
                       **params}.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"track parameter '{key}' must be a number, got {value!r}")
    if half_width < MIN_HALF_WIDTH:
        raise ValueError(f"half_width must be >= {MIN_HALF_WIDTH}, got {half_width!r}")
    return {"preset": preset, **{key: type(default)(params.get(key, default))
                                 for key, default in _PARAMS.items()},
            "seed": int(seed), "spacing": float(spacing)}


def gen_track(preset, seed=0, half_width=6.0, **params):
    """Generate a course by the random rule.

    A periodic Catmull-Rom spline runs through n_control points around a
    circle of the given radius, each moved in and out by up to roughness
    times the radius and along the circle by up to a quarter of their
    angular spacing. The spline is resampled at ``spacing`` meters. While
    the course fails a check of Track (the curvature bound, mostly), the
    perturbation is damped and drawn again, up to 20 times; then the
    ValueError names the check the last attempt failed.

    Parameters
    ----------
    preset : "random"
        The one construction rule; recorded in the course meta.
    seed : int
        Master seed of the perturbation's draws.
    half_width : float
        Track half width in meters.
    **params
        n_control, roughness, radius and spacing.

    Returns
    -------
    Track
    """
    meta = _course_meta(preset, seed, half_width, **params)
    n_control = meta["n_control"]
    rng = stream(seed, "track")
    # Damp the perturbation until the curvature bound is satisfied.
    for attempt in range(20):
        damp = 0.85**attempt
        rr = meta["radius"] * (1.0 + meta["roughness"] * damp * rng.uniform(-1.0, 1.0, n_control))
        ang = np.linspace(0.0, 2.0 * np.pi, n_control, endpoint=False)
        ang = ang + rng.uniform(-0.25, 0.25, n_control) * (2.0 * np.pi / n_control) * damp
        control = rr[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        dense = _catmull_rom_closed(control, 512)
        pts = _resample_closed(dense, meta["spacing"])
        try:
            return Track(pts, half_width, meta)
        except ValueError as exc:
            failed = exc
    raise ValueError(f"could not generate a valid random track: {failed}")


# -- persistence -------------------------------------------------------


def save_track(track, path):
    """Write a track as deterministic JSON (sorted keys, full precision),
    beside path and then renamed onto it, so a stopped save leaves no
    partial file."""
    doc = {
        "format": TRACK_FORMAT,
        "half_width": track.half_width,
        "meta": track.meta,
        "points": [[float(x), float(y)] for x, y in track.points],
    }
    with replacing(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_track(path):
    """Read a track written by save_track; other files raise CheckpointError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable track file {path}") from exc
    if not isinstance(doc, dict) or doc.get("format") != TRACK_FORMAT:
        raise CheckpointError(f"unrecognized track format in {path}")
    return Track(np.asarray(doc["points"], dtype=np.float64), float(doc["half_width"]), doc.get("meta", {}))
