"""Hypothesis profiles and a circular test course.

``HYPOTHESIS_PROFILE=ci`` selects ``ci``: examples are derived from each
test's source, not drawn at random, so a failure in CI reproduces from
the commit alone. Tests keep their own ``max_examples``.
"""

import os

import numpy as np
from hypothesis import settings

from racelab.track import MIN_POINTS, Track

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def circle_track(radius, half_width=6.0, spacing=2.5):
    """A counterclockwise circle about the origin, vertex 0 on the +x axis,
    with about ``spacing`` meters between vertices: closed-form length,
    curvature and headings for geometry tests."""
    count = max(MIN_POINTS, int(round(2.0 * np.pi * radius / spacing)))
    ang = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return Track(pts, half_width, {"preset": "circle", "radius": float(radius), "seed": 0,
                                   "spacing": float(spacing)})
