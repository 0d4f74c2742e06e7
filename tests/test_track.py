"""Geometry oracles for the track module.

Projection is checked against brute-force dense sampling of the
centerline, and the windowed projection against the dense search over
every vertex; circle tracks give closed-form length and curvature;
wrapped arclength arithmetic is property-tested.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle_track
from racelab.env import EpisodeConfig, RaceEnv
from racelab import track as track_mod
from racelab.track import Track, gen_track, load_track, save_track, wrap_angle
from racelab.vehicle import VehicleParams, enforce_track_limits, initial_state


def dense_centerline(track, spacing=0.02):
    n = int(track.length / spacing)
    s = np.arange(n) * (track.length / n)
    pos, _, _ = track.frames(s)
    return s, pos


class TestCircleGeometry:
    def test_length_matches_inscribed_polygon(self):
        radius = 150.0
        track = circle_track(radius)
        n = len(track.points)
        expected = 2.0 * n * radius * np.sin(np.pi / n)
        assert abs(track.length - expected) < 1e-9 * expected

    def test_vertex_curvature_is_one_over_radius(self):
        radius = 150.0
        track = circle_track(radius)
        # Menger curvature of three points on a circle is exact.
        assert np.allclose(track.curvatures, 1.0 / radius, rtol=1e-9)

    def test_headings_are_tangent(self):
        track = circle_track(100.0)
        ang = np.arctan2(track.points[:, 1], track.points[:, 0])
        expected = np.mod(ang + np.pi / 2 + np.pi, 2 * np.pi) - np.pi
        diff = np.mod(track.headings - expected + np.pi, 2 * np.pi) - np.pi
        assert np.abs(diff).max() < 1e-9


class TestProjection:
    def test_matches_brute_force_on_random_track(self):
        track = gen_track("random", seed=7)
        rng = np.random.default_rng(0)
        s_dense, pos_dense = dense_centerline(track)
        for _ in range(40):
            s0 = rng.uniform(0, track.length)
            e0 = rng.uniform(-track.half_width, track.half_width)
            frame_pos, h, _ = track.frames(np.asarray([s0]))
            normal = np.asarray([-np.sin(h[0]), np.cos(h[0])])
            point = frame_pos[0] + e0 * normal
            (s,), (e,), _ = track.project_many(point[None])
            d_impl = np.linalg.norm(point - track.frames(np.asarray([s]))[0][0])
            brute = np.linalg.norm(pos_dense - point, axis=1)
            # Exact segment projection can only beat the sampled oracle.
            assert abs(e) <= brute.min() + 1e-9
            s_brute = s_dense[brute.argmin()]
            wrap = track.progress_delta(s, s_brute)
            assert abs(wrap) < 0.05
            assert d_impl <= brute.min() + 0.05

    def test_roundtrip_recovers_offset(self):
        track = gen_track("random", seed=3)
        rng = np.random.default_rng(1)
        for _ in range(30):
            s0 = rng.uniform(0, track.length)
            e0 = rng.uniform(-track.half_width * 0.9, track.half_width * 0.9)
            pos, h, _ = track.frames(np.asarray([s0]))
            normal = np.asarray([-np.sin(h[0]), np.cos(h[0])])
            (s,), (e,), _ = track.project_many((pos[0] + e0 * normal)[None])
            # Frames interpolate vertex headings, so the offset point is
            # not exactly along a polyline normal; allow a small shift.
            assert abs(track.progress_delta(s, s0)) < 0.25
            assert abs(e - e0) < 0.05

    def test_sign_convention_left_is_positive(self):
        track = circle_track(100.0)
        # Counterclockwise circle: the center is to the left of travel.
        inner = np.asarray([97.0, 0.0])
        outer = np.asarray([103.0, 0.0])
        _, (e_inner,), _ = track.project_many(inner[None])
        _, (e_outer,), _ = track.project_many(outer[None])
        assert e_inner > 0
        assert e_outer < 0

    def test_far_point_rejected(self):
        track = circle_track(100.0)
        with pytest.raises(ValueError, match="farther"):
            track.project_many(np.asarray([[500.0, 500.0]]))

    def test_batch_matches_scalar(self):
        track = gen_track("random", seed=11)
        rng = np.random.default_rng(2)
        pts = track.points[rng.choice(len(track.points), 10)] + rng.normal(0, 2.0, (10, 2))
        s_b, e_b, h_b = track.project_many(pts)
        for i, p in enumerate(pts):
            (s,), (e,), (h,) = track.project_many(p[None])
            assert s == s_b[i] and e == e_b[i] and h == h_b[i]


def _project_with_the_loop(track, pts):
    """project_many's dense search with its former refinement: one loop
    pass per candidate segment, keeping strictly shorter distances."""
    n = len(track.points)
    nearest, _ = track._nearest_dense(pts)
    best_s = np.zeros(len(pts))
    best_d2 = np.full(len(pts), np.inf)
    best_q = np.zeros_like(pts)
    for off in (-2, -1, 0, 1):
        i = (nearest + off) % n
        a = track.points[i]
        ab = track.points[(i + 1) % n] - a
        denom = (ab * ab).sum(axis=1)
        t = np.clip(((pts - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        q = a + t[:, None] * ab
        dd = ((pts - q) ** 2).sum(axis=1)
        better = dd < best_d2
        best_d2 = np.where(better, dd, best_d2)
        best_s = np.where(better, track.s_points[i] + t * np.sqrt(denom), best_s)
        best_q = np.where(better[:, None], q, best_q)
    s = track.wrap(best_s)
    _, h, _ = track.frames(s)
    d = pts - best_q
    return s, np.cos(h) * d[:, 1] - np.sin(h) * d[:, 0], h


class TestBatchedRefinement:
    """project_many against the per-segment loop it replaced."""

    @pytest.mark.parametrize("batch", [1, 4, 20, 256, 5000])
    def test_equals_the_loop_bitwise(self, batch):
        track = gen_track("random", seed=7)
        rng = np.random.default_rng(batch)
        pts, _ = _place(track, np.stack([rng.uniform(0.0, 1.0, batch),
                                         rng.uniform(-1.2, 1.2, batch),
                                         np.zeros(batch)], axis=1))
        _assert_bitwise(track.project_many(pts), _project_with_the_loop(track, pts))

    @pytest.mark.parametrize("batch", [1, 4, 20, 256])
    def test_clamped_cars_and_headings_near_pi_equal_the_loop_bitwise(self, batch):
        # Cars off the track on either side, clamped to the wall as
        # RaceEnv.step clamps them, on stretches where the centerline
        # heading is within 0.2 rad of +pi or -pi.
        track = gen_track("random", seed=7)
        rng = np.random.default_rng(batch)
        near_pi = track.s_points[:-1][np.abs(track.headings) > np.pi - 0.2]
        s0 = rng.choice(near_pi, batch) + rng.uniform(0.0, 2.0, batch)
        side = rng.choice([-1.0, 1.0], batch) * rng.uniform(1.05, 1.5, batch)
        pts, _ = _place(track, np.stack([s0 / track.length, side, np.zeros(batch)], axis=1))
        car = initial_state(pts, np.zeros(batch), np.full(batch, 20.0))
        car = enforce_track_limits(car, track, VehicleParams(), *track.project_many(pts))
        assert car.wall_contact.all()
        got = track.project_many(car.position)
        assert np.abs(np.abs(got[2]) - np.pi).max() < 0.25
        _assert_bitwise(got, _project_with_the_loop(track, car.position))

    def test_an_exact_tie_goes_to_the_earlier_segment(self):
        # A 128 m square of 8 m segments: every coordinate, projection and
        # distance below is exact. (126, 2) lies 2 m from the bottom side
        # and 2 m from the right side, which meet at vertex 16 (128, 0).
        side = np.arange(0.0, 128.0, 8.0)
        zero, top = np.zeros(16), np.full(16, 128.0)
        pts = np.concatenate([np.stack([side, zero], 1), np.stack([top, side], 1),
                              np.stack([128.0 - side, top], 1), np.stack([zero, 128.0 - side], 1)])
        track = Track(pts, 3.0)
        point = np.array([[126.0, 2.0]])
        got = track.project_many(point)
        _assert_bitwise(got, _project_with_the_loop(track, point))
        assert got[0][0] == 126.0  # the bottom side; the right side gives 130


def _stadium(radius, straight):
    """Straights of a length at y = -radius and y = +radius, joined by half
    circles, with vertices about 2.5 m apart; counterclockwise."""
    arc = np.linspace(-np.pi / 2, np.pi / 2, 720, endpoint=False)
    right = np.stack([straight / 2 + radius * np.cos(arc), radius * np.sin(arc)], axis=1)
    top = np.stack([np.linspace(straight / 2, -straight / 2, 720, endpoint=False),
                    np.full(720, radius)], axis=1)
    return Track(track_mod._resample_closed(np.concatenate([right, top, -right, -top]), 2.5), 6.0)


@st.composite
def _courses(draw):
    """Random courses over seed, roughness and radius, and circles and
    stadiums; small circles put every vertex within 10 * half_width of the
    center, where all vertices tie."""
    shape = draw(st.sampled_from(["random", "circle", "oval"]))
    if shape == "random":
        return gen_track("random", seed=draw(st.integers(0, 10_000)),
                         roughness=draw(st.floats(0.0, 0.45)), radius=draw(st.floats(60.0, 260.0)))
    if shape == "circle":
        return circle_track(draw(st.floats(15.0, 200.0)))
    return _stadium(draw(st.floats(20.0, 120.0)), draw(st.floats(0.0, 300.0)))


# One car: arclength as a fraction of the lap (some just either side of
# the start line, so windows wrap past vertex 0), lateral offset in half
# widths (on the track, at a wall, or off it beyond 10 half widths), and
# how far behind the car its hint lies in meters: up to one control step
# of v_cap * dt = 4.5 m, either way across the window's edges (about 25 m
# at 2.5 m spacing), or far enough to force the dense search.
_CARS = st.lists(
    st.tuples(
        st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(-0.01, 0.01)),
        st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 12.0)),
        st.one_of(st.floats(0.0, 4.5), st.floats(-40.0, 40.0), st.floats(50.0, 2000.0)),
    ),
    min_size=1, max_size=24,
)


def _place(track, cars):
    """World points and hints for (lap fraction, offset, hint lag) cars."""
    frac, offset, lag = np.asarray(cars, dtype=np.float64).T
    s0 = track.wrap(frac * track.length)
    pos, h, _ = track.frames(s0)
    normal = np.stack([-np.sin(h), np.cos(h)], axis=1)
    return pos + (offset * track.half_width)[:, None] * normal, track.wrap(s0 - lag)


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestWindowedProjection:
    """project_many with a hint against the dense search, its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_courses(), _CARS)
    def test_hint_gives_the_dense_answer_bitwise(self, track, cars):
        pts, hint = _place(track, cars)
        try:
            want = track.project_many(pts)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                track.project_many(pts, s_hint=hint)
            assert str(got.value) == str(exc)
            return
        _assert_bitwise(track.project_many(pts, s_hint=hint), want)
        _assert_bitwise(track._nearest_windowed(pts, hint), track._nearest_dense(pts))

    def test_far_point_raises_the_same_error_with_a_hint(self):
        track = gen_track("random", seed=4)
        pts, hint = _place(track, [(0.3, 0.0, 1.0), (0.6, 10.5, 1.0), (0.9, 0.5, 1.0)])
        with pytest.raises(ValueError, match="farther") as dense:
            track.project_many(pts)
        with pytest.raises(ValueError, match="farther") as hinted:
            track.project_many(pts, s_hint=hint)
        assert str(hinted.value) == str(dense.value)

    def test_only_rows_that_fail_the_check_get_the_dense_search(self, monkeypatch):
        track = gen_track("random", seed=8)
        cars = [(0.1, 0.2, 1.0), (0.4, -0.9, 400.0), (0.7, 1.0, 4.5), (0.95, 0.0, 900.0)]
        pts, hint = _place(track, cars)
        want = track.project_many(pts)
        seen = []
        dense = Track._nearest_dense

        def spy(self, rows):
            seen.append(rows.copy())
            return dense(self, rows)

        monkeypatch.setattr(Track, "_nearest_dense", spy)
        _assert_bitwise(track.project_many(pts, s_hint=hint), want)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], pts[[1, 3]])

    def test_hint_across_the_infield_gets_the_dense_answer(self):
        # Straights at y = -20 and y = +20. The points sit 18 m above the
        # lower one; each hint is on the upper one, whose nearest window
        # vertex is then 22 m away and mid-window, so only the clearance
        # check can reject it.
        track = _stadium(radius=20.0, straight=200.0)
        x = np.linspace(-50.0, 50.0, 11)
        pts = np.stack([x, np.full(11, -2.0)], axis=1)
        hint, _, _ = track.project_many(np.stack([x, np.full(11, 20.0)], axis=1))
        want = track.project_many(pts)
        assert (track.points[track._nearest_dense(pts)[0], 1] < 0).all()
        _assert_bitwise(track.project_many(pts, s_hint=hint), want)

    def test_ties_across_vertex_zero_go_to_the_lowest_index(self):
        # Vertex k mirrors vertex P-1-k across the x axis, so points on the
        # positive x axis are exactly as far from vertex 0 as from vertex
        # P-1, and every window around them wraps past vertex 0.
        half = 126
        ang = 2.0 * np.pi * (np.arange(half) + 0.5) / (2 * half)
        upper = 100.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        track = Track(np.concatenate([upper, upper[::-1] * [1.0, -1.0]]), 6.0)
        pts = np.stack([np.linspace(95.0, 105.0, 9), np.zeros(9)], axis=1)
        for hint in (0.0, 2.0, track.length - 2.0):
            nearest, _ = track._nearest_windowed(pts, np.full(9, hint))
            np.testing.assert_array_equal(nearest, 0)
            np.testing.assert_array_equal(nearest, track._nearest_dense(pts)[0])

    @pytest.mark.parametrize("shape", ["circle", "oval", "random"])
    def test_clearance_is_the_nearest_vertex_beyond_the_skip(self, shape):
        if shape == "circle":
            track = circle_track(30.0)
        else:
            track = _stadium(30.0, 250.0) if shape == "oval" else gen_track(shape, radius=30.0)
        n = len(track.points)
        gap = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        far = np.minimum(gap, n - gap) > track_mod.CLEAR_SKIP
        d2 = ((track.points[:, None, :] - track.points[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(track.clearance_sq, np.where(far, d2, np.inf).min(axis=1))


def _observe_one(track, s0, speed):
    """Place one car on the centerline at s0, along the track, and return
    its first observation (the env's batched features) and the episode."""
    ecfg = EpisodeConfig()
    env = RaceEnv(track, VehicleParams(), ecfg)
    pos, heading, _ = track.frames(np.asarray([s0]))
    obs = env.reset(pos, heading, np.asarray([speed]))
    return obs[0], env, ecfg


def _preview(obs, ecfg):
    """Curvature samples (N,) and lookahead points (3, n, 2) from one
    observation: left wall, right wall, centerline, in the body frame."""
    n_curv, n_look = ecfg.curvature_count, ecfg.lookahead_count
    look = obs[10 + n_curv : 10 + n_curv + 6 * n_look].reshape(3, n_look, 2)
    return obs[8 : 8 + n_curv], look


class TestFeatureSamples:
    """The preview features that RaceEnv computes for every car at once."""

    def test_curvature_preview_collapses_at_zero_speed(self):
        track = gen_track("random", seed=5)
        obs, env, ecfg = _observe_one(track, 123.4, 0.0)
        curv, _ = _preview(obs, ecfg)
        _, _, c_here = track.frames(env.s)
        assert curv.shape == (10,)
        np.testing.assert_array_equal(curv, np.float32(c_here[0]))

    def test_curvature_preview_spacing(self):
        track = circle_track(120.0)
        obs, _, ecfg = _observe_one(track, 0.0, 30.0)
        curv, _ = _preview(obs, ecfg)
        assert np.allclose(curv, 1.0 / 120.0, rtol=1e-6)

    def test_lookahead_identity_frame(self):
        track = circle_track(100.0)
        obs, _, ecfg = _observe_one(track, 0.0, 20.0)
        _, pts = _preview(obs, ecfg)
        assert pts.shape == (3, 5, 2)
        # Walls sit half_width left/right of center in the body frame.
        left, right, center = pts.astype(np.float64)
        gaps_l = np.linalg.norm(left - center, axis=1)
        gaps_r = np.linalg.norm(right - center, axis=1)
        assert np.allclose(gaps_l, track.half_width, atol=1e-4)
        assert np.allclose(gaps_r, track.half_width, atol=1e-4)
        # All preview points are ahead of the car.
        assert (center[:, 0] > 0).all()

    def test_lookahead_at_zero_speed_stays_at_s(self):
        track = gen_track("random", seed=9)
        obs, _, ecfg = _observe_one(track, 50.0, 0.0)
        _, pts = _preview(obs, ecfg)
        # The car sits on the centerline; float32 placement leaves ~1e-5 m.
        assert np.allclose(pts[2], 0.0, atol=1e-4)


class TestWrapAngle:
    def test_pi_maps_to_minus_pi(self):
        assert wrap_angle(np.pi) == -np.pi
        assert wrap_angle(-np.pi) == -np.pi

    def test_outputs_stay_in_the_closed_range(self):
        # Odd multiples of pi, and the floats either side of them, up to
        # 1e3 rad either way, where rounding can reach either end.
        odd = np.pi * np.arange(-319, 320, 2)
        a = np.concatenate([np.linspace(-1e3, 1e3, 200_001), odd,
                            np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf)])
        out = wrap_angle(a)
        # Both ends occur: the float just below -pi lands on +pi.
        assert out.min() == -np.pi and out.max() == np.pi

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3, allow_nan=False))
    def test_wraps_to_an_equal_angle_in_range(self, a):
        out = wrap_angle(a)
        assert -np.pi <= out <= np.pi
        assert abs(np.sin(out) - np.sin(a)) < 1e-9 and abs(np.cos(out) - np.cos(a)) < 1e-9


class TestProgressDelta:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0, allow_nan=False, width=64),
        st.floats(0.0, 1.0, allow_nan=False, width=64),
    )
    def test_bounded_and_antisymmetric(self, u1, u2):
        track = circle_track(100.0)
        a = u1 * track.length
        b = u2 * track.length
        d = track.progress_delta(a, b)
        assert -track.length / 2 - 1e-9 <= d < track.length / 2 + 1e-9
        if abs(abs(d) - track.length / 2) > 1e-9:
            assert abs(track.progress_delta(b, a) + d) < 1e-9

    def test_wraps_across_start_line(self):
        track = circle_track(100.0)
        near_end = track.length - 1.0
        assert abs(track.progress_delta(1.0, near_end) - 2.0) < 1e-9
        assert abs(track.progress_delta(near_end, 1.0) + 2.0) < 1e-9


class TestValidation:
    def test_too_few_points_rejected(self):
        ang = np.linspace(0, 2 * np.pi, 16, endpoint=False)
        pts = 10.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        with pytest.raises(ValueError, match="points"):
            Track(pts, 3.0)

    def test_narrow_half_width_rejected(self):
        ang = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        pts = 100.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        with pytest.raises(ValueError, match="half_width"):
            Track(pts, 1.0)

    def test_tight_curvature_rejected(self):
        # Radius 5 circle with half width 6 violates curvature * width < 1.
        ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = 5.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        with pytest.raises(ValueError):
            Track(pts, 6.0)

    def test_spacing_bounds_rejected(self):
        ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = 2000.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        with pytest.raises(ValueError, match="spacing"):
            Track(pts, 6.0)


class TestGenerationAndPersistence:
    def test_random_same_seed_is_identical(self):
        t1 = gen_track("random", seed=42)
        t2 = gen_track("random", seed=42)
        assert np.array_equal(t1.points, t2.points)

    def test_random_different_seeds_differ(self):
        t1 = gen_track("random", seed=1)
        t2 = gen_track("random", seed=2)
        assert not np.array_equal(t1.points, t2.points)

    def test_generated_tracks_satisfy_invariants(self):
        for seed in range(6):
            track = gen_track("random", seed=seed)
            assert len(track.points) >= 64
            assert np.abs(track.curvatures).max() * track.half_width < 1.0

    def test_save_load_roundtrip(self, tmp_path):
        track = gen_track("random", seed=13)
        path = tmp_path / "track.json"
        save_track(track, path)
        loaded = load_track(path)
        assert np.array_equal(loaded.points, track.points)
        assert loaded.half_width == track.half_width
        assert loaded.meta == track.meta

    def test_save_is_byte_deterministic(self, tmp_path):
        track = gen_track("random", seed=13)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_track(track, p1)
        save_track(gen_track("random", seed=13), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_preset_rejected(self):
        # random is the one construction rule; circle and oval are gone.
        for preset in ("figure8", "circle", "oval"):
            with pytest.raises(ValueError, match=f"unknown track preset '{preset}'"):
                gen_track(preset)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown track parameters"):
            gen_track("random", radius=100.0, bogus=3)
