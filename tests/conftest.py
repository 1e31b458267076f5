import numpy as np
import pytest

HALF_PI = np.pi / 2
# Slack of the box bounds, for rows that reach a face only up to rounding
MEMBER_TOL = 1e-9


def circle_waypoints(radius=2.0, span=np.pi / 2, count=16, n=3):
    """Waypoints on a circle arc in the (1,2)-plane."""
    th = np.linspace(0.0, span, count)
    w = np.zeros((count, n))
    w[:, 0] = radius * np.cos(th)
    w[:, 1] = radius * np.sin(th)
    return w


def wavy_map():
    """The realized map of 12 waypoints on r = 2 + 0.3 sin 2 theta, k_max 3:
    30 interpolation shells among its 63."""
    from qcmaps import realizer

    th = np.linspace(0.0, np.pi / 2, 12)
    r = 2.0 + 0.3 * np.sin(2.0 * th)
    w = np.stack([r * np.cos(th), r * np.sin(th), np.zeros_like(th)], axis=1)
    return realizer.build_map(realizer.plan_paths(realizer.TargetSet(waypoints=w), 3), n=3)


@pytest.fixture(autouse=True)
def numpy_state_kept():
    """Fail a test that leaves numpy's ufunc buffer size or floating-point
    error handling other than it found them.  That state belongs to the
    thread, so a leak would change every later test; the fixture puts it
    back before failing."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    np.setbufsize(before[0])
    np.seterr(**before[1])
    assert after == before, f"numpy state leaked: {before} -> {after}"


@pytest.fixture(scope="session")
def quarter_circle_map():
    """Realized map for the radius-2 quarter circle, k_max = 5 (shared)."""
    from qcmaps import realizer

    target = realizer.TargetSet(waypoints=circle_waypoints())
    plans = realizer.plan_paths(target, 5)
    return realizer.build_map(plans, n=3), target, plans


def last_axis_stretch(y, K):
    """The stretch by K along the last coordinate axis: ``oriented_stretch``
    with a frame whose first column is e_n."""
    from qcmaps.canonical_maps import StretchSpec, oriented_stretch
    from qcmaps.vecgeom import frame_from_direction

    n = np.shape(y)[-1]
    frame = frame_from_direction(np.eye(n)[-1])
    return oriented_stretch(y, StretchSpec(K=K, frame=frame))


def assert_fundamental(x, tol=MEMBER_TOL):
    """Assert that every row of x lies in the two-box fundamental set: the
    closed first box, x_1 and the other chart coordinates in [-pi/2, pi/2],
    or the open second box, x_1 in (pi/2, 3pi/2) and |x_i| < pi/2.  The box
    bounds allow `tol` for rounding, except the second box's |x_i| < pi/2:
    canonical form puts a face point in the first box.  The seam x_1 = 3pi/2
    belongs to neither box; canonical form wraps it to -pi/2."""
    x = np.atleast_2d(x)
    assert np.all(np.isfinite(x)), "non-finite coordinates"
    x1 = x[:, 0]
    rest = np.abs(x[:, 1:-1]).max(axis=1)
    bad = (x1 < -HALF_PI - tol) | (x1 >= 3 * HALF_PI + tol) | (rest > HALF_PI + tol)
    bad |= (x1 > HALF_PI + tol) & (rest >= HALF_PI)
    assert not bad.any(), f"rows outside the fundamental set: {x[bad]}"
