import numpy as np
import pytest


def circle_waypoints(radius=2.0, span=np.pi / 2, count=16, n=3):
    """Waypoints on a circle arc in the (1,2)-plane."""
    th = np.linspace(0.0, span, count)
    w = np.zeros((count, n))
    w[:, 0] = radius * np.cos(th)
    w[:, 1] = radius * np.sin(th)
    return w


@pytest.fixture(scope="session")
def quarter_circle_map():
    """Realized map for the radius-2 quarter circle, k_max = 5 (shared)."""
    from qcmaps import realizer

    target = realizer.TargetSet(waypoints=circle_waypoints())
    plans = realizer.plan_paths(target, 5)
    return realizer.build_map(plans, n=3), target, plans
