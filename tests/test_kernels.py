import numpy as np

from lidartmc import _kernels
from lidartmc.geo import NedPoint
from lidartmc.intersection import Approach, Movement, Zone, ZoneKind
from oracle import point_in_zone


def random_workload(rng, n=500, z=8):
    pn = rng.uniform(-60, 60, n)
    pe = rng.uniform(-60, 60, n)
    zn = rng.uniform(-30, 30, z)
    ze = rng.uniform(-30, 30, z)
    yaw = rng.uniform(-np.pi, np.pi, z)
    zhl = rng.uniform(2, 8, z)
    zhw = rng.uniform(1, 4, z)
    return pn, pe, zn, ze, yaw, zhl, zhw


def test_containment_matches_numpy_reference():
    # The kernel against the scalar oracle, point by point and zone by zone.
    rng = np.random.default_rng(21)
    for _ in range(5):
        pn, pe, zn, ze, yaw, zhl, zhw = random_workload(rng)
        got = _kernels.points_in_zones(pn, pe, zn, ze, np.cos(yaw), np.sin(yaw), zhl, zhw)
        assert got.shape == (500, 8)
        zones = [
            Zone(f"Z{j}", ZoneKind.INGRESS, NedPoint(zn[j], ze[j], 0.0), zhl[j], zhw[j],
                 yaw[j], ((Approach.NB, Movement.THRU),))
            for j in range(len(zn))
        ]
        ref = [[point_in_zone(NedPoint(n, e, 0.0), z) for z in zones] for n, e in zip(pn, pe)]
        assert got.tolist() == ref


def test_containment_boundary_inclusive():
    # Axis-aligned zone, point exactly on the length boundary.
    pn = np.array([4.0, 4.0000001, 0.0])
    pe = np.array([0.0, 0.0, 1.75])
    args = (pn, pe, np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1),
            np.array([4.0]), np.array([1.75]))
    got = _kernels.points_in_zones(*args)
    assert got[:, 0].tolist() == [True, False, True]

