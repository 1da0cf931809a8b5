import numpy as np

from lidartmc import _kernels
from lidartmc.geo import NedPoint
from lidartmc.intersection import Approach, Movement, Zone, ZoneKind
from oracle import point_in_zone


def zone(j, n, e, half_length, half_width, yaw):
    return Zone(f"Z{j}", ZoneKind.INGRESS, NedPoint(n, e, 0.0), half_length, half_width,
                yaw, ((Approach.NB, Movement.THRU),))


def random_workload(rng, n=500, z=8):
    pn = rng.uniform(-60, 60, n)
    pe = rng.uniform(-60, 60, n)
    zn = rng.uniform(-30, 30, z)
    ze = rng.uniform(-30, 30, z)
    yaw = rng.uniform(-np.pi, np.pi, z)
    zhl = rng.uniform(2, 8, z)
    zhw = rng.uniform(1, 4, z)
    return pn, pe, [zone(j, zn[j], ze[j], zhl[j], zhw[j], yaw[j]) for j in range(z)]


def test_containment_matches_numpy_reference():
    # The kernel against the scalar oracle, point by point and zone by zone.
    rng = np.random.default_rng(21)
    for _ in range(5):
        pn, pe, zones = random_workload(rng)
        got = _kernels.zone_hits(pn, pe, zones)
        assert got.shape == (500, 8)
        ref = [[point_in_zone(NedPoint(n, e, 0.0), z) for z in zones] for n, e in zip(pn, pe)]
        assert got.tolist() == ref


def test_containment_boundary_inclusive():
    # Axis-aligned zone, point exactly on the length and width boundaries.
    pn = np.array([4.0, 4.0000001, 0.0, 0.0])
    pe = np.array([0.0, 0.0, 1.75, 1.7500001])
    got = _kernels.zone_hits(pn, pe, [zone(0, 0.0, 0.0, 4.0, 1.75, 0.0)])
    assert got[:, 0].tolist() == [True, False, True, False]

