"""The zone-containment kernel, in numpy.

``ingest`` cuts each parse chunk to its zone rows with it and
``counting`` finds each zone's triggers with it; it lives here because
``counting`` imports ``ingest``.
"""

from __future__ import annotations

import numpy as np

# Kept for the benchmark, which records it with every result.
NUMBA_ENABLED = False


def points_in_zones(pn, pe, zn, ze, zcos, zsin, zhl, zhw):
    """Boundary-inclusive containment matrix, shape (n_points, n_zones).

    Each point (pn, pe) is expressed in zone-local axes (u along the
    zone's length at angle ``yaw`` from north, v across) and tested
    against the half extents. One zone at a time, so the temporaries
    stay the size of one column.
    """
    out = np.empty((len(pn), len(zn)), dtype=bool)
    for j in range(len(zn)):
        dn = pn - zn[j]
        de = pe - ze[j]
        u = dn * zcos[j] + de * zsin[j]
        v = -dn * zsin[j] + de * zcos[j]
        np.logical_and(np.abs(u) <= zhl[j], np.abs(v) <= zhw[j], out=out[:, j])
    return out


def zone_hits(north: np.ndarray, east: np.ndarray, zones) -> np.ndarray:
    """(points, zones): is each NED point (north, east) inside each of
    ``zones``?"""
    yaw = np.array([z.yaw for z in zones])
    return points_in_zones(
        north,
        east,
        np.array([z.center.north for z in zones]),
        np.array([z.center.east for z in zones]),
        np.cos(yaw),
        np.sin(yaw),
        np.array([z.half_length for z in zones]),
        np.array([z.half_width for z in zones]),
    )
