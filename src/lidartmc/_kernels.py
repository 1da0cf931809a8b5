"""The zone-containment rule, :func:`zone_hits`, in numpy.

``ingest`` cuts each parse chunk to its zone rows with it and
``counting`` finds each zone's triggers with it; it lives here because
``counting`` imports ``ingest``.
"""

from __future__ import annotations

import numpy as np

# ``perfbench/run.py`` records it with every result, until ROADMAP item 1.
NUMBA_ENABLED = False


def zone_hits(north: np.ndarray, east: np.ndarray, zones) -> np.ndarray:
    """(points, zones): is each NED point (north, east) inside each of
    ``zones``? Boundary-inclusive.

    Each point is expressed in zone-local axes (u along the zone's length
    at angle ``yaw`` from north, v across) and tested against the half
    extents. One zone at a time, so the temporaries stay the size of one
    column. The cosines and sines are taken over the array of yaws: a
    scalar ``np.cos`` may differ from it in the last bit, which would
    move boundary hits.
    """
    yaw = np.array([z.yaw for z in zones])
    cos, sin = np.cos(yaw), np.sin(yaw)
    out = np.empty((len(north), len(zones)), dtype=bool)
    for j, z in enumerate(zones):
        dn = north - z.center.north
        de = east - z.center.east
        u = dn * cos[j] + de * sin[j]
        v = -dn * sin[j] + de * cos[j]
        np.logical_and(np.abs(u) <= z.half_length, np.abs(v) <= z.half_width, out=out[:, j])
    return out
