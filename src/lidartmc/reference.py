"""Bundled reference intersection: a four-leg signalized crossing.

The packaged JSON (``data/reference_intersection.json``) is its one
definition; this module loads it and derives the long-range variant as
an edit of that document.

Geometry (NED origin at the crossing center, meters):

* 12 ingress zones, 8 m long x 3.5 m wide, one per lane group, centered
  19 m out from the origin. The north-south arterial gets a left-turn
  lane plus two thru lanes per approach; east-west gets left/thru/right.
* NB and SB right turns have no ingress coverage (the corners where they
  enter are blind to both sensors), so each is counted from a
  single-binding egress surrogate zone on its exit leg.
* 2 additional plain egress zones on the north-south exits are
  observational only.

Left-turn zones also carry the U-turn binding: both maneuvers start from
the leftmost lane, so ingress triggers cannot tell them apart and events
are labeled with the primary (Left) binding.

The schedule is a 100 s four-phase cycle repeated three times over a
(0, 300) s session: protected NS lefts, NS thru, protected EW lefts, EW
thru. Right turns are always permitted (right on red), so right zones
need no schedule entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .intersection import IntersectionConfig


def reference_config_path() -> str:
    """Filesystem path of the packaged reference config JSON."""
    return str(Path(__file__).parent / "data" / "reference_intersection.json")


# ``cli`` imports this module for the default ``--config`` path, so it
# loads no numpy: the builder imports ``intersection`` itself, and
# ``georef`` never loads ``intersection``.
def build_reference_config() -> IntersectionConfig:
    from .intersection import load_intersection_config

    return load_intersection_config(reference_config_path())


LONG_RANGE_SETBACK_M = 55.0  # past the default sensors' 40 m detection radius


def long_range_document() -> dict:
    """The packaged document with the EB/WB thru ingress centered
    :data:`LONG_RANGE_SETBACK_M` meters out."""
    with open(reference_config_path(), encoding="utf-8") as fh:
        doc = json.load(fh)
    east = {"EB_T": -LONG_RANGE_SETBACK_M, "WB_T": LONG_RANGE_SETBACK_M}
    for zone in doc["zones"]:
        if zone["id"] in east:
            zone["center"][1] = east[zone["id"]]
    return doc
