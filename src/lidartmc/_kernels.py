"""``perfbench/run.py`` records :data:`NUMBA_ENABLED` with every result,
and no package module imports this one. It goes when the benchmark stops
reading the flag (ROADMAP item 2).
"""

NUMBA_ENABLED = False
