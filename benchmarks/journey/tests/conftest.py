"""Tests of the journey benchmark itself.

Run explicitly — they are not part of the tier-1 ``testpaths``::

    python3 -m pytest benchmarks/journey/tests
"""

import pathlib
import sys

JOURNEY = pathlib.Path(__file__).resolve().parents[1]
ROOT = JOURNEY.parents[1]

for path in (ROOT / "src", JOURNEY):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
