"""Golden OpenMetrics expositions: the metrics registry, byte for byte.

``tests/golden/metrics/`` freezes ``render_openmetrics()`` for one
algorithm per metered family, under a wire variant (delta-varint, plus
the sieve where the family takes one) and a fault variant (the shared
golden fault schedule with ``checkpoint_every=2``).  A fresh run must
reproduce each file exactly: every metric name, type, label set,
histogram bucket and value.  Regenerate only to lock in an intentional
change, with ``python tests/golden/capture.py --metrics``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from tests.test_obs_metrics import FAMILY_ALGORITHMS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "golden_capture", GOLDEN_DIR / "capture.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

CASES = [
    (algorithm, variant)
    for algorithm in capture.METRICS_FAMILIES
    for variant in capture.metrics_variants(algorithm)
]


def test_fixtures_cover_every_metered_family():
    assert list(capture.METRICS_FAMILIES) == FAMILY_ALGORITHMS
    committed = sorted(p.name for p in capture.METRICS_DIR.glob("*.txt"))
    assert committed == sorted(
        capture.metrics_path(a, v).name for a, v in CASES
    )
    # Every family that takes faults freezes a fault variant too.
    assert sum(v == "faults" for _, v in CASES) == 5


@pytest.mark.parametrize(("algorithm", "variant"), CASES)
def test_exposition_is_byte_identical(algorithm, variant):
    golden = capture.metrics_path(algorithm, variant).read_text()
    assert capture.capture_metrics(algorithm, variant) == golden
