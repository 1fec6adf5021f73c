"""The names the benchmark's traced run rebinds, checked in the main suite.

perfbench wraps module-level names of dpgs (RELEASE_WRAPS, AUDIT_WRAPS) and
every entry of audit.REGISTRY; a renamed or deleted hook would otherwise
surface only when the benchmark runs.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure  # noqa: E402

from dpgs import audit  # noqa: E402


def test_every_wrapped_name_exists_and_is_callable():
    for module, name, layer in measure.RELEASE_WRAPS + measure.AUDIT_WRAPS:
        assert callable(getattr(module, name, None)), (module.__name__, name, layer)


def test_registry_matches_the_benchmark_checks():
    assert set(audit.REGISTRY) == set(measure.AUDIT_CHECKS)
