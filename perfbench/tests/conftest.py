import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import generate  # noqa: E402

# Small enough to generate and run in about a second; every generator path
# (fallback hops, empty and two-entity segments, unmapped items) is on.
TINY = generate.Spec(
    nodes=400, edges=1600, out_skew=0.5, in_skew=0.8, items=60,
    min_segments=4, max_segments=5, fallback_share=0.2, no_entity_share=0.1,
    unmapped_share=0.1, two_entity_share=0.1, batches=6, batch_size=20,
    transport="mock", workers=1, chunk=10, step_s=0.05,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(generate.WORKLOADS, "tiny", TINY)
    return "tiny"
