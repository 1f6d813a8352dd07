"""The traced benchmark wraps program functions and methods by name.

``perfbench/instrument.py`` replaces them on install and restores them on
uninstall; this test fails when a name it wraps is renamed or deleted,
instead of only a ``--trace 1`` benchmark run crashing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import causalrag.cli  # noqa: F401  (loads every causalrag module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict:
    """Every module attribute and class attribute of the loaded causalrag modules."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "causalrag" and not name.startswith("causalrag."):
            continue
        for attr, value in vars(module).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, member_value in vars(value).items():
                    state[(name, attr, member)] = member_value
    return state


def test_benchmark_instrumentation_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    instrument = importlib.import_module("instrument")
    spans = importlib.import_module("spans")

    before = _bindings()
    inst = instrument.Instrumentation()
    try:
        inst.install(spans.Recorder())
        during = _bindings()
        replaced = {key for key, value in before.items() if during[key] is not value}
        assert ("causalrag.retrieval", "find_paths") in replaced
        assert ("causalrag.causal", "CausalGraphView", "out_edges") in replaced
        assert ("causalrag.linker", "LinkerIndex", "link") in replaced
        assert ("causalrag.graph", "shortest_path_length") in replaced
        assert ("causalrag.causal", "CausalGraphView", "member_node_ids") in replaced
    finally:
        inst.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
