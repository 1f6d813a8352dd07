from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_library_use_block(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines
    assert all("'C001'" in line and "causal" in line for line in lines)
