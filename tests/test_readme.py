"""The README's library quick start runs as written."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_quick_start_runs():
    namespace: dict = {}
    exec(compile(quick_start_block(), str(README), "exec"), namespace)
    assert namespace["val"] == pytest.approx(2.0, abs=1e-10)
    assert namespace["residual"] < 1e-8
    assert isinstance(namespace["fitted_r1"], float)
    assert namespace["one_site"] == pytest.approx(1.0, abs=1e-8)
