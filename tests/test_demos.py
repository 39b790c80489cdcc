"""Smoke test: every script under demos/ runs to completion in-process."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    text = out.getvalue()
    assert text.strip()
    if path.stem.startswith("02_"):
        assert "-> d = 3 (expect 3)" in text
        assert "binary 5x6 code is MRD: True" in text


def test_every_demo_is_collected():
    assert len(DEMOS) >= 4
