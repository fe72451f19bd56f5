"""Each demo script runs to completion in process and prints something."""
import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted(pathlib.Path(__file__).parent.parent.glob("demos/*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()
