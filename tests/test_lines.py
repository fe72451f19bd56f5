"""tools/lines.py, the code-line counter, on a tiny sample: docstrings,
comments and blank lines count 0, a line of code and a comment counts
1, and a string that is a value, not a statement, counts every line it
spans."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""A module docstring
over two lines."""
# a comment

import math  # code and a comment: one line

TEXT = """a value
over two lines"""


def root(x):
    """A function docstring."""
    # another comment

    return math.sqrt(
        x)
'''


def test_lines_counts_code_alone(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(out.stdout) == {
        "modules": {"__init__.py": 0, "sample.py": 6}, "total": 6}
