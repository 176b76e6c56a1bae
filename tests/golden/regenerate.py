"""Rewrite the golden CLI outputs and the library output sweep of
tests/test_golden.py from the current code, on Python 3.11 or later
(argparse titles its sections "options:").

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only for a change that alters a CLI output on purpose, and name the
change in CHANGES.md; `git diff tests/golden` shows what moved.
"""

import os
import sys
import tempfile
from pathlib import Path

os.environ["COLUMNS"] = "80"
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (CASES, GOLDEN, QLMS_RUN, SWEEP,  # noqa: E402
                         render, render_child, render_sweep)

for name, argv in CASES:
    (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
    print(f"wrote {name}.txt")
name, argv = QLMS_RUN
with tempfile.TemporaryDirectory() as directory:
    text = render_child(argv, directory)
(GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
print(f"wrote {name}.txt")
(GOLDEN / f"{SWEEP}.txt").write_text(render_sweep(), encoding="utf-8")
print(f"wrote {SWEEP}.txt")
