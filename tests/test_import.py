"""What ``import nhota`` loads: the benchmark times the import in a fresh
interpreter (``setup_s``), so the package must not pull in modules that only
the test suite, the check suite or the command line need."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_AT_IMPORT = ("scipy", "hypothesis", "nhota.checks", "nhota.cli")


def test_import_nhota_leaves_optional_modules_unloaded():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import nhota; "
            f"print(nhota.__file__); print(sorted(set({NOT_AT_IMPORT!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    assert Path(out[0]).resolve().parent == SRC / "nhota"
    assert out[1] == "[]"
