"""Every command line of `tools/golden.py`, run in this process, against the
committed manifest `tools/golden.sha256`: each output file, exit code,
stdout and stderr byte for byte."""

import importlib.util
from pathlib import Path

import numpy as np

_GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _GOLDEN)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_capture_matches_committed_manifest(tmp_path):
    golden.capture(tmp_path / "capture")
    made_with, want = golden.read_manifest(golden.COMMITTED)
    _, got = golden.read_manifest(tmp_path / "capture" / golden.MANIFEST)
    differ = golden.differing(want, got)
    note = ("" if made_with == np.__version__ else
            f"; the manifest was made with numpy {made_with}, this run uses {np.__version__}")
    assert not differ, (f"{len(differ)} of {len(want.keys() | got.keys())} golden files "
                        f"differ from {golden.COMMITTED.name} (A){note}:\n"
                        + "\n".join(differ))
