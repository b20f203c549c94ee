"""Every command line of `tools/golden.py`, run in this process, against the
committed manifest `tools/golden.sha256`: each output file, exit code,
stdout and stderr byte for byte."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _GOLDEN)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_capture_matches_committed_manifest(tmp_path):
    differ = golden.check(tmp_path / "capture")
    assert differ == [], (f"golden files differ from {golden.COMMITTED.name} (A):\n"
                          + "\n".join(differ))


def test_check_names_each_differing_file(tmp_path, monkeypatch):
    head, first, second, *rest = golden.COMMITTED.read_text().splitlines()
    digest, name = first.split("  ")
    altered = f"{'0' if digest[0] != '0' else '1'}{digest[1:]}  {name}"
    manifest = tmp_path / "golden.sha256"
    manifest.write_text("\n".join([head, altered, *rest]) + "\n")
    monkeypatch.setattr(golden, "COMMITTED", manifest)
    assert golden.check(tmp_path / "capture") == [
        f"differs: {name}", f"only in B: {second.split('  ')[1]}"]


def test_command_line_captures_the_tree_next_to_it(tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(_GOLDEN), "OUT"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"0 files differ from {golden.COMMITTED.name}\n"
    assert (tmp_path / "OUT" / golden.MANIFEST).read_bytes() == golden.COMMITTED.read_bytes()
