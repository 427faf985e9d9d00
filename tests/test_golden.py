"""Every CLI output of the golden run list hashes as tests/golden/manifest.json records."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def _triple(v: dict) -> str:
    return f"python {v['python']}, numpy {v['numpy']}, scipy {v['scipy']}"


def test_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    if manifest["versions"] != golden.versions():
        pytest.skip(f"golden manifest made with {_triple(manifest['versions'])}; "
                    f"this run has {_triple(golden.versions())}")
    got = golden.run_all(tmp_path)
    assert got["exit_codes"] == manifest["exit_codes"]
    want = manifest["files"]
    changed = sorted(p for p in want.keys() & got["files"].keys() if want[p] != got["files"][p])
    missing = sorted(want.keys() - got["files"].keys())
    extra = sorted(got["files"].keys() - want.keys())
    assert not (changed or missing or extra), (
        f"changed: {changed}; missing: {missing}; not in the manifest: {extra}")
