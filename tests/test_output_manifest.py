"""The manifest comparison of ``tools/output_manifest.py``, on hand-written
manifests; no workload command runs."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_manifest.py"
_SPEC = importlib.util.spec_from_file_location("output_manifest", _PATH)
output_manifest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_manifest)


def _manifest(files, commands):
    return {"seeds": [1], "threads": 1, "commands": commands, "files": files}


def _ok(*warnings):
    return {"code": 0, "warnings": list(warnings)}


A = _manifest(
    {"w/1/00-eigen/summary.json": "aa",
     "w/1/00-eigen/data.csv": "bb",
     "w/1/01-verify/summary.json": "cc",
     "w/1/01-verify/left.csv": "dd"},
    {"w/1/00-eigen": _ok(), "w/1/01-verify": _ok(),
     "w/1/02-barrier": _ok("mass 0.98")})
B = _manifest(
    {"w/1/00-eigen/summary.json": "aa",
     "w/1/00-eigen/data.csv": "b2",
     "w/1/01-verify/summary.json": "cc",
     "w/1/01-verify/right.csv": "ee"},
    {"w/1/00-eigen": _ok(), "w/1/01-verify": {"code": 3, "warnings": []},
     "w/1/02-barrier": _ok("mass 0.99")})


def test_compare_lists_every_difference():
    # five files in the union, two of them identical; then the files in
    # key order, and the commands whose exit code or warnings differ
    assert output_manifest.compare(A, B) == [
        "2 of 5 identical",
        "differs: w/1/00-eigen/data.csv",
        "only in A: w/1/01-verify/left.csv",
        "only in B: w/1/01-verify/right.csv",
        "command w/1/01-verify: A {'code': 0, 'warnings': []} "
        "B {'code': 3, 'warnings': []}",
        "command w/1/02-barrier: A {'code': 0, 'warnings': ['mass 0.98']} "
        "B {'code': 0, 'warnings': ['mass 0.99']}",
    ]


def test_compare_of_a_manifest_with_itself():
    assert output_manifest.compare(A, A) == ["4 of 4 identical"]
    # a command on one side only is named with None on the other
    lone = _manifest(A["files"], {"w/1/00-eigen": _ok()})
    assert output_manifest.compare(lone, _manifest(A["files"], {})) == [
        "4 of 4 identical",
        "command w/1/00-eigen: A {'code': 0, 'warnings': []} B None"]
