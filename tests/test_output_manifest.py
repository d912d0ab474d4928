"""The manifest comparison of ``tools/output_manifest.py``, on hand-written
manifests; no workload command runs."""

import importlib.util
import json
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


def test_compare_exits_1_on_any_difference(tmp_path, capsys):
    # the --compare form is a gate: 0 only when files and commands agree
    paths = {}
    for name, man in (("a", A), ("b", B),
                      ("files", _manifest(A["files"], B["commands"]))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(man))

    def run(x, y):
        code = output_manifest.main(["--compare", str(paths[x]), str(paths[y])])
        return code, capsys.readouterr().out.splitlines()

    assert run("a", "a") == (0, ["4 of 4 identical"])
    assert run("a", "b") == (1, output_manifest.compare(A, B))
    # the same files, but commands whose exit code or warnings differ
    code, out = run("a", "files")
    assert code == 1 and out[0] == "4 of 4 identical" and len(out) == 3
