"""Hash the output files of the benchmark workloads, or compare two manifests.

    python tools/output_manifest.py [--root DIR] [--seeds 1 5 7] [--threads N]
    python tools/output_manifest.py --compare A.json B.json

The first form runs every command of ``perfbench/workloads.py`` in process
through ``nonlocal_dv.cli.main``, the package and the workloads both taken
from the checkout at ``--root`` (by default the one holding this script),
with outputs in a temporary directory.  It prints a JSON manifest: the
sha256 of each output file, and each command's exit code and the text of
every warning it raised.  ``--threads`` is passed on to each command; without
it the BLAS pool keeps its size.  The second form prints "k of n identical"
over the files of two manifests, then each file that differs or is on one
side only, and each command whose exit code or warnings differ; it exits
with status 1 when it names any, and 0 when the manifests agree.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path


def manifest(root: Path, seeds: list[int], threads: int | None) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from nonlocal_dv import cli
    import workloads

    flags = [] if threads is None else ["--threads", str(threads)]
    files, commands = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in workloads.WORKLOADS.items():
            for seed in seeds:
                for k, cmd in enumerate(make(seed)):
                    key = f"{name}/{seed}/{k:02d}-{cmd.label}"
                    out = Path(tmp, key)
                    config = out.with_suffix(".json")
                    config.parent.mkdir(parents=True, exist_ok=True)
                    config.write_text(json.dumps(cmd.config))
                    argv = [cmd.command, "--config", str(config), "--output-dir",
                            str(out), *flags, *cmd.extra_args]
                    with warnings.catch_warnings(record=True) as caught, \
                            contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        warnings.simplefilter("always")
                        code = cli.main(argv)
                    commands[key] = {"code": code,
                                     "warnings": [str(w.message) for w in caught]}
                    for path in sorted(out.iterdir()) if out.is_dir() else ():
                        files[f"{key}/{path.name}"] = hashlib.sha256(
                            path.read_bytes()).hexdigest()
    return {"seeds": seeds, "threads": threads, "commands": commands,
            "files": files}


def compare(a: dict, b: dict) -> list[str]:
    fa, fb = a["files"], b["files"]
    same = sum(fa[k] == fb.get(k) for k in fa)
    lines = [f"{same} of {len(fa.keys() | fb.keys())} identical"]
    for key in sorted(fa.keys() | fb.keys()):
        if key not in fb or key not in fa:
            lines.append(f"only in {'A' if key in fa else 'B'}: {key}")
        elif fa[key] != fb[key]:
            lines.append(f"differs: {key}")
    for key in sorted(a["commands"].keys() | b["commands"].keys()):
        ca, cb = a["commands"].get(key), b["commands"].get(key)
        if ca != cb:
            lines.append(f"command {key}: A {ca} B {cb}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 5, 7])
    parser.add_argument("--threads", type=int)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines))
        return 1 if lines[1:] else 0
    print(json.dumps(manifest(args.root.resolve(), args.seeds, args.threads),
                     indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
