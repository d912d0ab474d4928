"""Benchmark of the nonlocal-dv command line, run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each pass of a workload runs in a fresh worker process (``worker.py``), so
the peak resident memory of that process is the memory of one pass and
nothing else.  Passes repeat while the next one is expected to finish
within ``--seconds``; at least two run, so that every output can be compared
byte for byte with the same command's output from another pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs untraced and traced passes in pairs and reports the
per-layer metrics from the traced ones.  The last line of standard output
is the result object.  The spans of every traced pass, the worker reports
and a run record with the samples and the platform (BLAS threads and
versions) stay in ``.perfbench_out/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0      # a run must end within 180 s
MIN_PASSES = 2
# per command, the worker's own timing of cli.main may exceed the traced
# wall time by the cost of the wrapper around it (measured: under 10 us)
WRAPPER_S = 5e-4
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metrics the runner derives itself rather than from span totals
DERIVED = ("trace.wall_s", "trace.overhead_s", "trace.spans",
           "recovery.recover_matrix.entry_err")


def pinned_env() -> dict[str, str]:
    """Environment with every BLAS pool set to the usable core count.

    The count is set whatever the caller's shell says, so one commit always
    measures one BLAS set-up.  The workers get it at exec time: the
    variables only take effect if set before numpy loads.
    """
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_VARS, nproc))
    env.pop("NONLOCAL_DV_LOG", None)  # a caller's debug logging is not timed
    return env


def _counts(report: dict) -> dict:
    """Every span name's call count and recorded counts, times left out."""
    return {name: {k: v for k, v in entry.items() if k != "s"}
            for name, entry in report["aggregate"]["by_name"].items()}


class Bench:
    """One benchmark run: spawns workers, checks them, keeps the tallies."""

    def __init__(self, workload: str, seed: int, out: Path, per_layer: list[str]):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.per_layer = per_layer
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = pinned_env()
        self.n_commands = len(WORKLOADS[workload](seed))
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.reference: list[dict] | None = None
        self.plain: list[tuple[dict, float]] = []   # (report, peak MB)
        self.traced: list[dict] = []

    # -- workers -----------------------------------------------------------

    def spawn(self, *flags: str) -> tuple[dict | None, float]:
        """Run one worker; return its report (None if it failed) and the
        peak resident memory of its process in MB."""
        self.spawned += 1
        tag = f"w{self.spawned:02d}"
        report_path = self.out / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(self.out / tag), "--report", str(report_path),
               "--t0", repr(time.monotonic()), *flags]
        with open(self.out / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, start_new_session=True)
            status, peak_kb = self._wait(proc)
        if status != 0 or not report_path.exists():
            self.problems.append(f"worker {tag} ended with status {status}")
            return None, 0.0
        report = json.loads(report_path.read_text())
        shutil.rmtree(self.out / tag, ignore_errors=True)  # hashed already
        self.setup.append(report["setup_s"])
        return report, peak_kb / 1024.0

    def _wait(self, proc: subprocess.Popen) -> tuple[int, int]:
        """Reap the worker with its own rusage; kill it past the deadline."""
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss
            if time.monotonic() > self.deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss
            time.sleep(0.02)

    # -- checks ------------------------------------------------------------

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_pass(self, report: dict | None) -> bool:
        """Count the pass's commands; a command fails on a bad exit code,
        on outputs outside tolerance, or on outputs that differ from the
        first pass of this seed."""
        self.attempted += self.n_commands
        if report is None:
            self.failed += self.n_commands
            return False
        runs = report["commands"]
        if self.reference is None:
            self.reference = runs
        for run, ref in zip(runs, self.reference):
            problem = run["problem"]
            if not problem and run["hashes"] != ref["hashes"]:
                problem = "outputs differ between passes of one seed"
            if problem:
                self._fail(f"{run['label']}: {problem.strip()[-400:]}")
        return True

    def check_trace(self, report: dict) -> None:
        """One more operation per traced pass: the traced wall time must
        match the worker's own timing of the same pass, the self times must
        cover it, and its counts must repeat exactly."""
        self.attempted += 1
        agg = report["aggregate"]
        values = tracing.layer_metrics(agg, self.per_layer)
        gap = tracing.unattributed(agg, values)
        missed = report["wall_s"] - agg["wall_s"]
        if not 0 <= missed <= WRAPPER_S * self.n_commands:
            self._fail(f"{missed:.3e} s of the pass's wall time not traced")
        elif abs(gap) > 1e-9 * max(1.0, agg["wall_s"]):
            self._fail(f"{gap:.3e} s of traced wall time not in a metric")
        elif self.traced and _counts(self.traced[0]) != _counts(report):
            self._fail("counts differ between traced passes of one seed")

    # -- loop --------------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        rounds = 0
        while True:
            report, peak = self.spawn()
            if self.check_pass(report):
                self.plain.append((report, peak))
            if trace:
                report, _ = self.spawn("--trace")
                if self.check_pass(report):
                    self.check_trace(report)
                    self.traced.append(report)
            rounds += 1
            elapsed = time.monotonic() - start
            per_round = elapsed / rounds
            if self.deadline - time.monotonic() < 1.5 * per_round:
                break
            if (rounds * (1 + trace) >= MIN_PASSES
                    and elapsed + per_round > seconds):
                break
        if not self.plain or (trace and not self.traced):
            self._fail("no complete pass")

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(r["wall_s"] for r, _ in self.plain),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": statistics.median(m for _, m in self.plain),
            "pass_ratio": 1.0 - self.failed / self.attempted,
        }

    def layers(self) -> dict[str, float]:
        per_pass = [tracing.layer_metrics(r["aggregate"], self.per_layer)
                    for r in self.traced]
        values = {k: statistics.median(v[k] for v in per_pass)
                  for k in self.per_layer if k not in DERIVED}
        traced_wall = statistics.median(r["aggregate"]["wall_s"]
                                        for r in self.traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(
            r["wall_s"] for r, _ in self.plain)
        values["trace.spans"] = statistics.median(
            r["aggregate"]["spans"] for r in self.traced)
        values["recovery.recover_matrix.entry_err"] = max(
            (c["entry_err"] for c in self.traced[0]["commands"]
             if "entry_err" in c), default=0.0)
        return values

    def record(self, metrics: dict) -> None:
        """Keep what the result line has no room for next to the traces."""
        first = self.plain[0][0] if self.plain else {}
        record = {
            "workload": self.workload, "seed": self.seed,
            "metrics": metrics, "problems": self.problems,
            "wall_s_samples": [r["wall_s"] for r, _ in self.plain],
            "peak_rss_mb_samples": [m for _, m in self.plain],
            "traced_wall_s_samples": [r["aggregate"]["wall_s"]
                                      for r in self.traced],
            "setup_s_samples": self.setup,
            "command_seconds": [{c["label"]: c["seconds"]
                                 for c in r["commands"]} for r, _ in self.plain],
            "env": first.get("env"),
        }
        (self.out / "run.json").write_text(json.dumps(record, indent=1))
        print("env " + json.dumps(record["env"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nonlocal_dv" / "cli.py").is_file():
        print("src/nonlocal_dv/cli.py not found: run from the root of a "
              "nonlocal-dv checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, out,
                  [m["name"] for m in spec["per_layer"]])
    bench.measure(args.seconds, bool(args.trace))
    values = {}
    if bench.plain and (bench.traced or not args.trace):
        values = bench.layers() if args.trace else bench.end_to_end()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    bench.record(metrics)
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
