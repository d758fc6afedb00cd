"""Benchmark of `planartl verify`: the user's time to a verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; only the standard library is used and
the program is run from the checkout's `src`.  With `--trace 0` each
sample is one fresh `python -m planartl.cli verify ... --format json`
process, timed from spawn to exit, with CPU and peak RSS read from that
child's own rusage; set-up is a fresh `python -m planartl.cli --version`.
Beside them a fixed reference work runs back to back, the two trading
CPUs four times a second, and times are reported at reference speed (see
REFERENCE_SECONDS).
With `--trace 1` untraced CLI runs alternate with traced runs of the
same CLI code (perfbench/traced.py) that time each library layer, beside
the same reference work, and layer times are scaled like the others.  Every
report, traced or not, is checked against known answers
(perfbench/gate.py) and against the sha256 digest of the first report of
the invocation.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
Details of every sample go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Why each workload is here and which ROADMAP item it exposes is recorded
# in BENCHMARK.json.  `seeded` workloads take their points from the seed;
# the others are deterministic and ignore it.
WORKLOADS = {
    "symbolic-n8": {"checks": ("ddzero", "thmD"), "n_max": 8, "convention": "A", "seeded": False},
    "rank-n8": {"checks": ("homology", "fineberg"), "n_max": 8, "convention": "B", "seeded": True},
    "enumerate-n12": {"checks": ("euler", "bcounts", "bijection"), "n_max": 12, "convention": "A", "seeded": False},
}

# Generic specialization points: nonzero, not +-1, small height.  Each of
# 2, -2, +-3, +-5, +-1/2, +-3/2 passes `verify homology fineberg --n-max 8`
# in both conventions.  A seed picks the signs of 3, 5, 1/2 and 3/2 and so
# never the heights, which set the size of the integers and so the work;
# seed 0 gives 2,3,5,-2,1/2,3/2.
SIGNED_POINTS = ("3", "5", "1/2", "3/2")

VERSION_ARGV = [sys.executable, "-m", "planartl.cli", "--version"]
SETUP_PER_RUN = 5
REFERENCE_ARGV = [sys.executable, str(HERE / "reference.py")]
REFERENCE_OUTPUT = b"reference 313558 58786 630002\n"
# The speed of a shared host swings by up to a factor of two for minutes
# at a time, alike for the program and for a fixed reference work run
# beside it (reference.py).  So untraced times are reported at reference
# speed: a sample's time times REFERENCE_SECONDS over the mean time of the
# reference runs made while it ran (wall for wall, CPU for CPU).  The
# figures read as seconds on a machine where the reference work takes
# REFERENCE_SECONDS; on a shared 2-vCPU Xeon VM it took 0.6 to 1.3 s.
REFERENCE_SECONDS = 1.0
# How often the program and the reference work trade CPUs.
SWAP_SECONDS = 0.25
# Every child is killed at this many seconds after the start, so that one
# invocation ends within three minutes even if the program hangs.
HARD_SECONDS = 170.0


class BenchError(Exception):
    """The program cannot be run at all; no result is printed."""


def seeded_points(seed: int) -> list[str]:
    signs = seed * 7 % 16
    flipped = [("-" if signs >> k & 1 else "") + p for k, p in enumerate(SIGNED_POINTS)]
    return ["2", flipped[0], flipped[1], "-2", flipped[2], flipped[3]]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Let the warm-up leave bytecode in src/planartl/__pycache__, as an
    # installed copy has it, so that no run pays for compiling the modules.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Sample:
    returncode: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float
    start: float  # perf_counter() at spawn


class Pool:
    """Children running at once.  Each is timed from spawn to exit, and its
    CPU and peak RSS come from its own rusage (os.wait4), not
    RUSAGE_CHILDREN, which keeps a running maximum.  A child started on a
    lane is pinned to that lane's CPU in `cpus`; swap() trades the lanes'
    CPUs.  Every child still alive at `kill_at`, or when the pool is left,
    is killed and reaped."""

    def __init__(self, kill_at: float, cpus: tuple[int, ...] = ()):
        self.live: dict[int, tuple] = {}  # pid -> (process, tag, lane, start, stdout file)
        self.cpus = cpus
        self.swapped = 0
        self.lock = threading.Lock()
        self.timer = threading.Timer(max(kill_at - perf_counter(), 0.0), self.kill_all)

    def __enter__(self) -> "Pool":
        self.timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self.timer.cancel()
        self.kill_all()
        while self.live:
            self.reap()

    def kill_all(self) -> None:
        with self.lock:
            for pid in self.live:
                os.kill(pid, signal.SIGKILL)

    def _pin(self, pid: int, lane: int) -> None:
        try:
            os.sched_setaffinity(pid, {self.cpus[lane ^ self.swapped]})
        except ProcessLookupError:
            pass  # exited; reap() still finds it

    def swap(self) -> None:
        with self.lock:
            self.swapped ^= 1
            for pid, (_, _, lane, _, _) in self.live.items():
                if lane is not None:
                    self._pin(pid, lane)

    def start(self, argv: list[str], tag, lane: int | None = None) -> None:
        out = tempfile.TemporaryFile(dir=OUT)
        with open(OUT / "child.stderr", "ab") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        with self.lock:
            self.live[proc.pid] = (proc, tag, lane, start, out)
            if lane is not None:
                self._pin(proc.pid, lane)

    def reap(self) -> tuple[object, Sample]:
        """Wait for the next child to exit; return its tag and sample."""
        # Learn which child exited without reaping it, so that kill_all()
        # and swap() can never touch a pid that has been reaped and reused.
        pid = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT).si_pid
        with self.lock:
            proc, tag, _, start, out = self.live.pop(pid)
            _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        out.close()
        return tag, Sample(proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, start)


def spawn(argv: list[str], kill_at: float) -> Sample:
    """Run one child alone to completion."""
    with Pool(kill_at) as pool:
        pool.start(argv, None)
        return pool.reap()[1]


def verify_argv(spec: dict) -> list[str]:
    argv = [sys.executable, "-m", "planartl.cli", "verify", *spec["checks"]]
    argv += ["--n-max", str(spec["n_max"]), "--convention", spec["convention"]]
    if spec["points"] is not None:
        argv.append("--points=" + ",".join(spec["points"]))
    return argv + ["--format", "json"]


def traced_argv(spec: dict, run_id: str) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), run_id, *verify_argv(spec)[3:]]


def at_reference_speed(seconds: float, reference_seconds: float) -> float:
    return seconds * REFERENCE_SECONDS / reference_seconds


def check_reference(sample: Sample) -> Sample:
    if sample.returncode != 0 or sample.stdout != REFERENCE_OUTPUT:
        raise BenchError(f"the reference work failed (exit {sample.returncode}); see {OUT / 'child.stderr'}")
    return sample


def reference_during(sample: Sample, references: list[Sample]) -> tuple[float, float]:
    """Mean (wall, CPU) time of the reference runs that overlap `sample`,
    each weighted by how long it overlaps."""
    end = sample.start + sample.wall
    weights = [min(end, r.start + r.wall) - max(sample.start, r.start) for r in references]
    pairs = [(w, r) for w, r in zip(weights, references) if w > 0]
    total = sum(w for w, _ in pairs)
    return sum(w * r.wall for w, r in pairs) / total, sum(w * r.cpu for w, r in pairs) / total


def version_wall(sample: Sample) -> float:
    if sample.returncode != 0 or not sample.stdout.startswith(b"planartl "):
        raise BenchError(f"`planartl --version` failed (exit {sample.returncode}); see {OUT / 'child.stderr'}")
    return sample.wall


def layer_metrics(spans: list, total: float) -> dict[str, float]:
    """Self time per layer (a span's duration minus its children's),
    trace.count.s (reading counts off calls) and cli.self.s: everything
    else (interpreter start, imports, the CLI's own loops, the report)."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _) in enumerate(spans):
        if name != "trace.count" and name not in traced.LAYERS:
            raise BenchError(f"traced run recorded an unknown span {name!r}")
        self_time[name] += end - start - child_time[k]
    out = {f"{name}.s": self_time[name] for name in (*traced.LAYERS, "trace.count")}
    out["cli.self.s"] = total - sum(out.values())
    out["trace.total_s"] = total
    return out


class Session:
    """The samples of one workload in one invocation, and their verdicts."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        w = WORKLOADS[name]
        self.spec = {
            "checks": w["checks"],
            "n_max": w["n_max"],
            "convention": w["convention"],
            "points": seeded_points(seed) if w["seeded"] else None,
        }
        self.digest: str | None = None
        self.runs: list[Sample] = []
        self.layers: list[dict] = []  # layer metrics of each traced run that printed spans
        self.records: list[dict] = []
        self.scaled: list[tuple[float, float]] = []  # (wall, cpu) of each run at reference speed
        self.setup: list[float] = []  # at reference speed
        self.setup_raw: list[float] = []
        self.timeline: list[tuple[float, float, float]] = []  # (start, wall, cpu) of each reference run
        self.origin = 0.0  # perf_counter() at which the timeline's seconds start
        self.failed = 0

    def add_cli(self, sample: Sample, reference: tuple[float, float]) -> None:
        """Judge one verify run; `reference` is the (wall, CPU) time of the
        reference work beside it, by which its times are scaled."""
        digest, problems = gate.judge(sample.returncode, sample.stdout, self.spec, self.digest)
        if self.digest is None:
            self.digest = digest
        self.scaled.append((at_reference_speed(sample.wall, reference[0]), at_reference_speed(sample.cpu, reference[1])))
        self._record("cli", sample, problems, digest=digest, start_s=sample.start - self.origin,
                     reference_wall_s=reference[0], reference_cpu_s=reference[1])
        self.runs.append(sample)

    def add_setup(self, sample: Sample, reference_wall: float) -> None:
        self.setup_raw.append(sample.wall)
        self.setup.append(at_reference_speed(sample.wall, reference_wall))

    def add_traced(self, sample: Sample, reference_wall: float, run_id: str) -> None:
        problems = [] if sample.returncode == 0 else [f"exit code {sample.returncode}"]
        try:
            data = json.loads(sample.stdout)
        except ValueError:
            self._record("traced", sample, problems + ["traced run printed no JSON"])
            return
        if data.get("run_id") != run_id:
            problems.append("traced run answered for another run id")
        # The CLI's report from the traced run must be byte for byte the
        # untraced runs' report.
        digest, gated = gate.judge(data.get("exit", -1), str(data.get("report")).encode(), self.spec, self.digest)
        problems += gated
        # Layer times are scaled to reference speed like every other time.
        metrics = {name: at_reference_speed(value, reference_wall)
                   for name, value in layer_metrics(data.get("spans", []), sample.wall).items()}
        counts = data.get("counts", {})
        metrics.update({name: counts.get(name, 0) for name in traced.COUNTS})
        self.layers.append(metrics)
        self._record("traced", sample, problems, digest=digest, reference_wall_s=reference_wall)

    def set_timeline(self, references: list[Sample]) -> None:
        self.origin = references[0].start
        self.timeline = [(r.start - self.origin, r.wall, r.cpu) for r in references]

    def _record(self, kind: str, sample: Sample, problems: list[str], **extra) -> None:
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {self.name} {kind} run {len(self.records)}: {problem}", file=sys.stderr)
        self.records.append(
            {"kind": kind, "wall_s": sample.wall, "cpu_s": sample.cpu, "peak_rss_mb": sample.rss_mb,
             "exit": sample.returncode, "problems": problems, **extra}
        )

    @property
    def attempted(self) -> int:
        return len(self.records)


def run_beside_reference(job, per_round: int, stop_at: float, kill_at: float):
    """Run job(0), job(1), ... (each a (kind, argv) pair) one after another,
    and the reference work back to back beside them, each pinned to its
    own CPU, until the next round of `per_round` jobs would end past
    `stop_at`.  Every SWAP_SECONDS the two trade CPUs, so that over a run
    of seconds both have had each CPU for half the time and so have seen
    the same host.  Return the (kind, sample) of each job and the
    reference runs, which cover every job from its start to its end."""
    cpus = tuple(sorted(os.sched_getaffinity(0))[:2])
    if len(cpus) < 2:
        raise BenchError("needs two CPUs: one runs the program, one the reference work beside it")
    runs: list[tuple[str, Sample]] = []
    references: list[Sample] = []
    walls: dict[str, list[float]] = defaultdict(list)
    done = threading.Event()
    with Pool(kill_at, cpus) as pool:

        def swap_until_done() -> None:
            while not done.wait(SWAP_SECONDS):
                pool.swap()

        def start(index: int) -> None:
            kind, argv = job(index)
            pool.start(argv, (index, kind), 0)

        swapper = threading.Thread(target=swap_until_done)
        swapper.start()
        try:
            pool.start(REFERENCE_ARGV, "reference", 1)
            start(0)
            measuring = True
            while pool.live:
                tag, sample = pool.reap()
                if tag == "reference":
                    references.append(check_reference(sample))
                    if measuring:
                        pool.start(REFERENCE_ARGV, "reference", 1)
                    continue
                index, kind = tag
                if kind == "setup":
                    version_wall(sample)
                runs.append((kind, sample))
                walls[kind].append(sample.wall)
                if (index + 1) % per_round == 0:
                    next_round = sum(statistics.median(walls[job(k)[0]]) for k in range(index + 1, index + 1 + per_round))
                    if perf_counter() + next_round > stop_at:
                        # The reference run under way covers the end of this one.
                        measuring = False
                        continue
                start(index + 1)
        finally:
            done.set()
            swapper.join()
    return runs, references


def measure(session: Session, seconds: float, trace: bool) -> dict[str, tuple[float, str, int]]:
    """Run samples until the next round would end past `seconds`; return
    each metric as (median, unit, sample count)."""
    start = perf_counter()
    stop_at = start + seconds
    kill_at = start + HARD_SECONDS
    # Warm-up: writes the bytecode and fails fast if the program cannot start.
    version_wall(spawn(VERSION_ARGV, kill_at))
    name, seed, verify = session.name, session.seed, verify_argv(session.spec)
    if not trace:
        # SETUP_PER_RUN set-up runs before each verify run, so that their
        # median sees the same machine as the verify runs.
        def job(k: int) -> tuple[str, list[str]]:
            return ("setup", VERSION_ARGV) if k % (SETUP_PER_RUN + 1) < SETUP_PER_RUN else ("cli", verify)

        runs, references = run_beside_reference(job, SETUP_PER_RUN + 1, stop_at, kill_at)
        session.set_timeline(references)
        for kind, sample in runs:
            reference = reference_during(sample, references)
            if kind == "setup":
                session.add_setup(sample, reference[0])
            else:
                session.add_cli(sample, reference)
        return {
            "wall_s": (statistics.median(wall for wall, _ in session.scaled), "s", len(session.scaled)),
            "cpu_s": (statistics.median(cpu for _, cpu in session.scaled), "s", len(session.scaled)),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in session.runs), "MB", len(session.runs)),
            "setup_s": (statistics.median(session.setup), "s", len(session.setup)),
        }

    # Untraced CLI runs alternate with traced runs.
    def job(k: int) -> tuple[str, list[str]]:
        return ("cli", verify) if k % 2 == 0 else ("traced", traced_argv(session.spec, f"{name}:{seed}:{k // 2}"))

    runs, references = run_beside_reference(job, 2, stop_at, kill_at)
    session.set_timeline(references)
    for k, (kind, sample) in enumerate(runs):
        reference = reference_during(sample, references)
        if kind == "cli":
            session.add_cli(sample, reference)
        else:
            session.add_traced(sample, reference[0], f"{name}:{seed}:{k // 2}")
    if not session.layers:
        raise BenchError("no traced run produced spans; see the FAIL lines above")
    out = {}
    for metric in session.layers[0]:
        # Counts repeat exactly from run to run; median_low keeps them whole.
        middle = statistics.median_low if metric in traced.COUNTS else statistics.median
        out[metric] = (middle(r[metric] for r in session.layers), traced.COUNTS.get(metric, "s"), len(session.layers))
    untraced = statistics.median(wall for wall, _ in session.scaled)
    out["trace.overhead_s"] = (out["trace.total_s"][0] - untraced, "s", len(session.layers))
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    session = Session(name, seed)
    metrics = measure(session, seconds, trace)
    seeded = WORKLOADS[name]["seeded"]
    print(f"workload {name}: verify {' '.join(session.spec['checks'])} --n-max {session.spec['n_max']} "
          f"--convention {session.spec['convention']}"
          + (f" --points={','.join(session.spec['points'])}" if seeded else f" (deterministic: seed {seed} ignored)"))
    for metric, (value, unit, count) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {metric:28s} {shown} {unit:5s} median of {count}")
    error_rate = session.failed / session.attempted
    print(f"  {'error_rate':28s} {error_rate:14.6f} {'1':5s} {session.failed} failed of {session.attempted} runs")
    raw = {"wall_s": statistics.median(s.wall for s in session.runs), "cpu_s": statistics.median(s.cpu for s in session.runs),
           "reference_s": statistics.median(w for _, w, _ in session.timeline)}
    if session.setup_raw:
        raw["setup_s"] = statistics.median(session.setup_raw)
    print("  unscaled medians: " + ", ".join(f"{m} {v:.6f}" for m, v in raw.items()))
    print(f"  report sha256 {session.digest}")
    results = {
        "workload": name,
        "seed": seed,
        "seed_ignored": not seeded,
        "trace": int(trace),
        "seconds": seconds,
        "spec": session.spec,
        "command": verify_argv(session.spec)[1:],
        "environment": environment(),
        "report_sha256": session.digest,
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": error_rate,
        "metrics": {m: {"value": v, "unit": u, "samples": c} for m, (v, u, c) in metrics.items()},
        "reference_seconds": REFERENCE_SECONDS,
        "reference_runs": session.timeline,
        "setup_samples_s": session.setup_raw,
        "runs": session.records,
        "traced": session.layers,
    }
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    return session, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of planartl verify.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missed = gate.self_test()
    if missed:
        for line in missed:
            print(f"gate self-test: {line}", file=sys.stderr)
        return 3
    if not (SRC / "planartl" / "cli.py").is_file():
        print(f"error: no planartl sources at {SRC / 'planartl'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / "child.stderr").write_bytes(b"")
    # On SIGTERM, unwind through Pool, which kills and reaps its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload == "all":
            failed = 0
            for name in WORKLOADS:
                session, _ = run_workload(name, args.seed, args.seconds, bool(args.trace))
                failed += session.failed
            print("all workloads correct" if failed == 0 else f"{failed} failed runs")
            return 0 if failed == 0 else 1
        session, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if session.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
