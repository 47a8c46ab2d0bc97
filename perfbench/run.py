#!/usr/bin/env python3
"""The repository benchmark: the paper's loop, timed stage by stage.

    python3 perfbench/run.py --workload gfs-fleet --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload, one table

Run from the repository root.  A workload run drives the real CLI code
path (``repro.cli.main``) in this process, runs ``repro serve``
children for the ingest phase, checks every output, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics listed
in ``BENCHMARK.json``; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

#: The seed the repository's other benches use, and the default here.
DEFAULT_SEED = 7
#: Never used while tuning the benchmark: check claims on it too.
HELD_OUT_SEED = 1009
#: Ingest records come from another simulation run than the stores.
INGEST_SEED_OFFSET = 1000
#: Set-up runs in this many processes; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Passes a run makes at least, of each kind, however short
#: ``--seconds`` is.  The first pass of a process also pays one-time
#: costs (lazy imports, the first pool fork); with three, the median
#: leaves it out.
MIN_PASSES = 3
#: A traced run alternates plain and traced passes, this many of each at
#: least: it reports no bounded metric, and must stay within the time
#: limit of a run with its slower daemons.
MIN_TRACED_PASSES = 2

GFS_REPLICAS = 4
GFS_REQUESTS = 300
WEBAPP_REQUESTS = 500
SEED_STORE_REPLICAS = 2
SEED_STORE_REQUESTS = 100
#: Commits per ingest session.
COMMITS = 40


def _gfs_collect(seed: int, out: Path) -> list[str]:
    return [
        "collect", "--app", "gfs", "--replicas", str(GFS_REPLICAS), "--workers", "1",
        "--codec", "columnar", "--requests", str(GFS_REQUESTS), "--seed", str(seed),
        "--out", str(out),
    ]


def _webapp_collect(seed: int, out: Path) -> list[str]:
    return [
        "collect", "--app", "webapp", "--requests", str(WEBAPP_REQUESTS),
        "--seed", str(seed), "--out", str(out),
    ]


def _seed_store_collect(seed: int, out: Path) -> list[str]:
    return [
        "collect", "--app", "webapp", "--replicas", str(SEED_STORE_REPLICAS),
        "--requests", str(SEED_STORE_REQUESTS), "--seed", str(seed), "--out", str(out),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    collect: Callable[[int, Path], list[str]]
    #: App whose records the ingest phase streams.
    ingest_app: str
    #: Closed-loop sessions, and open-loop sessions after them.  Without
    #: open sessions the ingest latencies are the closed loops' (send to
    #: ack, no schedule) and the passes run first; with them the ingest
    #: phase runs first, so that set-up ends with the first daemon's
    #: ping ack.
    closed_sessions: int
    open_sessions: int
    #: Serve the store the last pass collected; otherwise the small seeded
    #: webapp store set-up builds (a flat dump cannot be served).
    serve_pass_store: bool = False

    @property
    def ingest_first(self) -> bool:
        return self.open_sessions > 0


WORKLOADS = {
    w.name: w
    for w in (
        # 5 x COMMITS closed-loop commits: the p95 has ten samples beyond it.
        Workload("gfs-fleet", _gfs_collect, "gfs", 5, 0, serve_pass_store=True),
        # 5 x COMMITS open-loop commits: the p95 has ten samples beyond it.
        Workload("webapp-flat", _webapp_collect, "webapp", 1, 5),
    )
}


# -- helpers ---------------------------------------------------------------------


def process_age() -> float:
    """Seconds since this process started (Linux ``/proc``, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def code_digest() -> str:
    """Digest of the benchmark's and the program's sources."""
    h = hashlib.sha256()
    for path in sorted([*HERE.glob("*.py"), *SRC.rglob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- set-up ------------------------------------------------------------------------


class Setup:
    """Set-up of one run: import, generate inputs; a workload whose
    ingest phase runs first also starts its first daemon.  Ready means
    its first ping is acked."""

    def __init__(self, workload: Workload, seed: int, work: Path, trace: bool = False):
        import repro.cli  # noqa: F401 - importing the program is part of set-up
        import repro.core  # noqa: F401
        import repro.datacenter  # noqa: F401
        import repro.queueing.plan  # noqa: F401
        import repro.store  # noqa: F401

        from ingest import LiveStore, build_batches
        from pipeline import run_cli

        self.work = work
        self.seed_store = work / "seed-store"
        self.live = None
        work.mkdir(parents=True, exist_ok=True)
        if not workload.serve_pass_store:
            cli = run_cli(_seed_store_collect(seed, self.seed_store))
            if cli.code != 0:
                raise RuntimeError(f"seed store collect failed: {cli.stderr[-400:]}")
        if workload.ingest_first:
            # The daemon starts on the other CPU while the batches are built.
            self.live = LiveStore(self.seed_store, work / "ingest-closed-0", trace)
        try:
            self.batches = build_batches(
                workload.ingest_app, seed + INGEST_SEED_OFFSET, COMMITS
            )
            if self.live is not None:
                self.live.connect()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.live is not None:
            self.live.close()


def setup_time() -> tuple[float, float]:
    """This process's age: its wall time and its time at reference host
    speed."""
    now = time.perf_counter()
    age = process_age()
    return age, hostspeed.start().scaled(now - age, now)


def setup_samples(
    workload: Workload, seed: int, own: tuple[float, float]
) -> list[tuple[float, float]]:
    """``own`` plus fresh probe processes' set-up: each a (wall time,
    time at reference host speed) pair."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        ready = [line for line in proc.stdout.splitlines() if line.startswith("ready ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-400:]}")
        _, seconds, at_reference = ready[-1].split()
        samples.append((float(seconds), float(at_reference)))
    return samples


# -- one run -------------------------------------------------------------------------


def stage_attribution(result, spans) -> dict[str, float]:
    """``<stage>.unattributed_s``, and what ``validate`` spends on replay.

    A stage's covered time is the union of the intervals of its
    top-level wrapped calls in every process (forked workers included);
    unattributed time is the stage's wall time minus that, i.e. minus
    the self times of those calls' trees.
    """
    from layers import layer_metrics
    from spans import coverage

    stage_ids = {(s[6], s[0]) for s in spans if s[1].startswith("stage.")}
    top = [
        (s[2], s[3]) for s in spans
        if not s[1].startswith("stage.") and (s[4] is None or (s[6], s[4]) in stage_ids)
    ]
    out = {
        f"{stage}.unattributed_s": statistics.mean(
            (hi - lo) - coverage(top, lo, hi) for lo, hi in windows
        )
        for stage, windows in result.windows.items()
    }
    # Per validate call, averaged over the pass's calls.
    calls = [
        layer_metrics([s for s in spans if lo <= s[2] and s[3] <= hi])
        for lo, hi in result.windows["validate"]
    ]
    out["validate.synthesize_replay_s"] = statistics.mean(
        m["core.KoozaModel.synthesize.s"] + m["core.ReplayHarness.replay.s"] for m in calls
    )
    out["validate.synthesized_requests"] = statistics.mean(
        m["core.KoozaModel.synthesize.requests"] for m in calls
    )
    out["validate.frozen_calls"] = statistics.mean(
        m["queueing.FittedDistribution.frozen.calls"] for m in calls
    )
    return out


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
        self.setup: Optional[Setup] = None
        self.recorder = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.untraced: list = []
        #: (PassResult, layer metrics, unattributed times) per traced pass.
        self.traced: list = []
        self.ingest = None
        self.report: dict[str, float] = {}
        #: Wall seconds of the run's parts, printed for tuning.
        self.phases: dict[str, float] = {}

    # -- passes ----------------------------------------------------------------

    def pass_spec(self):
        from pipeline import PassSpec

        collect_out = self.work / "pass" / "store"
        return PassSpec(
            collect_argv=self.workload.collect(self.seed, collect_out),
            collect_out=collect_out,
            model=self.work / "pass" / "model.json",
            verify_collect=self.workload.name == "gfs-fleet",
        )

    def one_pass(self, traced: bool) -> None:
        from layers import install, layer_metrics, uninstall
        from pipeline import run_pass

        spec = self.pass_spec()
        if not traced:
            result = run_pass(spec)
            self.untraced.append(result)
        else:
            patches = install(self.recorder)
            try:
                result = run_pass(spec, self.recorder)
            finally:
                uninstall(patches)
            spans = self.recorder.drain()
            self.traced.append((result, layer_metrics(spans), stage_attribution(result, spans)))
        self.attempted += sum(len(calls) for calls in result.seconds.values())
        self.failed += len(result.failures)
        self.problems.extend(result.failures)

    def passes(self) -> None:
        """Passes for ``--seconds``, ``MIN_PASSES`` at least; a traced
        run alternates plain and traced passes, ``MIN_TRACED_PASSES`` of
        each at least."""
        start = time.perf_counter()
        deadline = start + self.seconds
        index = 0
        while not self.problems:
            least = MIN_TRACED_PASSES if self.trace else MIN_PASSES
            done = len(self.untraced) >= least and (
                not self.trace or len(self.traced) >= least
            )
            if done and time.perf_counter() >= deadline:
                break
            self.one_pass(self.trace and index % 2 == 1)
            index += 1
        self.phases["passes"] = time.perf_counter() - start

    # -- ingest ----------------------------------------------------------------

    def ingest_phase(self, source: Path) -> None:
        """Closed and open loop, then ``/profile`` against batch
        ``characterize --no-cache`` on the store the open loop grew."""
        from ingest import run_ingest
        from pipeline import run_cli

        start = time.perf_counter()
        outcome = run_ingest(
            source, self.work, self.setup.batches, self.workload.closed_sessions,
            self.workload.open_sessions, self.trace, first=self.setup.live,
        )
        self.setup.live = None
        self.ingest = outcome
        self.phases["ingest"] = time.perf_counter() - start
        sent = COMMITS * (self.workload.closed_sessions + self.workload.open_sessions)
        self.attempted += sent
        self.failed += outcome.failed
        if outcome.failed or outcome.commits_acked != sent:
            self.problems.append(
                f"ingest: {outcome.failed} failed commits, {outcome.commits_acked}/{sent} acked"
            )
        if any(outcome.exit_codes):
            self.problems.append(f"serve daemons exited {outcome.exit_codes}")
        start = time.perf_counter()
        batch = run_cli(["characterize", "--in", str(outcome.store), "--no-cache"])
        self.phases["profile_check"] = time.perf_counter() - start
        if batch.code != 0 or outcome.profile != batch.stdout.encode():
            self.problems.append(
                "serve: /profile?format=text differs from characterize --no-cache"
            )

    # -- the run ---------------------------------------------------------------

    def execute(self) -> dict:
        self.setup = Setup(self.workload, self.seed, self.work, self.trace)
        samples = setup_samples(self.workload, self.seed, setup_time())
        self.phases["setup"] = process_age()
        if self.trace:
            from spans import SpanRecorder

            spill = self.work / "spill"
            spill.mkdir(parents=True, exist_ok=True)
            self.recorder = SpanRecorder(spill)
        if not self.workload.ingest_first:
            self.passes()
        if not self.problems:
            source = (
                self.work / "pass" / "store"
                if self.workload.serve_pass_store else self.setup.seed_store
            )
            self.ingest_phase(source)
        if not self.problems and self.workload.ingest_first:
            self.passes()
        return self.result(samples)

    # -- results ---------------------------------------------------------------

    def end_to_end(self, samples: list[tuple[float, float]]) -> dict[str, float]:
        """The end-to-end metrics, times scaled to reference host speed;
        with raw wall times (``*_wall_s``) and the median host-speed
        tick (``host.tick_us``) for the printed report."""
        from pipeline import STAGES

        out = {
            "setup_s": median([at_reference for _, at_reference in samples]),
            "setup_wall_s": median([seconds for seconds, _ in samples]),
            "host.tick_us": 1e6 * median([d for _, d in hostspeed.start().ticks]),
        }
        for stage in STAGES:
            out[f"{stage}_s"] = median([t for p in self.untraced for t in p.seconds[stage]])
            out[f"{stage}_wall_s"] = median([t for p in self.untraced for t in p.wall[stage]])
        out["pipeline_s"] = median([
            sum(median(p.seconds[stage]) for stage in STAGES) for p in self.untraced
        ])
        out["peak_rss_mb"] = peak_rss_mb()
        latencies_ms = [x * 1000.0 for x in self.ingest.visible_latencies_s]
        out["ingest_visible_p50_ms"] = median(latencies_ms)
        out["ingest_visible_p95_ms"] = statistics.quantiles(
            latencies_ms, n=20, method="inclusive"
        )[18]
        out["ingest_records_per_s"] = self.ingest.records_per_s
        return out

    def hygiene(self) -> dict[str, float]:
        """Open-loop checks, worst over the open sessions: generator
        lateness, latency growth and backlog growth (last quarter of a
        session against its first).  Zero without open sessions."""
        out = dict.fromkeys(
            ("serve.ingest.offered_rate", "serve.ingest.gen_late_ms",
             "serve.ingest.latency_growth", "serve.ingest.backlog"), 0.0
        )
        for session in self.ingest.sessions:
            latencies = session.scaled_latencies_s()
            quarter = max(1, len(latencies) // 4)
            growth = median(latencies[-quarter:]) / median(latencies[:quarter])
            # Batches still unacked when the next one is due.
            queued = statistics.mean(session.outstanding[-quarter:]) - statistics.mean(
                session.outstanding[:quarter]
            )
            out["serve.ingest.offered_rate"] = self.ingest.rate
            out["serve.ingest.gen_late_ms"] = max(
                out["serve.ingest.gen_late_ms"], max(session.late_s) * 1000.0
            )
            out["serve.ingest.latency_growth"] = max(out["serve.ingest.latency_growth"], growth)
            out["serve.ingest.backlog"] = max(out["serve.ingest.backlog"], float(queued >= 1.0))
        return out

    def per_layer(self) -> dict[str, float]:
        from layers import layer_metrics
        from pipeline import STAGES

        out: dict[str, float] = {}
        merged = [{**metrics, **unattributed} for _, metrics, unattributed in self.traced]
        for key in set().union(*merged):
            out[key] = median([m.get(key, 0.0) for m in merged])
        for key, value in layer_metrics(self.ingest.spans).items():
            out[key] = out.get(key, 0.0) + value
        for stage in STAGES:
            traced_s = median([s for t in self.traced for s in t[0].seconds[stage]])
            untraced_s = median([s for p in self.untraced for s in p.seconds[stage]])
            out[f"{stage}.overhead_s"] = traced_s - untraced_s
        first = self.traced[0][0]
        out.update({k: v for k, v in first.exact.items() if k.startswith("tracing.records.")})
        out["serve.ingest.commits"] = self.ingest.commits_acked
        out["serve.ingest.records"] = self.ingest.records_acked
        out["feature_dev_pct"] = first.feature_dev_pct
        out["latency_dev_pct"] = first.latency_dev_pct
        events = out["simulation.events"]
        out["simulation.host_us_per_event"] = (
            out["simulation.Environment.run.s"] / events * 1e6 if events else 0.0
        )
        return out

    def exact_counts(self) -> dict:
        """Counts one seed must repeat exactly: across this run's passes,
        and across runs through the ledger."""
        from layers import layer_metrics

        results = [*self.untraced, *(t[0] for t in self.traced)]
        for index, result in enumerate(results[1:], 1):
            diff = sorted(
                k for k in set(result.exact) | set(results[0].exact)
                if result.exact.get(k) != results[0].exact.get(k)
            )
            if diff:
                self.problems.append(f"pass {index} differs from pass 0 in {diff}")
        exact = dict(results[0].exact)
        exact["serve.ingest.commits"] = self.ingest.commits_acked
        exact["serve.ingest.records"] = self.ingest.records_acked
        layer_exact = (
            "simulation.events", "store.bytes_written",
            "queueing.FittedDistribution.frozen.calls", "queueing.fit_distribution.calls",
        )
        for index, (_, metrics, _) in enumerate(self.traced):
            for key in layer_exact:
                if metrics[key] != self.traced[0][1][key]:
                    self.problems.append(f"traced pass {index} differs in {key}")
                exact[key] = metrics[key]
        if self.trace:
            exact["ingest.store.bytes_written"] = layer_metrics(self.ingest.spans)[
                "store.bytes_written"
            ]
        return exact

    def check_ledger(self, exact: dict) -> None:
        """Compare with an earlier run of this seed and code, or record."""
        ledger = WORK_ROOT / "exact" / (
            f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}-{code_digest()}.json"
        )
        if ledger.exists():
            before = json.loads(ledger.read_text())
            diff = sorted(k for k in set(before) | set(exact) if before.get(k) != exact.get(k))
            if diff:
                self.problems.append(f"exact counts differ from an earlier run: {diff}")
        else:
            ledger.parent.mkdir(parents=True, exist_ok=True)
            ledger.write_text(json.dumps(exact, sort_keys=True))

    def result(self, samples: list[float]) -> dict:
        metrics: dict[str, dict] = {}
        if not self.problems:
            exact = self.exact_counts()
            if not self.problems:
                self.check_ledger(exact)
            self.report = self.end_to_end(samples)
            self.report.update(self.hygiene())
            if self.trace:
                self.report.update(self.per_layer())
            section = load_spec()["per_layer" if self.trace else "end_to_end"]
            for entry in section:
                value = self.report.get(entry["name"])
                if value is None:
                    self.problems.append(f"metric {entry['name']} was not measured")
                else:
                    metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics if not self.problems else {},
        }

    def cleanup(self) -> None:
        if self.setup is not None:
            self.setup.close()
        shutil.rmtree(self.work, ignore_errors=True)


# -- entry points ----------------------------------------------------------------------


def print_report(report: dict) -> None:
    spec = load_spec()
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(report):
        unit = units.get(name) or next(
            (u for suffix, u in (("_ms", "ms"), ("_s", "s")) if name.endswith(suffix)), ""
        )
        print(f"  {name:<48} {report[name]:>16.6g} {unit}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        run.problems.append(f"{type(error).__name__}: {error}")
        result = {"correct": False, "attempted": max(1, run.attempted),
                  "failed": max(1, run.failed), "metrics": {}}
    finally:
        run.cleanup()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print_report(run.report)
    print("  run phases: " + ", ".join(f"{k} {v:.1f}s" for k, v in run.phases.items()))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if run.report.get("serve.ingest.backlog"):
        print("WARNING: the open-loop backlog grew at the offered rate")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_probe(args) -> int:
    """Set-up alone in a fresh process; prints ``ready <seconds> <host
    speed loop seconds>``."""
    setup = None
    work = WORK_ROOT / f"probe-{os.getpid()}"
    try:
        setup = Setup(WORKLOADS[args.workload], args.seed, work)
        print("ready %.6f %.6f" % setup_time(), flush=True)
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of results."""
    spec = load_spec()
    names = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "metrics": {}}
        checks = [line for line in lines if line.startswith(("CHECK FAILED", "WARNING"))]
        verdict = "ok" if proc.returncode == 0 and result["correct"] else "FAILED"
        if verdict != "ok":
            status = 1
        print(f"{workload}: {verdict} ({result.get('failed', '?')} of "
              f"{result.get('attempted', '?')} operations failed)")
        for line in checks:
            print(f"  {line}")
        for name in names:
            metric = result["metrics"].get(name)
            if metric is not None:
                print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"nothing to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its daemons and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    sampler = hostspeed.start()
    try:
        return run_probe(args) if args.setup_probe else run_one(args)
    finally:
        sampler.stop()  # a tick due after the handler is gone would kill the process


if __name__ == "__main__":
    sys.exit(main())
