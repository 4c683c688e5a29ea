"""fpsop benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).  The
workloads are defined in ``workloads.py``; each is a closed loop with one
client, which sends the next request only when the previous report is
complete, and repeats its request list in passes for ``--seconds``.

Each request is timed between two runs of a fixed piece of reference work
(see ``reference.py``), and its time is reported relative to theirs.
With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced and the second half
with layer spans (see ``tracing.py``); the last line holds the per-layer
metrics.  Every report is checked (see ``checks.py``) and must be
byte-identical to the same request's report in the previous pass.  A
record of the run, with the machine, versions, request shapes, per-request
latencies and any failures, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import reference
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up time is taken from several fresh launches, after one warm-up launch
# that fills the bytecode and file caches every later launch reuses.
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
# The tail of the pooled per-request samples is reported at the highest
# percentile that leaves at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}


class Gate:
    """Correctness state of a run: checks first reports, compares repeats."""

    def __init__(self):
        self.previous: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, request, pass_no: int, output: bytes, error) -> None:
        self.attempted += 1
        problems = [error] if error else []
        if not problems and request.id in self.previous:
            if output != self.previous[request.id]:
                problems.append("report differs from the previous pass")
        elif not problems:
            try:
                problems = checks.check_report(request, json.loads(output))
            except ValueError as exc:
                problems = [f"unreadable report: {exc}"]
        if output:
            self.previous[request.id] = output
        if problems:
            self.failures.append({"pass": pass_no, "request": request.id, "problems": problems})


class InProcessRunner:
    """``parse_config`` + ``cli.run`` + JSON serialisation in this process."""

    def __init__(self, workload: str, requests):
        from fpsop import cli

        self.workload = workload
        self.cli = cli
        self.texts = {r.id: json.dumps(r.config) for r in requests}
        self.tracer = None
        self.spans_by_pass: list[dict] = []

    def reference_s(self) -> float:
        return reference.in_process_s(self.workload)

    def start_tracing(self) -> None:
        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)

    def run(self, request, pass_no: int):
        cli = self.cli
        text = self.texts[request.id]
        error, output = None, b""
        scope = nullcontext() if self.tracer is None else self.tracer.request(request.id)
        with scope:
            started = perf_counter()
            try:
                report = cli.run(request.command, cli.parse_config(text), theorem=request.theorem)
                output = (json.dumps(report, indent=2, allow_nan=False) + "\n").encode()
                result = report.get("result")
                if isinstance(result, dict) and result.get("all_passed") is False:
                    error = "algebra law check failed"
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - started
        return latency, output, error

    def end_pass(self, latencies: dict):
        """Per-layer metrics of the pass just run, when tracing."""
        if self.tracer is None:
            return None
        tracer = self.tracer
        spans, counts = tracer.spans, tracer.request_counts
        tracer.spans, tracer.request_counts = [], {}
        self.spans_by_pass.append({"spans": spans, "request_counts": counts})
        return tracing.layer_totals(spans, counts, latencies)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def dump_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans_by_pass, fh)


class CliRunner:
    """One ``python -m fpsop`` process per request, as users run the tool."""

    def __init__(self, env: dict, work_dir: Path):
        self.env = env
        self.work_dir = work_dir
        self.traced = False
        self.pending_spans: list[Path] = []

    def reference_s(self) -> float:
        return reference.launch_s(self.env, ROOT)

    def start_tracing(self) -> None:
        self.traced = True

    def run(self, request, pass_no: int):
        command = [request.command, "--config", request.config_path, "--quiet"]
        if self.traced:
            spans = self.work_dir / f"spans-{pass_no}-{request.id}.json"
            self.pending_spans.append(spans)
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), "--spans", str(spans),
                    "--request-id", request.id, "--", *command]
        else:
            argv = [sys.executable, "-m", "fpsop", *command]
        started = perf_counter()
        try:
            done = subprocess.run(argv, capture_output=True, env=self.env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - started, b"", f"no report within {CHILD_TIMEOUT_S} s"
        latency = perf_counter() - started
        error = None
        if done.returncode != 0:
            tail = done.stderr.decode("utf-8", errors="replace").strip()[-300:]
            error = f"exit code {done.returncode}: {tail}"
        return latency, done.stdout, error

    def end_pass(self, latencies: dict):
        if not self.traced:
            return None
        spans, counts = [], {}
        for path in self.pending_spans:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            offset = len(spans)
            for span in data["spans"]:
                span[0] += offset
                if span[1] is not None:
                    span[1] += offset
                spans.append(span)
            counts.update(data["request_counts"])
        self.pending_spans = []
        return tracing.layer_totals(spans, counts, latencies)

    def peak_rss_mb(self) -> float:
        """The largest child's peak.

        Every child is an fpsop run, its import, or a reference launch that
        imports part of what fpsop imports.
        """
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_passes(runner, requests, budget_s: float, gate: Gate, first_pass: int,
               min_passes: int) -> list[dict]:
    """Repeat the request list until the next pass would overrun the budget."""
    passes: list[dict] = []
    started = perf_counter()
    while len(passes) < min_passes or (
            perf_counter() - started + passes[-1]["wall_s"] <= budget_s):
        pass_no = first_pass + len(passes)
        latencies, outcomes = {}, []
        marks = [runner.reference_s()]
        pass_started = perf_counter()
        for request in requests:
            latency, output, error = runner.run(request, pass_no)
            latencies[request.id] = latency
            marks.append(runner.reference_s())
            outcomes.append((request, output, error))
        wall = perf_counter() - pass_started
        # Each request is bracketed by the reference runs before and after it.
        references = {r.id: (a + b) / 2 for r, a, b in zip(requests, marks, marks[1:])}
        for request, output, error in outcomes:
            gate.record(request, pass_no, output, error)
        passes.append({"wall_s": wall, "latency_s": latencies, "reference_s": references,
                       "layers": runner.end_pass(latencies)})
    return passes


def _launch_s(argv: list, env: dict) -> tuple[float, str]:
    started = perf_counter()
    done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - started, done.stderr


def measure_setup_s(env: dict) -> float:
    """Time from launching an interpreter until ``fpsop.cli`` is imported.

    Reference launches bracket each launch; the result is the median ratio
    of a launch to its two references, scaled to the nominal time.
    """
    argv = [sys.executable, "-c", "import fpsop.cli"]
    _launch_s(argv, env)
    marks, launches = [reference.launch_s(env, ROOT)], []
    for _ in range(SETUP_LAUNCHES):
        launches.append(_launch_s(argv, env)[0])
        marks.append(reference.launch_s(env, ROOT))
    ratios = [2 * t / (a + b) for t, a, b in zip(launches, marks, marks[1:])]
    return statistics.median(ratios) * reference.NOMINAL_S["cli-configs"]


def measure_imports_ms(env: dict) -> dict:
    """Median ``-X importtime`` figures of ``import fpsop.cli`` in fresh processes."""
    argv = [sys.executable, "-X", "importtime", "-c", "import fpsop.cli"]
    _launch_s(argv, env)
    runs = [tracing.import_times_ms(_launch_s(argv, env)[1]) for _ in range(IMPORTTIME_LAUNCHES)]
    return {f"import.{name}_ms": statistics.median(r[name] for r in runs) for name in runs[0]}


def best_latencies_s(passes: list) -> list:
    """Each request's fastest raw latency over the passes of a run."""
    return [min(p["latency_s"][rid] for p in passes) for rid in passes[0]["latency_s"]]


def scaled_latencies_s(passes: list, nominal_s: float) -> list:
    """Each request's median latency over its reference's, in nominal seconds."""
    return [nominal_s * statistics.median(p["latency_s"][rid] / p["reference_s"][rid]
                                          for p in passes)
            for rid in passes[0]["latency_s"]]


def end_to_end_metrics(setup_s: float, passes: list, nominal_s: float,
                       peak_rss_mb: float) -> dict:
    scaled_ms = [1000.0 * v for v in scaled_latencies_s(passes, nominal_s)]
    return {
        "setup_s": setup_s,
        "wall_s": sum(scaled_ms) / 1000.0,
        "latency_p50_ms": statistics.median(scaled_ms),
        "peak_rss_mb": peak_rss_mb,
    }


def raw_latency(passes: list) -> dict:
    """Unscaled figures of the run, printed and recorded, not in BENCHMARK.json.

    ``best_wall_s`` sums each request's fastest repeat.  The median and the
    tail are over every request sample of the run; the tail is the highest
    whole percentile with at least ``TAIL_BEYOND`` samples beyond it.
    """
    samples = sorted(1000.0 * v for p in passes for v in p["latency_s"].values())
    count = len(samples)
    percentile = int(100 * (1 - TAIL_BEYOND / count)) if count > TAIL_BEYOND else 0
    out = {"best_wall_s": sum(best_latencies_s(passes)), "samples": count,
           "p50_ms": statistics.median(samples)}
    if percentile >= 50:
        out["tail_percentile"] = percentile
        out["tail_ms"] = statistics.quantiles(samples, n=100, method="inclusive")[percentile - 1]
    return out


def layer_metrics(imports_ms: dict, untraced: list, traced: list) -> dict:
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out.update(imports_ms)
    out["trace.overhead_frac"] = (sum(best_latencies_s(traced))
                                  / sum(best_latencies_s(untraced)) - 1.0)
    return {name: out[name] for name in tracing.LAYER_METRICS}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "configs").glob("*.json")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fpsop benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fpsop" / "__init__.py").is_file():
        print(f"bench: no fpsop sources under {SRC}", file=sys.stderr)
        return 2

    requests = workloads.requests_for(args.workload, args.seed)
    missing = [r.config_path for r in requests
               if r.config_path and not (ROOT / r.config_path).is_file()]
    if missing:
        print(f"bench: missing shipped configs: {missing}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_DIR / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    if args.workload == "cli-configs":
        runner = CliRunner(env, work_dir)
    else:
        runner = InProcessRunner(args.workload, requests)
    gate = Gate()

    raw = None
    if args.trace:
        imports_ms = measure_imports_ms(env)
        untraced = run_passes(runner, requests, args.seconds / 2, gate, 0, 1)
        runner.start_tracing()
        traced = run_passes(runner, requests, args.seconds / 2, gate, len(untraced), 1)
        passes = untraced + traced
        metrics = layer_metrics(imports_ms, untraced, traced)
        units = tracing.LAYER_METRICS
        if isinstance(runner, InProcessRunner):
            runner.dump_spans(work_dir / "spans.json")
    else:
        setup_s = measure_setup_s(env)
        passes = run_passes(runner, requests, args.seconds, gate, 0, MIN_PASSES)
        metrics = end_to_end_metrics(setup_s, passes, reference.NOMINAL_S[args.workload],
                                     runner.peak_rss_mb())
        units = END_TO_END
        raw = raw_latency(passes)

    failed = len(gate.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "requests": [r.as_record() for r in requests],
        "passes": [{key: p[key] for key in ("wall_s", "latency_s", "reference_s")}
                   for p in passes],
        "attempted": gate.attempted, "failed": failed, "failures": gate.failures,
        "metrics": metrics, "raw_latency": raw,
    }
    record_path = OUT_DIR / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{gate.attempted} requests, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':36s} {failed / gate.attempted:14.6g} ratio")
    if raw and "tail_ms" in raw:
        print(f"  unscaled: best-of wall {raw['best_wall_s']:.6g} s; over {raw['samples']} "
              f"samples p50 {raw['p50_ms']:.6g} ms, p{raw['tail_percentile']} "
              f"{raw['tail_ms']:.6g} ms")
    for failure in gate.failures:
        print(f"  FAILED pass {failure['pass']} {failure['request']}: "
              f"{'; '.join(failure['problems'])}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": gate.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
