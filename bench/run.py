"""Benchmark of the ``casimir`` command line.

Run from the repository root:

    python3 bench/run.py --workload sweep_numeric --seed 1 --seconds 30 --trace 0

``--trace 0`` measures end to end.  It drives
``python -m casimir_plates.cli`` as a subprocess in a closed loop, one child
at a time, with the seeded argument lists of the workload, for ``--seconds``
seconds (and at least MIN_INVOCATIONS calls, ending on a whole deck of the
workload's mix), and times fresh imports of ``casimir_plates.cli``
(``setup_s``) spread evenly over those seconds.  Every output is checked
(see checks.py).

``--trace 1`` measures per layer.  It takes import times from
``python -X importtime``, then replays the first invocations of the same
seeded sequence in process through ``cli.main(argv)``, once plain and once
with every layer function wrapped (see tracing.py), and checks both.

Metric names and units come from BENCHMARK.json.  The last line of standard
output is the JSON result; the lines before it are a readable report.  A
record of the run, with the environment, is written to .bench_results/, and
the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import OutputChecker, Outcome
from workloads import DOMAIN_NOTE, WORKLOADS, argv_sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

SETUP_REPEATS = 9
IMPORT_REPEATS = 3
#: the tail percentile needs ten samples beyond it
TAIL_BEYOND = 10
MIN_INVOCATIONS = TAIL_BEYOND + 1
CHILD_TIMEOUT_S = 60.0
#: commands whose output rows count toward rows_per_s
ROW_COMMANDS = ("force", "sweep", "verify")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

IMPORT = "import casimir_plates.cli"
PROBE = """\
import json, sys
import casimir_plates, casimir_plates.cli, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas.get('version', '')}".strip()
except Exception:
    blas = "unknown"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas,
                  "package": casimir_plates.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> Child:
    """Run ``python args...`` to exit; wall time spans spawn to reaping."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + CHILD_TIMEOUT_S - time.perf_counter()
                ready = sel.select(timeout=max(remaining, 0.0))
                if not ready and remaining <= 0.0:
                    proc.kill()
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # reaped here rather than by Popen, for the child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                 returncode=proc.returncode,
                 stdout=b"".join(chunks[proc.stdout]).decode(errors="replace"),
                 stderr=b"".join(chunks[proc.stderr]).decode(errors="replace"))


def probe_environment(seed: int) -> dict:
    """Environment record; also the warm-up import before any timing."""
    child = run_child(["-c", PROBE])
    if child.returncode != 0:
        raise BenchError(f"cannot import casimir_plates from {SRC}:\n"
                         f"{child.stderr}")
    info = json.loads(child.stdout.strip().splitlines()[-1])
    if not Path(info["package"]).resolve().is_relative_to(SRC):
        raise BenchError(f"casimir_plates imported from {info['package']}, "
                         f"not from {SRC}")
    info.update(
        nproc=os.cpu_count(),
        cpus_available=len(os.sched_getaffinity(0)),
        blas_threads={v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        cpu_model=_cpu_model(),
        platform=platform.platform(),
        git_commit=_git_commit(),
        seed=seed,
    )
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of the order statistics with Beta((n+1)/2, (n+1)/2)
    weights; on the handful of samples one run collects it varies less
    from run to run than the middle order statistic does.
    """
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    log_norm = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)

    def pdf(t: float) -> float:
        if 0.0 < t < 1.0:
            return math.exp((a - 1.0) * (math.log(t) + math.log1p(-t))
                            - log_norm)
        return 1.0 if a == 1.0 else 0.0

    steps = 32  # Simpson subintervals per order statistic
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        weights.append(sum((1 if k in (0, steps) else 4 if k % 2 else 2)
                           * pdf(lo + k * h) for k in range(steps + 1)) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(values)
    at_or_below = len(ordered) - TAIL_BEYOND
    if at_or_below < 1:
        raise BenchError(f"{len(ordered)} samples; the tail needs "
                         f"{MIN_INVOCATIONS}")
    return ordered[at_or_below - 1], 100.0 * at_or_below / len(ordered)


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    rss_mb: float
    returncode: int
    ok: bool
    reason: str
    rows: int
    estimate_under: int


def timed_run(workload: str, seed: int, seconds: float,
              checker: OutputChecker) -> tuple[dict, dict]:
    setup: list[Child] = []

    def set_up() -> None:
        child = run_child(["-c", IMPORT])
        if child.returncode != 0:
            raise BenchError("import of casimir_plates.cli failed")
        setup.append(child)

    invocations: list[Invocation] = []
    sequence = argv_sequence(workload, seed)
    deck = WORKLOADS[workload].deck
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(invocations) < MIN_INVOCATIONS
           or len(invocations) % deck):
        # fresh imports are spread over the run, so that drift in machine
        # speed averages out of setup_s as it does out of the invocations
        if (len(setup) < SETUP_REPEATS and time.perf_counter() - start
                >= len(setup) * seconds / SETUP_REPEATS):
            set_up()
        argv = next(sequence)
        child = run_child(["-m", "casimir_plates.cli", *argv])
        outcome = checker.check(argv, child.returncode, child.stdout,
                                child.stderr)
        invocations.append(Invocation(
            argv=argv, wall_s=child.wall_s, rss_mb=child.rss_mb,
            returncode=child.returncode, ok=outcome.ok, reason=outcome.reason,
            rows=outcome.rows,
            estimate_under=outcome.estimate_under))

    while len(setup) < SETUP_REPEATS:
        set_up()

    walls = [inv.wall_s for inv in invocations]
    tail, percentile = tail_percentile(walls)
    emitting = [inv for inv in invocations if inv.argv[0] in ROW_COMMANDS]
    failed = sum(not inv.ok for inv in invocations)
    metrics = {
        "setup_s": hd_median([c.wall_s for c in setup]),
        "invocation_p50_s": hd_median(walls),
        "invocation_tail_s": tail,
        "rows_per_s": (sum(inv.rows for inv in emitting)
                       / sum(inv.wall_s for inv in emitting)),
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
    }
    notes = {
        "invocation_tail_s": f"p{percentile:.1f} of {len(walls)} samples",
        "setup_s": f"Harrell-Davis median of {SETUP_REPEATS} fresh imports",
        "invocation_p50_s": f"Harrell-Davis median of {len(walls)} samples",
        "error_rate": f"{failed / len(invocations):.6g} ratio "
                      f"({failed} failed of {len(invocations)} attempted; "
                      "carried by the result's failed/attempted)",
        "regsum.error_estimate_under":
            f"{sum(inv.estimate_under for inv in invocations)} rows",
    }
    record = {"metrics": metrics, "notes": notes,
              "setup_wall_s": [c.wall_s for c in setup],
              "invocations": [asdict(inv) for inv in invocations]}
    return metrics, record


def _call(main, argv: list[str]) -> tuple[tuple[int, str, str], float]:
    """main(argv) with output captured: ((exit code, stdout, stderr), wall)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=err)
            code = 1
    wall = time.perf_counter() - start
    return (code, out.getvalue(), err.getvalue()), wall


def default_grid_rejects(main, argvs: list[list[str]]) -> int:
    """Replayed extract separations that extract's default grid rejects.

    The workloads send extract an explicit grid (see workloads.py); this
    untimed, untraced probe keeps the default grid's known defect in view.
    """
    rejects = 0
    for argv in argvs:
        if argv[0] == "extract":
            (code, _, _), _ = _call(main, ["extract", "--a",
                                           argv[argv.index("--a") + 1],
                                           "--json"])
            rejects += code != 0
    return rejects


def import_times() -> dict[str, float]:
    """Median import self time per package over fresh interpreters."""
    # imported here so that the timed run keeps numpy out of the harness
    from tracing import parse_importtime

    runs = []
    for _ in range(IMPORT_REPEATS):
        child = run_child(["-X", "importtime", "-c", IMPORT])
        if child.returncode != 0:
            raise BenchError("import of casimir_plates.cli failed")
        runs.append(parse_importtime(child.stderr))
    packages = set().union(*runs)
    return {p: statistics.median(r.get(p, 0.0) for r in runs) for p in packages}


def traced_run(workload: str, seed: int, per_layer: list[str],
               checker: OutputChecker) -> tuple[dict, dict]:
    from tracing import Tracer, per_layer_metrics

    imports = import_times()
    sys.path.insert(0, str(SRC))
    import casimir_plates.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"casimir_plates imported from {cli.__file__}")

    argvs = list(itertools.islice(argv_sequence(workload, seed),
                                  WORKLOADS[workload].replay))
    tracer = Tracer()
    plain, traced = [], []
    walls = {False: 0.0, True: 0.0}
    # plain and traced calls alternate, and so does which goes first, so
    # that drift in machine speed cancels out of the overhead ratio
    for i, argv in enumerate(argvs):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.invocation = i
                tracer.install()
            try:
                result, wall = _call(cli.main, argv)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(result)
            walls[with_trace] += wall
    plain_wall, traced_wall = walls[False], walls[True]

    outcomes: list[Outcome] = []
    for argv, first, second in zip(argvs, plain, traced):
        outcome = checker.check(argv, *second)
        if outcome.ok and first != second:
            outcome = Outcome(False, "traced output differs from plain output")
        elif outcome.ok and not checker.check(argv, *first).ok:
            outcome = Outcome(False, "plain replay failed its check")
        outcomes.append(outcome)

    computed = per_layer_metrics(tracer)
    computed["trace.overhead_ratio"] = traced_wall / plain_wall
    computed["cli.extract_default_grid_rejects"] = default_grid_rejects(
        cli.main, argvs)
    computed["regsum.error_estimate_under"] = sum(o.estimate_under
                                                  for o in outcomes)
    metrics = {}
    for name in per_layer:
        if name.startswith("import."):
            metrics[name] = imports.get(name[len("import."):-len("_s")], 0.0)
        elif name in computed:
            metrics[name] = computed[name]
        elif name.rsplit(".", 1)[0] in tracer.names:
            metrics[name] = 0  # a traced function the replay never called
        else:
            raise BenchError(f"per-layer metric {name!r} names no traced "
                             "function")
    spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
    tracer.dump(spans_path)

    import_s = sum(imports.get(p, 0.0)
                   for p in ("casimir_plates", "numpy", "scipy"))
    self_s = tracer.self_times()
    per_call = import_s + sum(self_s.values()) / len(argvs)
    split = [("import (casimir_plates, numpy, scipy)", import_s)]
    split += sorted(((k, v / len(argvs)) for k, v in self_s.items()),
                    key=lambda kv: -kv[1])[:8]
    notes = {
        "replayed": f"{len(argvs)} invocations in process",
        "spans": f"{len(tracer.spans)} written to "
                 f"{spans_path.relative_to(ROOT)}",
        "plain_replay_s": f"{plain_wall:.6g}",
        "traced_replay_s": f"{traced_wall:.6g}",
        "split_per_invocation": [
            f"{name:<44} {value:10.6f} s {100 * value / per_call:6.2f}%"
            for name, value in split],
    }
    record = {"metrics": metrics, "notes": notes,
              "invocations": [{"argv": a, "ok": o.ok, "reason": o.reason}
                              for a, o in zip(argvs, outcomes)]}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "casimir_plates" / "cli.py").is_file():
            raise BenchError(f"no casimir_plates sources under {SRC}")
        RESULTS.mkdir(exist_ok=True)
        environment = probe_environment(args.seed)
        checker = OutputChecker()
        if args.trace:
            listed = spec["per_layer"]
            metrics, record = traced_run(
                args.workload, args.seed, [m["name"] for m in listed], checker)
        else:
            listed = spec["end_to_end"]
            metrics, record = timed_run(args.workload, args.seed,
                                        args.seconds, checker)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    attempted = len(record["invocations"])
    failed = sum(not inv["ok"] for inv in record["invocations"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    record.update(workload=args.workload, why=workload.why,
                  prediction=workload.prediction, domain=DOMAIN_NOTE,
                  environment=environment, result=result)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload   {args.workload} (seed {args.seed}, "
          f"{'traced in process' if args.trace else 'subprocess, 1 client'})")
    print(f"why        {workload.why}")
    print(f"predicts   {workload.prediction}")
    print(f"domain     {DOMAIN_NOTE}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for m in listed:
        note = record["notes"].get(m["name"])
        print(f"  {m['name']:<44} {metrics[m['name']]!r:>24} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for key, note in record["notes"].items():
        if key in metrics:
            continue
        for line in note if isinstance(note, list) else [note]:
            print(f"  {key}: {line}")
    failures = [inv for inv in record["invocations"] if not inv["ok"]]
    for inv in failures[:5]:
        print(f"  FAILED {' '.join(inv['argv'])}: {inv['reason']}")
    print(f"record     {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
