"""End-to-end benchmark of the arboricity pipeline, run from a source checkout.

    python3 pipeline_bench/run.py --workload random --seed 1 --seconds 25 --trace 0

Imports the package from ``src/`` (no build step), writes the workload's
seeded graphs to files, and sends each one as a request to the CLI entry
point ``arboricity.cli.main`` in this process: one client, one thread,
closed loop.  A pass sends every request of the workload once; passes repeat
while another one fits in ``--seconds`` (there is always at least one).
Outputs are checked after the timed passes against the references in
``checks.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` every request is sent untraced and then at once traced, and the
last line holds the per-layer metrics of ``tracing.py`` plus the tracing
overhead (traced minus untraced time).  Result and trace files go to
``pipeline_bench_out/``.  Exits non-zero, printing no result, when the
package cannot be imported from ``src/``.
"""

import time

_T0 = time.perf_counter()  # set-up timing falls back to this if /proc is unreadable

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "pipeline_bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Fixed warm-up input: K4, valid for every subcommand the workloads send.
WARMUP_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def process_age() -> float:
    """Seconds since the process started (since ``_T0`` where unreadable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return now - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def import_package():
    """Import ``arboricity`` from this checkout's ``src/``, or exit."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import arboricity
        from arboricity import cli, kernels
    except ImportError as exc:
        sys.exit(f"error: cannot import arboricity from {src}: {exc}")
    if src not in Path(arboricity.__file__).resolve().parents:
        sys.exit(f"error: arboricity imported from {arboricity.__file__}, not {src}")
    return arboricity, cli, kernels


def write_graph(path: Path, edges) -> str:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


def send(cli, argv: list[str]) -> tuple[float, int, str]:
    """One request: (seconds, exit code, stdout).  Exceptions count as exit 1."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed request, not a crashed benchmark
        traceback.print_exc()
        code = 1
    return time.perf_counter() - start, code, buf.getvalue()


class Run:
    """The requests of one workload and what came back."""

    def __init__(self, cli, instances, paths):
        self.cli = cli
        self.instances = instances
        self.argv = [list(inst.command) + [p] for inst, p in zip(instances, paths)]
        self.latencies: list[float] = []
        self.outputs: list[str | None] = [None] * len(instances)
        self.failed = 0
        self.mismatched = 0

    def request(self, i: int) -> float:
        argv = self.argv[i]
        took, code, out = send(self.cli, argv)
        self.latencies.append(took)
        if code != 0:
            self.failed += 1
            print(f"request {argv} exited {code}", file=sys.stderr)
        elif self.outputs[i] is None:
            self.outputs[i] = out
        elif self.outputs[i] != out:
            self.mismatched += 1
        return took

    def one_pass(self) -> float:
        start = time.perf_counter()
        for i in range(len(self.argv)):
            self.request(i)
        return time.perf_counter() - start

    def traced_pass(self, tracer: Tracer) -> tuple[float, float]:
        """Each request untraced and then at once traced, so that both see
        the same machine state: (untraced seconds, traced seconds)."""
        plain = traced = 0.0
        for i in range(len(self.argv)):
            plain += self.request(i)
            tracer.request = i
            tracer.install()
            try:
                traced += self.request(i)
            finally:
                tracer.uninstall()
        return plain, traced

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def fits(elapsed: float, per_pass: float, seconds: float) -> bool:
    return elapsed + per_pass <= seconds


def check_outputs(workload: str, run: Run, arboricity) -> list[str]:
    """Every failure message; empty when all outputs are right."""
    problems = []
    if run.mismatched:
        problems.append(f"{run.mismatched} repeated requests gave a different output")
    for i, (inst, out) in enumerate(zip(run.instances, run.outputs)):
        if out is None:
            continue
        try:
            doc = json.loads(out)
            if workload == "random":
                checks.check_prime_partition(inst.edges, doc)
            elif workload == "structured":
                checks.check_structured(inst, doc)
            else:
                g = arboricity.Multigraph.from_edge_list(inst.edges)
                peel = arboricity.nucleolus(g)
                checks.check_oracle(inst, doc, [peel[e] for e in range(len(inst.edges))])
        except (checks.CheckFailed, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{workload} instance {i} ({inst.family}): {exc!r}")
    return problems


def check_levels(run: Run, partitions: list) -> list[str]:
    """Structured: prime sets per level, as the construction fixes them, in
    the prime partitions the traced requests computed."""
    problems = []
    for i, pp in partitions:
        inst = run.instances[i]
        got: dict[int, int] = {}
        for ps in pp.prime_sets:
            got[ps.level] = got.get(ps.level, 0) + 1
        if got != checks.expected_levels(inst) or pp.non_prime:
            problems.append(f"instance {i} ({inst.family}): prime sets per level {got}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    arboricity, cli, kernels = import_package()
    rng = random.Random(f"{args.workload}:{args.seed}")
    instances = workloads.BATCHES[args.workload](rng)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        paths = [write_graph(workdir / f"g{i}.txt", inst.edges) for i, inst in enumerate(instances)]
        warm = write_graph(workdir / "warmup.txt", WARMUP_EDGES)
        _, code, _ = send(cli, list(instances[0].command) + [warm])
        if code != 0:
            sys.exit(f"error: warm-up request exited {code}")
        setup_s = process_age()
        return measure(args, arboricity, cli, kernels, instances, paths, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, arboricity, cli, kernels, instances, paths, setup_s) -> int:
    run = Run(cli, instances, paths)
    kernel = kernels.active().NAME
    problems: list[str] = []
    start = time.perf_counter()
    if not args.trace:
        cpu0 = time.process_time()
        walls = [run.one_pass()]
        while fits(time.perf_counter() - start, statistics.median(walls), args.seconds):
            walls.append(run.one_pass())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p50 = statistics.median(run.latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "request_p50_s": (p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        cpu_pass = (time.process_time() - cpu0) / len(walls)
        print(
            f"request_p50_s {p50:.4f} s over {run.attempted} requests; "
            f"wall_s median of {len(walls)} passes; process CPU {cpu_pass:.3f} s per pass"
        )
    else:
        tracer = Tracer()
        plain = traced = 0.0
        walls = []
        while not walls or fits(time.perf_counter() - start, statistics.median(walls), args.seconds):
            t0 = time.perf_counter()
            p, t = run.traced_pass(tracer)
            walls.append(time.perf_counter() - t0)
            plain, traced = plain + p, traced + t
        metrics = tracer.layer_metrics(len(walls) * len(instances))
        overhead = (traced - plain) / len(walls)
        metrics["trace.overhead_s"] = (overhead, "s/pass")
        metrics["trace.overhead_share"] = (traced / plain - 1, "ratio")
        if args.workload == "structured":
            problems += check_levels(run, tracer.partitions)
        write_json(f"trace-{args.workload}-seed{args.seed}.json", {
            "columns": ["name", "start", "end", "parent", "request"],
            "argv": run.argv,
            "spans": tracer.spans,
        })
        print(f"tracing overhead {overhead:.4f} s per pass of {len(instances)} requests, {len(walls)} passes")

    problems += check_outputs(args.workload, run, arboricity)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"kernel {kernel}; workload {args.workload}: {len(instances)} requests per pass, seed {args.seed}")
    write_json(
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        dict(result, kernel=kernel, argv=run.argv, latencies=run.latencies),
    )
    print(json.dumps(result))
    return 0


def write_json(name: str, doc) -> None:
    (OUT / name).write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
