"""Repository benchmark: train-movie, serve-hot and serve-cold.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-movie --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public functions and reports
per-layer self times and counts.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric with its unit, the host fingerprint and
per-phase request counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from checks import check_batch, check_recommendation, check_training  # noqa: E402
from common import (  # noqa: E402
    HERE,
    MIN_BEYOND,
    ROOT,
    NotEnoughSamples,
    SRC,
    child_env,
    cpu_seconds,
    host_fingerprint,
    log,
    median,
    percentile,
    read_json,
    samples_beyond,
    vm_hwm_mb,
)
import loadgen  # noqa: E402

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Items per recommendation request.
K = 10
#: Users ranked per batch call (train: ``Trainer.evaluate``; serve:
#: ``POST /recommend`` with a user list) — the same 80 as the trainer's eval.
BATCH_USERS = 80
#: Seconds of the closed-loop phase, and answers per rate block in it.
CLOSED_SECONDS = 4.0
CLOSED_BLOCK = 25
#: Zipf exponent of serve-hot's user popularity.
ZIPF_S = 1.1
#: Server replies slower than this count as failed.
REQUEST_TIMEOUT_S = 10.0

#: Workload constants.  ``rate`` is the open-loop Poisson arrival rate
#: (requests/s), fixed here and never derived at run time: about a sixth
#: of closed-loop capacity on a 2-vCPU host, low enough that queueing
#: does not amplify the host's speed swings into the median.
#: ``batch_repeats`` is how many ``POST /recommend`` batch calls
#: ``batch_p50_ms`` is the median of.
WORKLOADS: Dict[str, Dict] = {
    "train-movie": {"kind": "train"},
    "serve-hot": {
        "kind": "serve", "rate": 70.0, "users": "zipf", "batch_repeats": 101,
        "serve_args": ["--cache-size", "32"],
    },
    "serve-cold": {
        "kind": "serve", "rate": 20.0, "users": "uniform", "batch_repeats": 9,
        "serve_args": ["--cache-size", "0", "--index-users", "14"],
    },
}

#: Tail percentiles printed with every untraced run when the sample
#: count leaves 10 samples beyond them.  They are not gated end-to-end
#: metrics: on a shared 2-vCPU VM their run-to-run spread (35-110% of
#: the median) is far wider than any usable regression bound.
TAILS = (90, 99)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "batch_p50_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark could not run (no result line is printed)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Children:
    """Every process the benchmark starts; all are stopped on exit."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.procs: List[subprocess.Popen] = []

    def start(self, argv: List[str], log_name: str, stdout=None) -> subprocess.Popen:
        err = open(os.path.join(self.workdir, log_name), "w")
        try:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=stdout if stdout is not None else err, stderr=err,
                preexec_fn=default_sigint,
            )
        finally:
            err.close()
        self.procs.append(proc)
        return proc

    def tail(self, log_name: str) -> str:
        path = os.path.join(self.workdir, log_name)
        if not os.path.exists(path):
            return ""
        with open(path) as handle:
            return "".join(handle.readlines()[-15:])

    @staticmethod
    def stop(proc: subprocess.Popen, timeout: float = 15.0) -> Optional[int]:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout)
        if proc.stdout is not None:
            proc.stdout.close()
        return proc.returncode

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc, timeout=5.0)


def default_sigint() -> None:
    """Give the child the default SIGINT action before it execs.

    A benchmark started in the background of a non-interactive shell
    inherits SIGINT as ignored, and Python then installs no
    KeyboardInterrupt handler: ``repro serve`` would never shut down.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def python_argv(script: str, *args: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, script), *args]


def tails(seconds: List[float]) -> List[str]:
    """Printable p50 and tail lines of one sample, with its count."""
    n = len(seconds)
    lines = [f"p50 over {n} samples: {1e3 * median(seconds):.6g} ms"]
    for q in TAILS:
        if samples_beyond(n, q) >= MIN_BEYOND:
            lines.append(f"p{q} over {n} samples ({samples_beyond(n, q)} beyond): "
                         f"{1e3 * percentile(seconds, q):.6g} ms (not gated)")
    return lines


# ----------------------------------------------------------------------
# train-movie
# ----------------------------------------------------------------------
def train_setup(children: Children, seed: int, epochs: int, out: str,
                trace_from: int, setup_only: bool) -> Tuple[float, subprocess.Popen]:
    """Launch one train child and time it to READY."""
    args = ["--seed", str(seed), "--epochs", str(epochs), "--out", out]
    if setup_only:
        args.append("--setup-only")
    if trace_from:
        args += ["--trace-from-epoch", str(trace_from)]
    t0 = time.perf_counter()
    proc = children.start(python_argv("train_child.py", *args), "train.log",
                          stdout=subprocess.PIPE)
    line = proc.stdout.readline().decode()
    elapsed = time.perf_counter() - t0
    if not line.startswith("READY"):
        proc.wait(60)
        raise BenchError("train child failed before READY:\n" + children.tail("train.log"))
    return elapsed, proc


def run_train(children: Children, seed: int, seconds: int, trace: bool) -> Dict:
    # One epoch (train ≈0.45 s + eval of 80 users ≈0.5 s on 2 vCPUs) per
    # second of the run; epoch 1 is warm-up and excluded from every median.
    epochs = max(4, int(seconds))
    trace_from = epochs // 2 + 1 if trace else 0
    setups, setup_parts = [], []
    for i in range(SETUP_REPEATS - 1):
        out = os.path.join(children.workdir, f"setup{i}.json")
        elapsed, proc = train_setup(children, seed, epochs, out, 0, True)
        if proc.wait(60):
            raise BenchError("train set-up failed:\n" + children.tail("train.log"))
        setups.append(elapsed)
        setup_parts.append(read_json(out)["setup"])
    out = os.path.join(children.workdir, "train.json")
    elapsed, proc = train_setup(children, seed, epochs, out, trace_from, False)
    setups.append(elapsed)
    if proc.wait(170):
        raise BenchError("train run failed:\n" + children.tail("train.log"))
    result = read_json(out)
    setup_parts.append(result["setup"])

    problems = check_training(result["losses"], result["best_recall"])
    if result["error"]:
        problems.insert(0, result["error"])
    report = {
        "attempted": len(result["losses"]) + len(result["evals"]),
        "failed": (sum(1 for v in result["losses"] if not math.isfinite(v))
                   + (1 if problems else 0)),
        "problems": problems,
        "host": {**host_fingerprint(result["host"]), "cpu_wall_ratio": result["cpu_wall_ratio"]},
        "phases": {"train": {"epochs": len(result["epochs"]), "steps": len(result["steps"]),
                             "evals": len(result["evals"]),
                             "best_valid_recall@20": result["best_recall"]}},
    }
    if not trace:
        # Epoch 1 is warm-up; its step, epoch and eval times are left out.
        steps = [s for e, s, _ in result["steps"] if e >= 2]
        report["tails"] = tails(steps)
        report["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "p50_ms": 1e3 * median(steps),
            "throughput_per_s": result["examples_per_epoch"]
            / median([s for e, s in result["epochs"] if e >= 2]),
            "batch_p50_ms": 1e3 * median([s for s, _ in result["evals"][1:]]),
        }
    else:
        report["layers"] = layers.train_layers(result, setup_parts, trace_from)
        coverage = report["layers"]["trace.step_coverage_pct"]
        if coverage < layers.MIN_STEP_COVERAGE_PCT:
            report["problems"].append(
                f"step layers cover {coverage:.1f}% of step wall "
                f"(< {layers.MIN_STEP_COVERAGE_PCT}%)"
            )
    return report


# ----------------------------------------------------------------------
# serve-*
# ----------------------------------------------------------------------
def wait_ready(proc: subprocess.Popen, log_path: str, t0: float, timeout: float = 90.0) -> Tuple[float, int]:
    """Poll the server's stdout for its port, then ``/healthz`` for a 200.

    Returns (seconds from launch to the first 200, port).
    """
    port = None
    deadline = t0 + timeout
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise BenchError(f"server exited with {proc.returncode}")
        if port is None:
            with open(log_path) as handle:
                for line in handle:
                    if " on http://" in line:
                        port = int(line.rsplit(":", 1)[1])
        if port is not None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return time.perf_counter() - t0, port
            except OSError:
                pass
        time.sleep(0.005)
    raise BenchError("server not ready in time")


def start_server(children: Children, checkpoint: str, spec: Dict, name: str,
                 dump: Optional[str] = None) -> Tuple[float, int, subprocess.Popen]:
    serve_args = ["--checkpoint", checkpoint, "--port", "0", *spec["serve_args"]]
    if dump:
        argv = python_argv("serve_launcher.py", "--dump", dump, "--", *serve_args)
    else:
        argv = [sys.executable, "-m", "repro", "serve", *serve_args]
    out_path = os.path.join(children.workdir, f"{name}.out")
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = children.start(argv, f"{name}.log", stdout=out)
    try:
        elapsed, port = wait_ready(proc, out_path, t0)
    except BenchError as exc:
        children.stop(proc)
        raise BenchError(f"{exc}:\n" + children.tail(f"{name}.log")) from None
    return elapsed, port, proc


def user_sampler(rng: random.Random, n_users: int, kind: str):
    """``draw(n)`` → ``n`` user ids from the workload's distribution.

    Zipf popularity goes over a seed-shuffled user order, fixed for the
    whole run: the hot set moves with the seed, its shape does not.
    """
    if kind == "uniform":
        return lambda n: [rng.randrange(n_users) for _ in range(n)]
    order = list(range(n_users))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_users)]
    return lambda n: rng.choices(order, weights=weights, k=n)


def paths_for(users: List[int]) -> List[str]:
    return [f"/recommend?user={u}&k={K}" for u in users]


def scrape(port: int) -> Dict[str, float]:
    """Counters and summaries of ``GET /metrics`` as ``{name: value}``."""
    status, body, _ = loadgen.request("127.0.0.1", port, "GET", "/metrics",
                                      timeout=REQUEST_TIMEOUT_S)
    values = {}
    if status == 200:
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                values[name] = float(value)
    return values


def make_inputs(spec: Dict, seed: int, n_users: int, seconds: int) -> Dict:
    """Every request a serve run sends, drawn from the seed alone."""
    rng = random.Random(seed)
    draw = user_sampler(rng, n_users, spec["users"])
    n_open = int(round(spec["rate"] * seconds))
    return {
        "warm": draw(40),
        "open": draw(n_open),
        "offsets": loadgen.poisson_schedule(rng, spec["rate"], n_open),
        "closed": draw(20000),
        "batch": rng.sample(range(n_users), min(BATCH_USERS, n_users)),
    }


def drive(port: int, pid: int, spec: Dict, inputs: Dict, closed: bool = True) -> Dict:
    """Warm-up, open loop, closed loop and batch calls against one server."""
    inflight = os.cpu_count() or 1
    phases = {}
    phases["warmup"] = loadgen.closed_loop("127.0.0.1", port, paths_for(inputs["warm"]), 1,
                                           60.0, REQUEST_TIMEOUT_S)
    before = scrape(port)
    phases["open"] = loadgen.open_loop("127.0.0.1", port, paths_for(inputs["open"]),
                                       inputs["offsets"], inflight, REQUEST_TIMEOUT_S)
    after = scrape(port)
    out = {"phases": phases, "open_metrics": (before, after), "batch": [],
           "batch_users": inputs["batch"]}
    if closed:
        cpu0, wall0 = cpu_seconds(pid), time.perf_counter()
        phases["closed"] = loadgen.closed_loop("127.0.0.1", port, paths_for(inputs["closed"]),
                                               inflight, CLOSED_SECONDS, REQUEST_TIMEOUT_S)
        # Server CPU over the busy phase: well under 1 flags a descheduled run.
        out["cpu_wall_ratio"] = (cpu_seconds(pid) - cpu0) / (time.perf_counter() - wall0)
        body = json.dumps({"users": inputs["batch"], "k": K}).encode()
        out["batch"] = [loadgen.request("127.0.0.1", port, "POST", "/recommend", body)
                        for _ in range(spec["batch_repeats"])]
    return out


def verify(driven: Dict, refs: Dict) -> Tuple[int, int, List[str]]:
    """(attempted, failed, first problems) over every request of a drive."""
    attempted = failed = 0
    problems: List[str] = []
    for phase in driven["phases"].values():
        for sample in phase.samples:
            attempted += 1
            user = int(sample.path.split("user=")[1].split("&")[0])
            problem = check_recommendation(sample.status, sample.body, user, K, refs)
            if problem:
                failed += 1
                problems.append(f"{sample.path}: {problem}")
    for status, payload, _ in driven["batch"]:
        attempted += 1
        problem = check_batch(status, payload, driven["batch_users"], K, refs)
        if problem:
            failed += 1
            problems.append(f"POST /recommend: {problem}")
    return attempted, failed, problems[:5]


def block_rate(phase: loadgen.PhaseResult, block: int) -> float:
    """Median completions per second over blocks of ``block`` answers.

    A block's rate is its ``block - 1`` gaps over the time from its first
    to its last completion; the median shrugs off a descheduled block.
    """
    done = sorted(s.done for s in phase.samples if s.status == 200)
    rates = [
        (block - 1) / (done[i + block - 1] - done[i])
        for i in range(0, len(done) - block + 1, block)
        if done[i + block - 1] > done[i]
    ]
    if len(rates) < 3:
        raise BenchError(f"closed loop completed {len(done)} answers; need 3 blocks of {block}")
    return median(rates)


def run_serve(children: Children, workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    spec = WORKLOADS[workload]
    workdir = children.workdir
    checkpoint = os.path.join(workdir, "ckpt")
    refs_path = os.path.join(workdir, "refs.json")
    proc = children.start(
        python_argv("export_child.py", "--seed", str(seed), "--k", str(K),
                    "--checkpoint", checkpoint, "--refs", refs_path),
        "export.log",
    )
    if proc.wait(170):
        raise BenchError("checkpoint export failed:\n" + children.tail("export.log"))
    refs = read_json(refs_path)
    inputs = make_inputs(spec, seed, refs["n_users"], seconds)

    if trace:
        # Same schedule against an untraced and a traced server: the
        # difference of their p50 is the tracing overhead.
        _, port, proc = start_server(children, checkpoint, spec, "plain")
        plain = drive(port, proc.pid, spec, inputs, closed=False)
        children.stop(proc)
        dump_path = os.path.join(workdir, "spans.json")
        _, port, proc = start_server(children, checkpoint, spec, "traced", dump=dump_path)
    else:
        setups = []
        for i in range(SETUP_REPEATS):
            elapsed, port, proc = start_server(children, checkpoint, spec, f"setup{i}")
            setups.append(elapsed)
            if i < SETUP_REPEATS - 1:
                children.stop(proc)

    driven = drive(port, proc.pid, spec, inputs)
    peak_rss = vm_hwm_mb(proc.pid)
    code = children.stop(proc)
    if code:
        raise BenchError(f"server exited with {code}")

    attempted, failed, problems = verify(driven, refs)
    if trace:
        more = verify(plain, refs)
        attempted, failed, problems = attempted + more[0], failed + more[1], problems + more[2]
    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "host": {**host_fingerprint(refs["host"]), "cpu_wall_ratio": driven["cpu_wall_ratio"]},
        "phases": {
            name: {"sent": p.sent, "succeeded": p.succeeded, "failed": p.failed}
            for name, p in driven["phases"].items()
        },
    }
    if not trace:
        latencies = [s.latency for s in driven["phases"]["open"].samples]
        report["tails"] = tails(latencies)
        report["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "p50_ms": 1e3 * median(latencies),
            "throughput_per_s": block_rate(driven["phases"]["closed"], CLOSED_BLOCK),
            "batch_p50_ms": 1e3 * median([e for _, _, e in driven["batch"]]),
        }
    ok = sum(1 for status, _, _ in driven["batch"] if status == 200)
    report["phases"]["batch"] = {"sent": len(driven["batch"]), "succeeded": ok,
                                 "failed": len(driven["batch"]) - ok}
    if trace:
        plain_p50 = median([s.latency for s in plain["phases"]["open"].samples])
        report["layers"] = layers.serve_layers(
            read_json(dump_path), driven, plain_p50, driven["cpu_wall_ratio"]
        )
    return report


# ----------------------------------------------------------------------
def render(report: Dict, trace: bool) -> List[str]:
    """Human-readable lines, then the one-line JSON result (last)."""
    lines = ["host: " + json.dumps(report["host"], sort_keys=True)]
    for name, phase in report["phases"].items():
        lines.append(f"phase {name}: " + ", ".join(f"{k}={v}" for k, v in phase.items()))
    error_rate = report["failed"] / max(1, report["attempted"])
    lines.append(f"error_rate: {error_rate:.6f} ({report['failed']} of "
                 f"{report['attempted']} operations failed)")
    lines += [f"check failed: {problem}" for problem in report["problems"]]
    if trace:
        values, units = report["layers"], layers.LAYER_METRICS
    else:
        lines += report["tails"]
        values, units = report["metrics"], END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines += [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(json.dumps({
        "correct": report["failed"] == 0 and not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"error: program sources not found under {os.path.relpath(SRC, os.getcwd())}; "
            "run from the root of a full checkout")
        return 2

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    children = Children(workdir)
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if WORKLOADS[args.workload]["kind"] == "train":
            report = run_train(children, args.seed, args.seconds, bool(args.trace))
        else:
            report = run_serve(children, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, NotEnoughSamples) as exc:
        log(f"error: {exc}")
        return 1
    finally:
        children.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in render(report, bool(args.trace)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
