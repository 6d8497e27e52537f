#!/usr/bin/env python3
"""End-to-end benchmark of `homctl build`, `evaluate` and `serve`.

    python3 perfbench/run.py --workload evaluate-intrusion --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. It builds homctl and the benchmark's
replica (perfbench_ledger) in .bench_build, generates seeded Intrusion
inputs, builds the model with `homctl build`, times the workload's homctl
command as a subprocess for --seconds, runs the in-process traced
replicas, checks the commands' outputs against the replicas', and prints
one JSON result as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer ledger with --trace 1. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

WORKLOADS = ("evaluate-intrusion", "serve-intrusion")

# Input sizes. "full" is the benchmark; "tiny" lets perfbench/test_run.py
# run every workload, check and the ledger in seconds.
SIZES = {
    "full": {
        "history": 60000,
        "evaluate_rows": 200000,
        "serve_rows": 50000,
        "serve_passes": 30,
    },
    "tiny": {
        "history": 3000,
        "evaluate_rows": 4000,
        "serve_rows": 2000,
        "serve_passes": 3,
    },
}

MIN_REPS = 3  # timed runs per run, however short --seconds is
REF_EVERY_S = 4.0  # host-drift probe at most this often between timed runs
BUILD_THREADS = "2"
LABELED = "0.1"
LEDGER_TOLERANCE = 0.05  # layers' self times must sum to the total +-5%
BUILD_DIR = ".bench_build"


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(argv, what):
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-4000:]}")
    return proc.stdout


def build_binaries():
    """Builds homctl and perfbench_ledger from the checkout's sources."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src") and
            os.path.isdir("tools")):
        raise BenchError("run from the repository root: CMakeLists.txt, "
                         "src/ and tools/ are required")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    run_checked(["cmake", "--build", BUILD_DIR, "-j", "3", "--target",
                 "homctl", "perfbench_ledger"], "cmake build")
    homctl = os.path.abspath(os.path.join(BUILD_DIR, "hom", "tools",
                                          "homctl"))
    ledger = os.path.abspath(os.path.join(BUILD_DIR, "perfbench_ledger"))
    for path in (homctl, ledger):
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return homctl, ledger


def launch(argv, cwd, ready_prefix=None):
    """Runs argv to completion, timed from outside the process.

    Returns wall_s (launch to exit), ready_s (launch to the first stdout
    line, or to the first line starting with ready_prefix), peak RSS from
    wait4's rusage, the exit code and stdout.
    """
    stderr_path = os.path.join(cwd, "stderr.txt")
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and (ready_prefix is None or
                                  line.startswith(ready_prefix)):
                ready = time.perf_counter() - start
            lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    with open(stderr_path) as f:
        err = f.read()
    return {
        "wall_s": wall,
        "ready_s": ready if ready is not None else wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "stdout": "".join(lines),
        "stderr": err,
    }


def host_ref(ledger):
    """Seconds of the fixed CPU kernel, the host-drift probe."""
    out = run_checked([ledger, "ref"], "host reference kernel")
    return float(out.split()[0])


def field_after(text, prefix, index):
    """Whitespace-split token `index` of the first line starting with
    prefix; None when no line does."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return line.split()[index]
    return None


class Workload:
    """Inputs, commands and output checks of one workload."""

    def __init__(self, name, seed, size, homctl, ledger, work):
        self.name = name
        self.kind = name.split("-")[0]
        self.seed = seed
        self.size = size
        self.homctl = homctl
        self.ledger = ledger
        self.work = work
        if self.kind == "evaluate":
            self.online_rows = size["evaluate_rows"]
            self.passes = 1
        else:
            self.online_rows = size["serve_rows"]
            self.passes = size["serve_passes"]

    def path(self, name):
        return os.path.join(self.work, name)

    def setup(self):
        """Generates and writes the CSVs, then builds the model with
        `homctl build`. Returns the seconds it took."""
        start = time.perf_counter()
        run_checked([self.ledger, "gen", "--seed", str(self.seed),
                     "--history", str(self.size["history"]),
                     "--online", str(self.online_rows),
                     "--history-out", self.path("history.csv"),
                     "--online-out", self.path("online.csv")], "gen")
        run_checked([self.homctl, "build", "--stream", "intrusion",
                     "--in", self.path("history.csv"),
                     "--out", self.path("model.hom"),
                     "--threads", BUILD_THREADS], "setup build")
        return time.perf_counter() - start

    def command(self):
        if self.kind == "evaluate":
            return [self.homctl, "evaluate", "--model", "model.hom",
                    "--in", "online.csv", "--labeled", LABELED]
        return [self.homctl, "serve", "--model", "model.hom", "--in",
                "online.csv", "--passes", str(self.passes), "--listen", "0"]

    def ready_prefix(self):
        return "serving: listening on" if self.kind == "serve" else None

    def replica(self, argv, name):
        trace = self.path(name + ".json")
        run_checked(argv + ["--trace-out", trace], "traced " + name)
        with open(trace) as f:
            return json.load(f)

    def setup_replica(self):
        """Evaluate's traced run also replays the setup's `homctl build` in
        process, so the build's layers are traced and its bytes checked."""
        if self.kind != "evaluate":
            return EMPTY_TRACE
        return self.replica([self.ledger, "build", "--in",
                             self.path("history.csv"), "--out",
                             self.path("replica.hom")], "setup-trace")

    def command_replica(self):
        if self.kind == "evaluate":
            argv = [self.ledger, "evaluate", "--model", self.path("model.hom"),
                    "--in", self.path("online.csv"), "--labeled", LABELED]
        else:
            argv = [self.ledger, "serve", "--model", self.path("model.hom"),
                    "--in", self.path("online.csv"), "--passes",
                    str(self.passes)]
        return self.replica(argv, "trace")

    def setup_matches(self):
        """The setup's model bytes equal the traced in-process build's."""
        if self.kind != "evaluate":
            return True
        with open(self.path("model.hom"), "rb") as a, \
                open(self.path("replica.hom"), "rb") as b:
            return a.read() == b.read()

    def records_offered(self):
        return self.online_rows * self.passes

    def outputs(self, run):
        """What the command printed that the checks compare, or None when
        its output cannot be parsed."""
        out = run["stdout"]
        try:
            if self.kind == "evaluate":
                return {"records": int(field_after(out, "prequential", 4)),
                        "error": field_after(out, "prequential", 2)}
            return {"records": int(field_after(out, "serve: completed", 5)),
                    "error": field_after(out, "serve: completed", 8),
                    "alert_transitions": int(field_after(out, "alerts:", 3))}
        except (TypeError, ValueError, IndexError):
            return None

    def expected(self, trace):
        """The same outputs, from the traced replica."""
        values = trace["values"]
        records = int(values["records"])
        errors = int(values["errors"])
        expected = {"records": records,
                    "error": "%.5f" % (errors / records if records else 0.0)}
        if self.kind == "serve":
            expected["alert_transitions"] = int(values["alert_transitions"])
        return expected

    def serving_s(self, run):
        """The part of a timed run that records_per_s divides by."""
        if self.kind == "evaluate":
            return run["wall_s"]
        return run["wall_s"] - run["ready_s"]


def layer_ledger(trace):
    """Self time of every layer on the calling thread's timeline.

    A span's self time is its duration minus its child spans and the
    calling-thread call aggregates that ran inside it; an aggregate's self
    time is its busy time. Returns (total_ns, {layer: self_ns}).
    """
    spans = trace["spans"]
    if not spans:
        return 0, {}
    duration = [s["end_ns"] - s["start_ns"] for s in spans]
    self_ns = defaultdict(int)
    for i, s in enumerate(spans):
        self_ns[s["name"]] += duration[i]
        if s["parent"] >= 0:
            self_ns[spans[s["parent"]]["name"]] -= duration[i]
    for c in trace["calls"]:
        if c["thread"] == "caller":
            self_ns[c["name"]] += c["busy_ns"]
            self_ns[c["parent"]] -= c["busy_ns"]
    del self_ns[spans[0]["name"]]
    return duration[0], dict(self_ns)


class TraceSummary:
    """Per-name totals of one replica's trace, plus its ledger check."""

    def __init__(self, trace):
        self.values = trace["values"]
        self.total_ns, self.self_ns = layer_ledger(trace)
        self.span_ns = defaultdict(int)
        for s in trace["spans"]:
            self.span_ns[s["name"]] += s["end_ns"] - s["start_ns"]
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.busy_ns = defaultdict(int)  # calling thread
        self.pool_ns = defaultdict(int)  # thread-pool workers
        self.p99_ns = defaultdict(float)
        for c in trace["calls"]:
            self.calls[c["name"]] += c["calls"]
            self.items[c["name"]] += c["items"]
            if c["thread"] == "caller":
                self.busy_ns[c["name"]] += c["busy_ns"]
                self.p99_ns[c["name"]] = c.get("p99_ns", 0.0)
            else:
                self.pool_ns[c["name"]] += c["busy_ns"]
        ledger_sum = sum(self.self_ns.values())
        self.ledger_ratio = (ledger_sum / self.total_ns if self.total_ns
                             else 0.0)
        self.ledger_ok = (
            abs(ledger_sum - self.total_ns) <=
            LEDGER_TOLERANCE * self.total_ns and
            all(v >= 0 for v in self.self_ns.values()))
        if not self.ledger_ok:
            log(f"ledger check failed: total {self.total_ns} ns, self "
                f"times {self.self_ns}")

    def seconds(self, name):
        return self.span_ns[name] / 1e9

    def busy_s(self, name):
        return self.busy_ns[name] / 1e9

    def mean_ns(self, name):
        n = self.calls[name]
        return self.busy_ns[name] / n if n else 0.0

    def value(self, name):
        return self.values.get(name, 0.0)


EMPTY_TRACE = {"spans": [], "calls": [], "values": {}}


def per_layer_metrics(cmd, setup, wall_s, ref_s):
    """The per-layer result from the command replica's summary `cmd` and
    the traced setup build's summary `setup`."""
    read_s = cmd.seconds("data.read_csv")
    loop_s = cmd.seconds("eval.loop")
    predictions = cmd.value("predictions")
    m = {
        "data.read_csv_s": (read_s, "s"),
        "data.rows_per_s": (cmd.value("rows_read") / read_s if read_s
                            else 0.0, "1/s"),
        "data.rows_read": (cmd.value("rows_read"), "count"),
        "data.rows_skipped": (cmd.value("rows_skipped"), "count"),
        "data.read_csv_rss_mb": (cmd.value("read_csv_rss_mb"), "MB"),
        "classifiers.train_calls": (setup.calls["classifiers.train"],
                                    "count"),
        "classifiers.train_records": (setup.items["classifiers.train"],
                                      "count"),
        "classifiers.train_s": (setup.busy_s("classifiers.train"), "s"),
        "classifiers.train_pool_s": (
            setup.pool_ns["classifiers.train"] / 1e9, "s"),
        "classifiers.predict_calls": (setup.calls["classifiers.predict"],
                                      "count"),
        "classifiers.predict_s": (setup.busy_s("classifiers.predict"), "s"),
        "classifiers.predict_pool_s": (
            setup.pool_ns["classifiers.predict"] / 1e9, "s"),
        "highorder.build_s": (setup.seconds("highorder.build"), "s"),
        "highorder.build_self_s": (
            setup.self_ns.get("highorder.build", 0) / 1e9, "s"),
        "highorder.concepts": (cmd.value("concepts"), "count"),
        "highorder.save_s": (setup.seconds("highorder.save"), "s"),
        "highorder.load_s": (cmd.seconds("highorder.load"), "s"),
        "highorder.model_bytes": (cmd.value("model_bytes"), "bytes"),
        "highorder.predict_calls": (cmd.calls["highorder.predict"], "count"),
        "highorder.predict_s": (cmd.busy_s("highorder.predict"), "s"),
        "highorder.predict_mean_ns": (cmd.mean_ns("highorder.predict"), "ns"),
        "highorder.predict_p99_ns": (cmd.p99_ns["highorder.predict"], "ns"),
        "highorder.base_evals_per_predict": (
            cmd.value("base_evaluations") / predictions if predictions
            else 0.0, "count"),
        "highorder.observe_calls": (cmd.calls["highorder.observe"], "count"),
        "highorder.observe_s": (cmd.busy_s("highorder.observe"), "s"),
        "highorder.observe_mean_ns": (cmd.mean_ns("highorder.observe"), "ns"),
        "highorder.observe_p99_ns": (cmd.p99_ns["highorder.observe"], "ns"),
        "highorder.proba_s": (cmd.busy_s("highorder.proba"), "s"),
        "eval.loop_s": (loop_s, "s"),
        "eval.loop_self_s": (cmd.self_ns.get("eval.loop", 0) / 1e9, "s"),
        "eval.records_per_s": (cmd.value("records") / loop_s if loop_s
                               else 0.0, "1/s"),
        "obs.monitor_ticks": (cmd.calls["obs.monitor_tick"], "count"),
        "obs.monitor_tick_s": (cmd.busy_s("obs.monitor_tick"), "s"),
        "trace.total_s": (cmd.total_ns / 1e9, "s"),
        "trace.overhead_ratio": (cmd.total_ns / 1e9 / wall_s, "ratio"),
        "trace.ledger_ratio": (cmd.ledger_ratio, "ratio"),
        "trace.setup_total_s": (setup.total_ns / 1e9, "s"),
        "trace.setup_ledger_ratio": (setup.ledger_ratio, "ratio"),
        "host.ref_s": (ref_s, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run_workload(args, homctl, ledger):
    size = SIZES[args.size]
    work = os.path.abspath(os.path.join(BUILD_DIR, "work", args.workload))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    w = Workload(args.workload, args.seed, size, homctl, ledger, work)

    # One setup per run: it includes a 15-35 s model build.
    setup_s = w.setup()

    runs, refs = [], [host_ref(ledger)]
    start = last_ref = time.perf_counter()
    while len(runs) < MIN_REPS or \
            time.perf_counter() - start < args.seconds:
        run = launch(w.command(), work, w.ready_prefix())
        run["outputs"] = w.outputs(run)
        runs.append(run)
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(host_ref(ledger))
            last_ref = time.perf_counter()
    refs.append(host_ref(ledger))

    # The traced setup build costs as much as the setup's build, so only
    # the per-layer runs make it.
    setup = TraceSummary(w.setup_replica() if args.trace else EMPTY_TRACE)
    setup_ok = not args.trace or w.setup_matches()
    trace = w.command_replica()
    cmd = TraceSummary(trace)
    expected = w.expected(trace)
    if not setup_ok:
        log(f"{w.name}: the setup's model differs from the traced build's")

    # The timings average over the run, which is one long measurement of
    # back-to-back commands, rather than take the median command: the host
    # drifts within a run, and serve's exit waits for the HTTP accept
    # loop's 250 ms stop poll, which starts with the ready line, so one
    # command's wall_s - ready_s is a whole number of polls and a median of
    # a few of them moves in 5-10% steps.
    success, accuracy = [], []
    records, serving_s = 0, 0.0
    for run in runs:
        outputs = run["outputs"]
        if not (setup_ok and run["returncode"] == 0 and outputs == expected):
            log(f"{w.name}: run failed its output check (exit "
                f"{run['returncode']}): {run['stderr'][-2000:]}")
            success.append(0.0)
            continue
        success.append(outputs["records"] / w.records_offered())
        accuracy.append(1.0 - float(outputs["error"]))
        records += outputs["records"]
        serving_s += w.serving_s(run)

    failed = sum(1 for s in success if s < 1.0)
    walls = [r["wall_s"] for r in runs]
    wall_s = statistics.mean(walls)
    ref_s = statistics.median(refs)
    print("diagnostics: " + json.dumps({
        "host.ref_s": ref_s,
        "wall_s_runs": walls,
        "ready_s_runs": [r["ready_s"] for r in runs],
        "setup_s": setup_s,
    }), flush=True)

    if args.trace:
        metrics = per_layer_metrics(cmd, setup, wall_s, ref_s)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in runs), "MB"),
            "accuracy": (statistics.median(accuracy) if accuracy else 0.0,
                         "ratio"),
            "success_ratio": (statistics.mean(success), "ratio"),
            "ready_s": (statistics.mean(r["ready_s"] for r in runs), "s"),
            "records_per_s": (records / serving_s if serving_s else 0.0,
                              "1/s"),
        }
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in metrics.items()}
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0 and cmd.ledger_ok and setup.ledger_ok,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        homctl, ledger = build_binaries()
        result = run_workload(args, homctl, ledger)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
