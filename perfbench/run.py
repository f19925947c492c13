#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload batch-rmat17 --seed 1 --seconds 40 --trace 0

Run from the repository root. It builds tricount_cli, tricountd and the
in-process layer probe from source into .bench_build/perfbench,
generates the workload's inputs from --seed into .perfbench_work/,
checks every count it receives against a serial reference, and prints
one JSON result as the last line of stdout:

    --trace 0  the end-to-end metrics of BENCHMARK.json
    --trace 1  the per-layer metrics (in-process traced run)

Workloads, metric meanings and the layer -> metric map are in
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402

WORKLOADS = ("batch-rmat17", "served-read", "served-write")
RANKS = 4
SETUP_REPEATS = 5
READ_WINDOW = 4          # outstanding requests on the served-read loop
READ_REQUESTS_PER_S = 4000   # generated per second of --seconds (headroom)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = ".perfbench_work"


class WrongCount(Exception):
    """A program under test returned a count that disagrees with the reference."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


# --- build -------------------------------------------------------------------

def build():
    """Configures and builds the programs under test; returns their paths."""
    if not os.path.isdir(os.path.join(HERE, "..", "src", "tricount")):
        raise RuntimeError("repository sources not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(os.cpu_count() or 4)
    with open(build_log, "a") as out:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise RuntimeError("build failed; see " + build_log)
    return {name: os.path.abspath(os.path.join(BUILD_DIR, name)) for name in
            ("tricount_cli", "tricountd", "perfbench_probe")}


# --- child processes ---------------------------------------------------------

def run_child(cmd, cwd=None):
    """Runs cmd to exit; returns (wall_s, exit_code, stdout, peak_rss_mb)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return wall, proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def probe(bins, *args):
    _, code, out, _ = run_child([bins["perfbench_probe"], *args])
    if code == 3:
        raise WrongCount("perfbench_probe reported a wrong count (%s)" % args[0])
    if code != 0:
        raise RuntimeError("perfbench_probe %s failed (exit %d)" % (args[0], code))
    return json.loads(out.strip().splitlines()[-1])


def generate_graph(bins, scale, seed, path):
    """The repo's generator; returns its wall time."""
    wall, code, _, _ = run_child([bins["tricount_cli"], "generate", "--type", "rmat",
                                  "--scale", str(scale), "--edge-factor", "16",
                                  "--seed", str(seed), "--out", path])
    if code != 0:
        raise RuntimeError("tricount_cli generate failed")
    return wall


class Daemon:
    """tricountd with a resident graph on a Unix socket, one connection."""

    def __init__(self, bins, graph, work):
        self.sock_path = os.path.join(work, "d.sock")
        self.artifacts = os.path.join(work, "daemon-artifacts")
        self.proc = subprocess.Popen(
            [bins["tricountd"], "--graph", graph, "--ranks", str(RANKS),
             "--socket", self.sock_path, "--artifacts-dir", self.artifacts],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.sock = None
        self.reader = None
        self.peak_rss_mb = 0.0
        self.connect()

    def connect(self):
        """Connects, retrying while the daemon loads its graph."""
        deadline = time.monotonic() + 120
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("tricountd exited")
            try:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(self.sock_path)
                break
            except OSError:
                sock.close()
                if time.monotonic() > deadline:
                    raise RuntimeError("tricountd did not accept a connection")
                time.sleep(0.005)
        self.sock = sock
        self.reader = sock.makefile("rb")

    def disconnect(self):
        """Frees the daemon's single client slot for another connection."""
        self.reader.close()
        self.sock.close()

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def receive(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("tricountd closed the connection")
        return json.loads(line)

    def call(self, request_id, verb, params=None):
        self.send(workloads.request_line(request_id, verb, params or {}))
        reply = self.receive()
        if not reply.get("ok"):
            raise RuntimeError("%s failed: %s" % (verb, reply))
        return reply["result"]

    def stop(self):
        """Graceful shutdown; returns the session artifact (or {})."""
        try:
            self.send(workloads.request_line(0, "shutdown", {}))
            self.receive()
        except (OSError, ValueError, RuntimeError):
            self.proc.terminate()  # tricountd drains and exits on SIGTERM
        self.disconnect()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        path = os.path.join(self.artifacts, "service-session.json")
        if not os.path.exists(path):
            return {}
        with open(path) as f:
            return json.load(f)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def start_daemon(bins, graph, work, build_stream):
    """Spawns tricountd and waits until the first timed request can be issued.

    Returns (daemon, seconds, delta.stats result or None). served-write
    also forces the lazy stream build here (delta.stats), so it lands in
    set-up and not in apply.
    """
    start = time.perf_counter()
    daemon = Daemon(bins, graph, work)
    try:
        daemon.call(1, "hello")
        stream = daemon.call(2, "delta.stats") if build_stream else None
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - start, stream


def served_setup(bins, graph, work, expected, build_stream):
    """SETUP_REPEATS daemon start-ups; keeps the last one running.

    With build_stream, each start-up's freshly built stream state must
    hold the reference triangle count.
    """
    times = []
    daemon = None
    for i in range(SETUP_REPEATS):
        daemon, seconds, stream = start_daemon(bins, graph, work, build_stream)
        times.append(seconds)
        if stream is not None and stream["triangles"] != expected:
            daemon.stop()
            raise WrongCount("the daemon's stream state holds %d triangles, expected "
                             "%d" % (stream["triangles"], expected))
        if i + 1 < SETUP_REPEATS:
            daemon.stop()
    return daemon, statistics.median(times)


# --- workloads ----------------------------------------------------------------

def graph_scale(args):
    if args.scale:
        return args.scale
    return 17 if args.workload == "batch-rmat17" else 16


CLI_VARIANTS = (("cli_2d_s", "2d", RANKS), ("cli_cetric_s", "cetric", RANKS),
                ("cli_summa_s", "summa", RANKS), ("cli_2d_r1_s", "2d", 1))
# One batch cycle: the headline 2d count six times, the others once.
BATCH_CYCLE = (0, 0, 1, 0, 0, 2, 0, 0, 3)


def parse_cli_count(stdout):
    for line in stdout.splitlines():
        if line.startswith("triangles:"):
            return int(line.split()[1])
    return None


def bench_batch(bins, args, work, expect_offset):
    graph = os.path.join(work, "graph.bin")
    setup = statistics.median(generate_graph(bins, graph_scale(args), args.seed, graph)
                              for _ in range(SETUP_REPEATS))
    expected = probe(bins, "reference", "--graph", graph)["triangles"] + expect_offset
    samples = {name: [] for name, _, _ in CLI_VARIANTS}
    attempted = failed = 0
    peak_rss = 0.0

    def count(variant):
        nonlocal peak_rss
        name, algo, ranks = CLI_VARIANTS[variant]
        wall, code, out, rss = run_child(
            [bins["tricount_cli"], "count", "--file", os.path.abspath(graph),
             "--algo", algo, "--ranks", str(ranks), "--flight", "off"], cwd=work)
        peak_rss = max(peak_rss, rss)
        if code != 0:
            return None
        got = parse_cli_count(out)
        if got != expected:
            raise WrongCount("tricount_cli count --algo %s --ranks %d printed %s, "
                             "expected %d" % (algo, ranks, got, expected))
        return name, wall

    # Untimed warm-up: the first process after an idle spell runs slow.
    if count(0) is None:
        raise RuntimeError("tricount_cli count failed on the warm-up run")
    # Whole cycles only, so every run has the same mix: as many as fit
    # in --seconds at the first cycle's pace (at least one).
    start = time.perf_counter()
    cycles = done = 0
    while done == 0 or done < cycles:
        for variant in BATCH_CYCLE:
            attempted += 1
            result = count(variant)
            if result is None:
                failed += 1
            else:
                samples[result[0]].append(result[1])
        done += 1
        if done == 1:
            cycles = max(1, round(args.seconds / (time.perf_counter() - start)))
    elapsed = time.perf_counter() - start
    for name, values in samples.items():
        print("%-16s median %.4f s  p90 %.4f s  (n=%d)"
              % (name, statistics.median(values), quantile(values, 0.9), len(values)))
    twod = samples["cli_2d_s"]
    return attempted, failed, {
        "setup_s": setup,
        "main_p50_ms": 1e3 * statistics.median(twod),
        "main_p90_ms": 1e3 * quantile(twod, 0.9),
        "second_p50_ms": 1e3 * statistics.median(samples["cli_2d_r1_s"]),
        "ops_per_s": attempted / elapsed,
        "peak_rss_mb": peak_rss,
    }


class ReadChecker:
    """Checks every served read against the serial reference."""

    def __init__(self, expected, top):
        self.expected = expected
        self.top = top             # [[vertex, triangles], ...] in service order
        self.approx = {}

    def check(self, verb, params, result):
        if verb in ("count", "clustering"):
            got = result["triangles"]
        elif verb == "pervertex":
            got = result["total_triangles"]
            rows = [[r["vertex"], r["triangles"]] for r in result["top"]]
            if rows != self.top[:params["top"]]:
                raise WrongCount("pervertex top %d differs from the serial "
                                 "per-vertex reference" % params["top"])
        else:  # approx: same seed, same estimate
            key = params["seed"]
            seen = self.approx.setdefault(key, result["estimate"])
            if seen != result["estimate"]:
                raise WrongCount("approx seed %d is not deterministic" % key)
            return
        if got != self.expected:
            raise WrongCount("served %s %s returned %d triangles, expected %d"
                             % (verb, params, got, self.expected))


def bench_served_read(bins, args, work, expect_offset):
    graph = os.path.join(work, "graph.bin")
    generate_graph(bins, graph_scale(args), args.seed, graph)
    reference = probe(bins, "reference", "--graph", graph,
                      "--top", str(max(workloads.PERVERTEX_TOPS)))
    checker = ReadChecker(reference["triangles"] + expect_offset, reference["top"])
    # Several times what the loop issues in --seconds at scale 16; the C++
    # client stops sending when the time is up.
    reads = workloads.ZipfReads(args.seed)
    issued = {}
    requests_path = os.path.join(work, "reads.jsonl")
    with open(requests_path, "w") as f:
        for _ in range(int(READ_REQUESTS_PER_S * args.seconds)):
            request_id, verb, params = reads.next()
            issued[request_id] = (verb, params)
            f.write(workloads.request_line(request_id, verb, params) + "\n")
    daemon, setup = served_setup(bins, graph, work, checker.expected, build_stream=False)
    replies_path = os.path.join(work, "replies.tsv")
    try:
        # Warm-up, untimed: every expensive head key misses once, one at
        # a time, so the closed loop runs against a warm cache.
        cold = []
        for request_id, (verb, params) in enumerate(workloads.head_keys(), 100):
            sent = time.perf_counter()
            daemon.send(workloads.request_line(request_id, verb, params))
            reply = daemon.receive()
            cold.append(time.perf_counter() - sent)
            if not reply.get("ok"):
                raise RuntimeError("cold %s failed: %s" % (verb, reply))
            checker.check(verb, params, reply["result"])
        daemon.disconnect()
        loop = probe(bins, "client", "--socket", daemon.sock_path,
                     "--requests", requests_path, "--window", str(READ_WINDOW),
                     "--seconds", str(args.seconds), "--out", replies_path)
        daemon.connect()
    finally:
        session = daemon.stop()
    if loop["exhausted"]:
        log("warning: the generated read stream ran out after %.1f s" % loop["elapsed_s"])
    latencies = {}
    attempted = failed = 0
    with open(replies_path) as f:
        for row in f:
            latency, line = row.split("\t", 1)
            reply = json.loads(line)
            attempted += 1
            if not reply.get("ok"):
                failed += 1
                continue
            verb, params = issued[reply["id"]]
            checker.check(verb, params, reply["result"])
            latencies[reply["id"]] = float(latency)
    elapsed = loop["elapsed_s"]
    records = {row.get("id"): row for row in session.get("requests", [])}
    cache = session.get("session", {}).get("cache", {})
    values = list(latencies.values())
    misses = [latencies[i] for i, row in records.items()
              if row.get("cache") == "miss" and i in latencies]
    print("read_p50_ms %.3f ms  read_p90_ms %.3f ms  served_rps %.1f 1/s  (n=%d, %d "
          "misses, %.1f%% miss share)" % (1e3 * statistics.median(values),
                                          1e3 * quantile(values, 0.9), attempted / elapsed,
                                          len(values), len(misses),
                                          100.0 * len(misses) / max(len(values), 1)))
    log("cache: %s" % json.dumps(cache))
    if not misses:
        raise RuntimeError("the read mix produced no cache misses")
    deciles = " ".join("%.3f" % (1e3 * quantile(values, q / 10)) for q in range(1, 10))
    print("read_miss_p50_ms %.3f ms  warm-up cold_miss_p50_ms %.3f ms (n=%d)  latency "
          "p10..p90 (ms): %s" % (1e3 * statistics.median(misses),
                                 1e3 * statistics.median(cold), len(cold), deciles))
    return attempted, failed, {
        "setup_s": setup,
        "main_p50_ms": 1e3 * statistics.median(values),
        "main_p90_ms": 1e3 * quantile(values, 0.9),
        "second_p50_ms": 1e3 * statistics.median(misses),
        "ops_per_s": attempted / elapsed,
        "peak_rss_mb": daemon.peak_rss_mb,
    }


def bench_served_write(bins, args, work, expect_offset):
    graph = os.path.join(work, "graph.bin")
    generate_graph(bins, graph_scale(args), args.seed, graph)
    expected = probe(bins, "reference", "--graph", graph)["triangles"] + expect_offset
    n, base = workloads.read_binary_graph(graph)
    deltas = workloads.DeltaBatches(args.seed, n, base)
    daemon, setup = served_setup(bins, graph, work, expected, build_stream=True)
    applies, counts, batches = [], [], []
    attempted = failed = 0
    maintained = expected
    try:
        start = time.perf_counter()
        request_id = 10
        while time.perf_counter() - start < args.seconds:
            ops = deltas.next()
            batches.append(ops)
            request_id += 1
            sent = time.perf_counter()
            daemon.send(workloads.request_line(request_id, "graph.apply", {"ops": ops}))
            reply = daemon.receive()
            applies.append(time.perf_counter() - sent)
            attempted += 1
            if not reply.get("ok"):
                raise RuntimeError("graph.apply rejected a generated batch: %s" % reply)
            maintained = reply["result"]["triangles"]
            request_id += 1
            sent = time.perf_counter()
            daemon.send(workloads.request_line(request_id, "count", {"algo": "2d"}))
            reply = daemon.receive()
            counts.append(time.perf_counter() - sent)
            attempted += 1
            if not reply.get("ok"):
                failed += 1
                continue
            if reply["result"]["triangles"] != maintained:
                raise WrongCount("count after graph.apply returned %d, apply "
                                 "reported %d" % (reply["result"]["triangles"], maintained))
        elapsed = time.perf_counter() - start
    finally:
        daemon.stop()
    ops_path = os.path.join(work, "applied.ops")
    with open(ops_path, "w") as f:
        for ops in batches:
            f.write(";".join(ops) + "\n")
    recount = probe(bins, "replay", "--graph", graph, "--ops", ops_path)["triangles"]
    if recount + expect_offset != maintained:
        raise WrongCount("maintained count %d differs from the serial recount %d of "
                         "the replayed edge set" % (maintained, recount + expect_offset))
    print("apply_p50_ms %.3f ms  apply_p90_ms %.3f ms  fresh_count_p50_ms %.3f ms  "
          "served_rps %.2f 1/s  (n=%d batches of %d ops)"
          % (1e3 * statistics.median(applies), 1e3 * quantile(applies, 0.9),
             1e3 * statistics.median(counts), attempted / elapsed, len(applies),
             workloads.BATCH_OPS))
    return attempted, failed, {
        "setup_s": setup,
        "main_p50_ms": 1e3 * statistics.median(applies),
        "main_p90_ms": 1e3 * quantile(applies, 0.9),
        "second_p50_ms": 1e3 * statistics.median(counts),
        "ops_per_s": attempted / elapsed,
        "peak_rss_mb": daemon.peak_rss_mb,
    }


# --- traced run -----------------------------------------------------------------

TRACE_BATCHES = 16
TRACE_READS = 32


def bench_traced(bins, args, work, expect_offset):
    scale = graph_scale(args)
    graph = os.path.join(work, "graph.bin")
    generate_graph(bins, scale, args.seed, graph)
    expected = probe(bins, "reference", "--graph", graph)["triangles"] + expect_offset
    n, base = workloads.read_binary_graph(graph)
    deltas = workloads.DeltaBatches(args.seed, n, base)
    ops_path = os.path.join(work, "trace.ops")
    with open(ops_path, "w") as f:
        for _ in range(TRACE_BATCHES):
            f.write(";".join(deltas.next()) + "\n")
    reads = workloads.ZipfReads(args.seed)
    reads_path = os.path.join(work, "trace.reads")
    with open(reads_path, "w") as f:
        for _ in range(TRACE_READS):
            f.write(workloads.request_line(*reads.next()) + "\n")
    spans_path = os.path.join(work, "spans.json")
    out = probe(bins, "layers", "--workload", args.workload, "--graph", graph,
                "--ops", ops_path, "--reads", reads_path, "--scale", str(scale),
                "--seed", str(args.seed), "--expect", str(expected),
                "--spans-out", spans_path)
    metrics = out["metrics"]

    # Scaling efficiency from the CLI, as the end-to-end metrics time it.
    walls = {}
    for ranks in (RANKS, 1):
        wall, code, stdout, _ = run_child(
            [bins["tricount_cli"], "count", "--file", os.path.abspath(graph),
             "--algo", "2d", "--ranks", str(ranks), "--flight", "off"], cwd=work)
        if code != 0:
            raise RuntimeError("tricount_cli count failed")
        if parse_cli_count(stdout) != expected:
            raise WrongCount("tricount_cli count --ranks %d printed a wrong count" % ranks)
        walls[ranks] = wall
    metrics["scaling.eff_r4"] = walls[1] / (RANKS * walls[RANKS])

    rec = out["reconcile"]
    log("reconciliation (%s, in-process e2e %.4f s):" % (args.workload, rec["e2e_s"]))
    for layer, seconds in sorted(rec["layer_self_s"].items(), key=lambda kv: -kv[1]):
        log("  %-10s %.4f s  %5.1f%%" % (layer, seconds, 100.0 * seconds / rec["e2e_s"]))
    log("  %-10s %.4f s  %5.1f%%" % ("(none)", rec["unattributed_s"],
                                     100.0 * rec["unattributed_frac"]))
    log("  widest uncovered gap: %s (%.4f s)" % (rec["widest_gap"], rec["widest_gap_s"]))
    if rec["unattributed_frac"] > 0.05:
        log("FLAG: %.1f%% of the in-process end-to-end time is unattributed; the "
            "widest gap sits at the boundary %s (%.4f s)"
            % (100.0 * rec["unattributed_frac"], rec["widest_gap"], rec["widest_gap_s"]))
    for row in out["e2e_runs"]:
        log("  e2e untraced %.4f s  traced %.4f s" % (row["untraced_s"], row["traced_s"]))
    log("spans written to %s" % spans_path)
    return 1, 0, metrics


RUNNERS = {"batch-rmat17": bench_batch, "served-read": bench_served_read,
           "served-write": bench_served_write}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=0,
                        help="override the workload's RMAT scale (self-tests)")
    parser.add_argument("--expect-offset", type=int, default=0,
                        help="add this to every reference count (self-test: a "
                             "non-zero offset must fail the run)")
    args = parser.parse_args(argv)

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    bins = build()
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = bench_traced if args.trace else RUNNERS[args.workload]
    try:
        attempted, failed, values = runner(bins, args, work, args.expect_offset)
    except WrongCount as e:
        log("WRONG COUNT: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("%-34s %.6g %s" % ("error_rate", failed / max(attempted, 1), "ratio"))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so a running daemon is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("perfbench: error: %s" % e)
        sys.exit(1)
