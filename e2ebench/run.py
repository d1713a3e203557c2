#!/usr/bin/env python3
"""End-to-end benchmark of the PEAK reproduction (README.md beside this file).

    python3 e2ebench/run.py --workload serve-search --seed 1 --seconds 36 --trace 0
    python3 e2ebench/run.py --write-expected

Run from the root of a checkout. Builds `peak-serve` and the benchmark's
in-process driver (`e2ebench/driver`) in release mode, runs one workload,
checks every answer, and prints one JSON result as the last line of
stdout: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a traced replay with `--trace 1`.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "e2ebench"
EXPECTED = BENCH / "expected" / "serve_answers.json"

# Knobs that change what the program does; the benchmark measures the
# defaults, so a change of default shows.
REFUSED_ENV = ("PEAK_TIER", "PEAK_ARG_STREAM", "PEAK_VALIDATE",
               "PEAK_JIT_MAX_STMTS", "PEAK_METRICS")

WORKERS = 1
# Passes of the job list, each on a fresh daemon or driver process, are the
# unit of work. A run makes as many as fit in --seconds at these nominal
# pass times, so the same --seconds does the same work on every commit.
# At 36 s serve-search makes five passes (180 samples): its tail (rank 170)
# falls among the fifteen samples of the three serial VORTEX and TWOLF jobs;
# with four it was the second lowest of their twelve and spread 20%.
# table1 makes five passes (100 samples): its median falls among the
# 15-20 ms samples of the GZIP, TWOLF and CRAFTY cells, its tail (rank 90)
# among the overlapping 1-2.5 s samples of the EQUAKE and SWIM cells.
NOMINAL_PASS_S = {"serve-search": 7.0, "serve-figure7": 15.0, "table1": 7.0}
SETUP_SAMPLES = 21
JOB_TIMEOUT_S = benchlib.DEADLINE_MS / 1000 + 30
SOCKET = "d.sock"


class BenchError(Exception):
    """A failure that must stop the run without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pool_threads():
    """Pool threads per worker: workers x threads stays within nproc."""
    return max(1, min(2, (os.cpu_count() or 1) // WORKERS))


def build():
    """Build both binaries; returns (peak-serve, peak-e2ebench) paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "serve").is_dir():
        raise BenchError("no peak-repro sources at %s" % ROOT)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "peak-serve",
                 "--bin", "peak-serve"],
                ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
                 str(BENCH / "driver" / "Cargo.toml")]):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build failed: %s" % e)
        if done.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))
    return target / "release" / "peak-serve", target / "release" / "peak-e2ebench"


def provenance(args, threads):
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    sources += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    sources += sorted(p for p in BENCH.rglob("*")
                      if p.is_file() and "__pycache__" not in p.parts)
    for p in sources:
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0")
        digest.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "workers": WORKERS,
            "peak_threads": threads, "commit": commit, "source_sha256": digest.hexdigest()}


def vmhwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def stop(proc):
    """Wait for a child to end, killing it if it does not within 30 s."""
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Daemon:
    """A `peak-serve serve` child with a fresh store in `workdir`, and one
    client connection to it."""

    def __init__(self, serve_bin, env, workdir):
        workdir.mkdir(parents=True)
        self.workdir = workdir
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(serve_bin), "serve", "--socket", SOCKET, "--store", "store",
             "--workers", str(WORKERS)],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self.sock = None
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError("daemon exited during start-up")
                if time.perf_counter() - start > 30:
                    raise BenchError("daemon not ready after 30 s")
                try:
                    self._connect()
                    if self.request({"id": "ready", "kind": "health"}).get("status") == "ok":
                        break
                except OSError:
                    self._disconnect()
                time.sleep(0.0005)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            # Relative: a socket path must stay under ~100 bytes.
            sock.connect(os.path.relpath(self.workdir / SOCKET))
        except OSError:
            sock.close()
            raise
        sock.settimeout(JOB_TIMEOUT_S)
        self.sock, self.file = sock, sock.makefile("rwb")

    def _disconnect(self):
        if self.sock is not None:
            self.file.close()
            self.sock.close()
            self.sock = None

    def send(self, line):
        """Write one request line and read its answer line (raw bytes)."""
        self.file.write(line.encode() + b"\n")
        self.file.flush()
        answer = self.file.readline()
        if not answer:
            raise OSError("daemon closed the connection")
        return answer

    def request(self, req):
        return json.loads(self.send(benchlib.request_line(req)))

    def close(self):
        """Shut the daemon down and wait for it to end."""
        if self.proc.poll() is None:
            try:
                if self.sock is None:
                    self._connect()
                self.request({"id": "bye", "kind": "shutdown"})
            except OSError:
                self.proc.kill()
        self._disconnect()
        stop(self.proc)


def serve_pass(serve_bin, env, workdir, jobs, expected):
    """One pass of `jobs` (key, request) over one connection to a fresh
    daemon, closed loop. Returns the pass record."""
    daemon = Daemon(serve_bin, env, workdir)
    try:
        before = daemon.request({"id": "stats-before", "kind": "stats"})
        latencies, failed = {}, []
        start = time.perf_counter()
        for i, (key, req) in enumerate(jobs):
            line = benchlib.request_line(req)
            t = time.perf_counter()
            try:
                raw = daemon.send(line)
            except OSError as e:
                failed += ["%s: %s" % (k, e) for k, _ in jobs[i:]]
                break
            latencies[key] = time.perf_counter() - t
            try:
                answer = json.loads(raw)
            except ValueError:
                answer = {"error": "unparseable answer"}
            if answer.get("status") != "ok" or answer.get("id") != key:
                failed.append("%s: %s" % (key, answer.get("error", "wrong id")))
                continue
            diff = benchlib.diff_answer(answer.get("result"), expected[key]["result"])
            if diff:
                failed.append("%s: differs in %s" % (key, ", ".join(diff)))
        wall = time.perf_counter() - start
        after = daemon.request({"id": "stats-after", "kind": "stats"})
        rss = vmhwm_mb(daemon.proc.pid)
    finally:
        daemon.close()
    return {"setup_s": daemon.setup_s, "wall_s": wall, "latencies": latencies,
            "failed": failed, "rss_mb": rss, "stats": (before, after)}


def run_serve(args, serve_bin, env, scratch, passes):
    expected = json.loads(EXPECTED.read_text())
    jobs = benchlib.seeded_jobs(benchlib.serve_menu(args.workload), args.seed,
                                 lambda job: job[1]["benchmark"])
    records = [serve_pass(serve_bin, env, scratch / ("pass%d" % i), jobs, expected)
               for i in range(passes)]
    setups = [r["setup_s"] for r in records]
    for i in range(SETUP_SAMPLES - len(setups)):
        daemon = Daemon(serve_bin, env, scratch / ("setup%d" % i))
        daemon.close()
        setups.append(daemon.setup_s)
    return len(jobs), records, setups


def start_driver(driver_bin, env, mode, cells):
    """Launch the Table 1 driver on `cells`; returns (proc, setup seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(driver_bin)] + mode, cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write("".join(benchlib.request_line(c) + "\n" for c in cells).encode())
        proc.stdin.close()
        ready = proc.stdout.readline()
    except OSError:
        ready = b""
    setup = time.perf_counter() - start
    if ready.strip() != b'{"ready":true}':
        proc.kill()
        stop(proc)
        raise BenchError("table1 driver did not get ready")
    return proc, setup


def committed_table1():
    return benchlib.table1_expected({
        "SPARC-II": json.loads((ROOT / "results_table1_sparc.json").read_text()),
        "Pentium-IV": json.loads((ROOT / "results_table1_p4.json").read_text()),
    })


def run_table1(args, driver_bin, env, passes):
    expected = committed_table1()
    cells = benchlib.seeded_jobs(benchlib.table1_menu(), args.seed,
                                  lambda cell: cell["benchmark"])
    records, setups = [], []
    for _ in range(passes):
        proc, setup = start_driver(driver_bin, env, ["table1"], cells)
        setups.append(setup)
        secs, failed, done = {}, [], None
        try:
            for raw in proc.stdout:
                line = json.loads(raw)
                if line.get("done"):
                    done = line
                    continue
                secs[line["id"]] = line["secs"]
                if line["rows"] != expected.get(line["id"]):
                    failed.append("%s: rows differ from the committed Table 1" % line["id"])
        finally:
            if done is None:
                proc.kill()
            stop(proc)
        if done is None or proc.returncode != 0:
            raise BenchError("table1 driver failed (exit %s)" % proc.returncode)
        failed += ["%s: not computed" % c["id"] for c in cells if c["id"] not in secs]
        records.append({"wall_s": done["wall_s"], "latencies": secs, "failed": failed,
                        "rss_mb": done["vmhwm_kb"] / 1024.0})

    for _ in range(SETUP_SAMPLES - len(setups)):
        proc, setup = start_driver(driver_bin, env, ["table1", "--setup-only"], cells)
        proc.stdout.read()
        stop(proc)
        setups.append(setup)
    return len(cells), records, setups


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs_per_pass, records, setups, detail):
    latencies = [t for r in records for t in r["latencies"].values()]
    failed = [f for r in records for f in r["failed"]]
    attempted = jobs_per_pass * len(records)
    correct = attempted - len(failed)
    wall = sum(r["wall_s"] for r in records)
    tail = benchlib.tail_percentile(latencies)
    if tail is None:
        raise BenchError("too few samples for a tail percentile: %d" % len(latencies))
    detail.update({"tail_percentile": tail[1], "tail_n": tail[2],
                   "pass_wall_s": [r["wall_s"] for r in records], "setup_samples_s": setups,
                   "latencies_s": [r["latencies"] for r in records], "failures": failed})
    return attempted, len(failed), {
        "setup_s": metric(benchlib.median(setups), "s"),
        "jobs_per_s": metric(correct / wall, "1/s"),
        "job_latency_p50_s": metric(benchlib.median(latencies), "s"),
        "job_latency_tail_s": metric(tail[0], "s"),
        "wall_s": metric(wall, "s"),
        "peak_rss_mb": metric(max(r["rss_mb"] for r in records), "MB"),
    }


def replay(driver_bin, env, mode, lines):
    """Run the traced replay; returns (per-job lines, final line)."""
    done = subprocess.run([str(driver_bin), "replay"] + mode, cwd=ROOT, env=env,
                          input="".join(line + "\n" for line in lines).encode(),
                          stdout=subprocess.PIPE, timeout=170)
    if done.returncode != 0:
        raise BenchError("replay failed (exit %d)" % done.returncode)
    out = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    return out[:-1], out[-1]


def span_table(spans):
    """Per job: {"total": root span seconds, stage name: seconds summed}."""
    jobs = {}
    for s in spans:
        if s["parent"] is None:
            jobs[s["job"]] = {"total": s["end"] - s["start"]}
    for s in spans:
        if s["parent"] is not None:
            stages = jobs[s["job"]]
            stages[s["name"]] = stages.get(s["name"], 0.0) + s["end"] - s["start"]
    return jobs


def per_job_versions(lines):
    """Seconds per version (opt, prepare, lower) of each line's pair."""
    per_pair, out = {}, {}
    for line in lines:
        pair = tuple(line["id"].split("/")[:2])
        v = line["versions"]
        if v is not None:
            per_pair[pair] = (v["opt_s"] / v["versions"], v["prepare_s"] / v["versions"],
                              v["lower_s"] / v["versions"])
        out[line["id"]] = per_pair[pair]
    return out


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def counter_total(lines, name):
    return sum(line["counters"][name] for line in lines)


def common_layers(lines, stages, reference):
    """The per-layer metrics every workload reports. `reference` maps a
    job to the time its stage spans should account for."""
    versions = per_job_versions(lines)
    hits = counter_total(lines, "version_cache.hits")
    misses = counter_total(lines, "version_cache.misses")
    sched_jobs = counter_total(lines, "sched.jobs")
    materialize = [s for s in stages.values() if "harness.args_materialize" in s]
    stage_sum = {k: sum(v for n, v in s.items() if n != "total") for k, s in stages.items()}
    compile_s = {line["id"]: line["counters"]["version_cache.compiles"]
                 * (versions[line["id"]][0] + versions[line["id"]][1]) for line in lines}
    pairs = {v for v in versions.values()}
    return compile_s, {
        "consultant.s_per_job": mean(s.get("consultant.consult", 0.0)
                                     + s.get("consultant.setup", 0.0) for s in stages.values()),
        "sched.jobs": sched_jobs,
        "sched.stolen_share": counter_total(lines, "sched.stolen") / sched_jobs
        if sched_jobs else 0.0,
        "version_cache.compiles": counter_total(lines, "version_cache.compiles"),
        "version_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "version_cache.coalesced": counter_total(lines, "version_cache.coalesced"),
        "opt.s_per_version": mean(p[0] for p in pairs),
        "sim.prepare_s_per_version": mean(p[1] for p in pairs),
        "jit.lower_s_per_version": mean(p[2] for p in pairs),
        "compile.s_per_job": mean(compile_s.values()),
        "harness.args_materialize_s": mean(s["harness.args_materialize"] for s in materialize),
        "harness.invocations": counter_total(lines, "core.harness.invocations"),
        "sim.tier_invocations.predecoded":
            counter_total(lines, "core.jit.tier_invocations.predecoded"),
        "sim.tier_invocations.jit": counter_total(lines, "core.jit.tier_invocations.jit"),
        "jit.deopts": counter_total(lines, "core.jit.deopts"),
        "rating.calls": counter_total(lines, "core.rating.calls"),
        "trace.stage_share": sum(stage_sum.values()) / sum(reference.values()),
        "trace.gap_s_per_job": mean(reference[k] - stage_sum[k] for k in stages),
    }


LAYER_UNITS = {
    "serve.overhead_s": "s", "serve.store_record_s": "s", "serve.jobs_failed": "count",
    "serve.job_retries": "count", "serve.shed": "count", "consultant.s_per_job": "s",
    "search.s_per_job": "s", "search.ratings_per_job": "count",
    "search.runs_per_job": "count", "search.invocations_per_job": "count",
    "sched.jobs": "count", "sched.stolen_share": "ratio", "version_cache.compiles": "count",
    "version_cache.hit_ratio": "ratio", "version_cache.coalesced": "count",
    "opt.s_per_version": "s", "sim.prepare_s_per_version": "s",
    "jit.lower_s_per_version": "s", "compile.s_per_job": "s",
    "tuner.production_s_per_job": "s", "sim.exec_mcycles_per_s": "Mcycles/s",
    "harness.args_materialize_s": "s", "harness.invocations": "count",
    "sim.tier_invocations.predecoded": "count", "sim.tier_invocations.jit": "count",
    "jit.deopts": "count", "rating.s_per_cell": "s", "rating.invocations_per_s": "1/s",
    "rating.calls": "count", "trace.stage_share": "ratio", "trace.gap_s_per_job": "s",
}


def traced_serve(args, serve_bin, driver_bin, env, scratch, detail):
    expected = json.loads(EXPECTED.read_text())
    jobs = benchlib.seeded_jobs(benchlib.serve_menu(args.workload), args.seed,
                                 lambda job: job[1]["benchmark"])
    served = serve_pass(serve_bin, env, scratch / "served", jobs, expected)
    store = scratch / "replay-store"
    lines, final = replay(driver_bin, env, ["serve", "--store", str(store)],
                          [benchlib.request_line(req) for _, req in jobs])
    failed = list(served["failed"])
    for line in lines:
        want = expected[line["id"]]
        diff = benchlib.diff_answer(line["result"], want["result"])
        if diff or line["best_bits"] != want["best_bits"]:
            failed.append("replay %s: differs in %s" % (line["id"], ", ".join(diff) or "bits"))
    stages = span_table(final["spans"])
    compile_s, layers = common_layers(lines, stages, served["latencies"])
    before, after = served["stats"]
    retries = [s["metrics"]["counters"].get("serve.job_retries", 0) for s in (before, after)]
    results = {line["id"]: line["result"] for line in lines}
    # Search minus attributed compiling: the strategy and its rating runs.
    search_s = {k: stages[k]["search"] - compile_s[k] for k in stages}
    production = [s.get("tuner.production", 0.0) for s in stages.values()]
    cycles = sum(r["baseline_cycles"] + r["tuned_cycles"] for r in results.values())
    layers.update({
        "serve.overhead_s": benchlib.median(served["latencies"][k] - stages[k]["total"]
                                            for k in stages if k in served["latencies"]),
        "serve.store_record_s": mean(s["serve.store_record"] for s in stages.values()),
        "serve.jobs_failed": after["jobs_failed"] - before["jobs_failed"],
        "serve.job_retries": retries[1] - retries[0],
        "serve.shed": after["shed"] - before["shed"],
        "search.s_per_job": mean(search_s.values()),
        "search.ratings_per_job": mean(r["search"]["ratings"] for r in results.values()),
        "search.runs_per_job": mean(r["search"]["runs"] for r in results.values()),
        "search.invocations_per_job": mean(r["search"]["invocations"]
                                           for r in results.values()),
        "tuner.production_s_per_job": mean(production),
        "sim.exec_mcycles_per_s": cycles / 1e6 / sum(production),
        "rating.s_per_cell": 0.0,
        "rating.invocations_per_s": sum(r["search"]["invocations"] for r in results.values())
        / sum(search_s.values()),
    })
    detail.update({"failures": failed, "replay_rss_mb": final["vmhwm_kb"] / 1024.0})
    return len(jobs) * 2, len(failed), layers


def traced_table1(args, driver_bin, env, detail):
    expected = committed_table1()
    cells = benchlib.seeded_jobs(benchlib.table1_menu(), args.seed,
                                  lambda cell: cell["benchmark"])
    lines, final = replay(driver_bin, env, ["table1"],
                          [benchlib.request_line(c) for c in cells])
    failed = ["replay %s: rows differ from the committed Table 1" % line["id"]
              for line in lines if line["rows"] != expected.get(line["id"])]
    stages = span_table(final["spans"])
    reference = {k: s["total"] for k, s in stages.items()}
    _, layers = common_layers(lines, stages, reference)
    rating_s = {k: s["rating.consistency"] - s["consultant.consult"] for k, s in stages.items()}
    layers.update({k: 0 for k in ("serve.overhead_s", "serve.store_record_s",
                                  "serve.jobs_failed", "serve.job_retries", "serve.shed",
                                  "search.s_per_job", "search.ratings_per_job",
                                  "search.runs_per_job", "search.invocations_per_job")})
    layers.update({
        "consultant.s_per_job": mean(s["consultant.consult"] for s in stages.values()),
        "tuner.production_s_per_job": mean(line["exec"]["secs"] for line in lines),
        "sim.exec_mcycles_per_s": sum(line["exec"]["cycles"] for line in lines) / 1e6
        / sum(line["exec"]["secs"] for line in lines),
        "rating.s_per_cell": mean(rating_s.values()),
        "rating.invocations_per_s": counter_total(lines, "core.harness.invocations")
        / sum(rating_s.values()),
    })
    detail.update({"failures": failed, "replay_rss_mb": final["vmhwm_kb"] / 1024.0})
    return len(cells), len(failed), layers


def write_expected():
    _, driver_bin = build()
    answers = {}
    for workload in ("serve-search", "serve-figure7"):
        menu = benchlib.serve_menu(workload)
        done = subprocess.run([str(driver_bin), "expected"], cwd=ROOT,
                              env=dict(os.environ, PEAK_THREADS="1"),
                              input="".join(benchlib.request_line(r) + "\n"
                                            for _, r in menu).encode(),
                              stdout=subprocess.PIPE, check=True)
        for raw in done.stdout.splitlines():
            line = json.loads(raw)
            answers[line["id"]] = {"best_bits": line["best_bits"], "result": line["result"]}
    EXPECTED.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    log("wrote %s (%d answers)" % (EXPECTED, len(answers)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/serve_answers.json offline")
    args = parser.parse_args()
    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        raise BenchError("unset %s: the benchmark measures the defaults" % ", ".join(refused))
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        parser.error("--workload is required")
    serve_bin, driver_bin = build()
    env = dict(os.environ, PEAK_THREADS=str(1 if args.workload == "table1" else pool_threads()))
    detail = {"provenance": provenance(args, int(env["PEAK_THREADS"]))}
    scratch = ROOT / ".bench_build" / "e2ebench-run" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            if args.workload == "table1":
                attempted, failed, layers = traced_table1(args, driver_bin, env, detail)
            else:
                attempted, failed, layers = traced_serve(args, serve_bin, driver_bin, env,
                                                         scratch, detail)
            metrics = {name: metric(layers[name], unit) for name, unit in LAYER_UNITS.items()}
        else:
            passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
            detail["passes"] = passes
            if args.workload == "table1":
                jobs, records, setups = run_table1(args, driver_bin, env, passes)
            else:
                jobs, records, setups = run_serve(args, serve_bin, env, scratch, passes)
            attempted, failed, metrics = end_to_end(jobs, records, setups, detail)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log("error: %s" % e)
        sys.exit(1)
