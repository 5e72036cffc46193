#!/usr/bin/env python3
"""The repository benchmark: builds coachlm from source and measures one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-52k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Workloads and metrics are declared in BENCHMARK.json at the checkout root;
the sizes and limits the self-check shrinks in perfbench/config.json; the
fixed settings (worker and client counts) are constants in perfbench.cc,
which prints them as a `# settings:` line. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: every end-to-end metric with --trace 0, every per-layer metric with
--trace 1. Exit code 0 means every output was checked and correct.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-52k", "serve-single", "serve-bulk", "ingest-roundtrip")
SERVE_WORKLOADS = ("serve-single", "serve-bulk")


class BenchError(Exception):
    pass


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def stop_group(pgid):
    """SIGKILLs whatever is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def call(args, timeout):
    """Runs one benchmark step in its own session; returns its stdout lines."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        raise BenchError(f"{os.path.basename(args[0])} {args[1]} timed out")
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(args[0])} {args[1]} exited "
                         f"{proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{args[1]} printed nothing")
    return lines


def build(root):
    """Configures and builds perfbench and the coachlm CLI from source."""
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", build_dir, *generator,
                 "-DCMAKE_BUILD_TYPE=Release"]
    for attempt in range(2):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0:
            break
        if attempt == 1 or not os.path.isdir(build_dir):
            raise BenchError("cmake configure failed")
        shutil.rmtree(build_dir)  # A cache from another source tree.
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "coachlm", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    bench = os.path.join(build_dir, "perfbench")
    coachlm = os.path.join(build_dir, "coachlm", "tools", "coachlm")
    for path in (bench, coachlm):
        if not os.access(path, os.X_OK):
            raise BenchError(f"missing build output {path}")
    return bench, coachlm


def measure(root, binaries, spec, workload, seed, seconds, trace, config,
            corrupt=False, extra=()):
    """One benchmark run. Returns (result dict, notes)."""
    bench, coachlm = binaries
    sizes = config
    serve = config["serve"]
    trace_cfg = config["trace"]
    work = os.path.join(root, ".bench_work", f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup = json.loads(call(
            [bench, "setup", "--dir", work, "--seed", str(seed),
             "--size", str(sizes["corpus_pairs"]), "--study", str(sizes["study_pairs"]),
             "--reps", str(sizes["setup_reps"])], timeout=120)[-1])
        traces = os.path.join(root, ".bench_work", "traces")
        os.makedirs(traces, exist_ok=True)
        args = [bench, "run", "--workload", workload, "--dir", work,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", "1" if trace else "0", "--corrupt", "1" if corrupt else "0",
                "--coachlm", coachlm,
                "--rate", str(serve["single_rate_per_s"]),
                "--single-pool", str(serve["single_pool"]),
                "--bulk-bodies", str(serve["bulk_bodies"]),
                "--late-limit-ms", str(serve["late_limit_ms"]),
                "--ledger-limit", str(config["ledger_limit"]),
                "--replay-pairs", str(trace_cfg["replay_pairs"]),
                "--check-pairs", str(trace_cfg["check_pairs"]),
                "--probe-pairs", str(trace_cfg["probe_pairs"]),
                "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json"),
                *extra]
        lines = call(args, timeout=150)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = json.loads(lines[-1])
    notes = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    setup_s = statistics.median(setup["setup_s"])
    boot_s = run["layers"].get("serve.boot_s", 0.0)
    e2e = dict(run["e2e"])
    e2e["setup_s"] = setup_s + (boot_s if workload in SERVE_WORKLOADS else 0.0)
    layers = dict(run["layers"])
    layers["coach.train_s"] = setup["phases"]["train_s"]
    layers["lm.rule_compile_ms"] = setup["lm.rule_compile_ms"]
    notes.append("setup phases (median s): " + ", ".join(
        f"{name} {value:.3f}" for name, value in setup["phases"].items()))
    if not setup["identical"]:
        notes.append("FAIL: setup repetitions produced different corpus/checkpoint bytes")
    correct = run["valid"] and run["failed"] == 0 and setup["identical"]
    failed = run["failed"] + (0 if setup["identical"] else 1)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError(f"perfbench did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if trace:
        # The traced run's own end-to-end figures, for the tracing overhead.
        for m in spec["end_to_end"]:
            notes.append(f"traced {m['name']} = {e2e[m['name']]:.6g} {m['unit']}")
    else:
        for m in spec["end_to_end"]:
            notes.append(f"{m['name']} = {e2e[m['name']]:.6g} {m['unit']}")
    attempted = max(1, int(run["attempted"]))
    notes.append(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": int(failed), "metrics": metrics}
    return result, notes


def self_check(root, binaries, spec, config):
    """Every workload once at tiny scale, then proves each check fires."""
    tiny = json.loads(json.dumps(config))
    small = config["self_check"]
    tiny["corpus_pairs"] = small["corpus_pairs"]
    tiny["study_pairs"] = small["study_pairs"]
    tiny["setup_reps"] = small["setup_reps"]
    tiny["serve"]["single_rate_per_s"] = small["single_rate_per_s"]
    tiny["serve"]["single_pool"] = small["single_pool"]
    tiny["serve"]["bulk_bodies"] = small["bulk_bodies"]
    for key in ("replay_pairs", "check_pairs", "probe_pairs"):
        tiny["trace"][key] = small[key]
    seconds = small["seconds"]
    problems = []

    def expect(label, ok):
        log(f"self-check {label}: {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(label)

    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = measure(root, binaries, spec, workload, 7, seconds, trace, tiny)
            expect(f"{workload} trace={int(trace)} correct",
                   result["correct"] and result["failed"] == 0)
        result, notes = measure(root, binaries, spec, workload, 7, seconds, False, tiny,
                                corrupt=True)
        expect(f"{workload} one corrupted byte is caught",
               not result["correct"] and result["failed"] >= 1
               and any(n.startswith("FAIL") for n in notes))
    result, _ = measure(root, binaries, spec, "serve-single", 7, seconds, False, tiny,
                        extra=("--late-limit-ms", "0"))
    expect("serve-single late generator marks the run invalid", not result["correct"])
    result, _ = measure(root, binaries, spec, "batch-52k", 7, seconds, False, tiny,
                        extra=("--ledger-limit", "0"))
    expect("batch-52k ledger gap over the limit fails the run", not result["correct"])
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "config.json")) as f:
            config = json.load(f)
        binaries = build(root)
        if args.self_check:
            problems = self_check(root, binaries, spec, config)
            print(json.dumps({"self_check": "failed" if problems else "ok",
                              "problems": problems}))
            return 1 if problems else 0
        result, notes = measure(root, binaries, spec, args.workload, args.seed,
                                args.seconds, bool(args.trace), config)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        return 3
    for note in notes:
        print(f"# {note}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
