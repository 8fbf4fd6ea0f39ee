"""The rotorpair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root; rotorpair is imported from ./src. Every
pass runs in a fresh process that this script times from outside; each
CSV it writes goes through the correctness gate in check.py. The last
line of standard output is the result object; the line before it is the
full record (environment, every pass, every diagnostic). See README.md
in this directory for the metrics, the workloads and the BLAS policy.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

# end-to-end metric -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
SETUP_PROBES = 3  # per group: one group before the first pass and one after each pass
DEADLINE_S = 170.0  # every child is killed by then, inside the 180 s limit
SMOKE_TOTAL_PS = 5.0  # smoke runs: the first pulse window and a little free flight
WORK_DIR = ".bench_out"  # scratch space inside the checkout, removed at exit


class Bench:
    """One benchmark invocation: its checkout, scratch directory and deadline."""

    def __init__(self, root: str, work: str, refs_dir: str = check.REFS_DIR):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        self.refs_dir = refs_dir
        self.deadline = time.perf_counter() + DEADLINE_S
        self.jobs = 0

    def child(self, job: dict, env: dict) -> dict:
        """Run worker.py on one job; time it and read its rusage from outside."""
        self.jobs += 1
        tag = f"job{self.jobs:03d}"
        job = dict(job, src=self.src, result=os.path.join(self.work, tag + ".result.json"))
        job.setdefault("out_dir", os.path.join(self.work, tag))
        os.makedirs(job["out_dir"], exist_ok=True)
        job_path = os.path.join(self.work, tag + ".job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        load_before = os.getloadavg()
        start = time.perf_counter()
        # its own session, so a timeout kills whatever it started too; the
        # worker's stdout goes to stderr, keeping stdout for the result
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                                env=env, stdout=sys.stderr, start_new_session=True)
        # a timer, not polling, so the parent takes no CPU while a pass runs
        fired = threading.Event()

        def on_deadline():
            fired.set()
            _kill_group(proc.pid)

        killer = threading.Timer(max(0.0, self.deadline - start), on_deadline)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        killer.join()
        timed_out = fired.is_set()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _wait_group_gone(proc.pid)
        out = {
            "exit_code": proc.returncode,
            "timed_out": timed_out,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux; children included
            "load_before": load_before,
            "load_after": os.getloadavg(),
            "out_dir": job["out_dir"],
            "result": None,
        }
        if proc.returncode == 0 and os.path.exists(job["result"]):
            with open(job["result"], encoding="utf-8") as fh:
                out["result"] = json.load(fh)
        return out


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of the child's group is left."""
    end = time.perf_counter() + limit_s
    while time.perf_counter() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    _kill_group(pgid)


def pass_env() -> dict:
    """The inherited environment with one BLAS thread, set before numpy loads."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1")


def gate_pass(bench: Bench, workload: str, child: dict, smoke: bool) -> list[dict]:
    """Correctness of every run of one pass."""
    n_rows = int(SMOKE_TOTAL_PS // 0.5) + 1 if smoke else None
    status = {label: None for label in workloads.WORKLOADS[workload]}
    csvs = {label: None for label in status}
    for run in (child["result"] or {}).get("runs", []):
        status[run["label"]] = run["error"]
        csvs[run["label"]] = os.path.join(child["out_dir"], run["label"], "timeseries.csv")
    runs = []
    for label in status:
        if csvs[label] is None:
            runs.append({"label": label, "ok": False, "problems": ["run did not happen"]})
            continue
        gate = check.check_csv(csvs[label], check.load_ref(label, bench.refs_dir),
                               workloads.d_single(label), n_rows)
        if status[label]:
            gate["problems"].insert(0, f"run raised {status[label]}")
            gate["ok"] = False
        runs.append({"label": label, **gate})
    return runs


def measure(bench: Bench, workload: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Passes, with a group of set-up probes (untraced runs only) before the
    first and after each, until `seconds` have gone; returns (result,
    record). The probes are spread over the run so that their median, like
    the passes', averages over the host's speed during the whole run."""
    started = time.perf_counter()
    total_ps = SMOKE_TOTAL_PS if smoke else None
    order = workloads.ordered_labels(workload, seed)
    attempted = failed = 0
    problems = []

    probes = []

    def run_probes() -> None:
        for _ in range(0 if traced else 1 if smoke else SETUP_PROBES):
            child = bench.child({"kind": "setup", "runs": order}, pass_env())
            if child["result"] is None:
                problems.append(f"set-up probe exited with {child['exit_code']}")
            probes.append(child)

    def run_pass() -> dict:
        job = {"kind": "run_pass", "runs": order, "total_time_ps": total_ps, "trace": traced}
        child = bench.child(job, pass_env())
        child["runs"] = gate_pass(bench, workload, child, smoke)
        if traced:
            trace = (child["result"] or {}).pop("trace", None)
            if trace is None:  # the pass died: nothing was hooked
                missing = {layer for layer, *_ in layertrace.HOOKS}
                trace = {"spans": [], "overhead_s": None}
            else:
                missing = set(trace["missing_layers"])
            child["missing_layers"] = sorted(missing)
            child["layers"] = layertrace.layer_metrics(trace["spans"], child["wall_s"],
                                                       trace["overhead_s"], missing)
        return child

    # one pass, then more while the next and its probes are expected to end in time
    run_probes()
    probes_s = time.perf_counter() - started
    passes = []
    while True:
        passes.append(run_pass())
        run_probes()
        if passes[-1]["timed_out"] or time.perf_counter() > bench.deadline:
            break
        if time.perf_counter() - started + pass_s(passes) + probes_s > seconds:
            break
    if any(child["timed_out"] for child in probes + passes):
        problems.append(f"a process was killed at the {DEADLINE_S:.0f} s deadline")

    attempted += len(order) * len(probes)
    failed += len(order) * sum(1 for p in probes if p["result"] is None)
    for p in passes:
        attempted += len(p["runs"])
        failed += sum(1 for run in p["runs"] if not run["ok"])
        errs = [run["max_abs_err"] for run in p["runs"] if run.get("max_abs_err") is not None]
        drifts = [run["max_norm_drift"] for run in p["runs"] if run.get("max_norm_drift") is not None]
        p["check"] = {"max_abs_err": max(errs, default=None), "max_norm_drift": max(drifts, default=None)}

    if traced:
        metrics = {}
        for name, (unit, _) in layertrace.LAYER_METRICS.items():
            values = [p["layers"][name] for p in passes if p["layers"].get(name) is not None]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        setups = [p["result"]["setup_s"] for p in probes if p["result"]]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups) if setups else None,
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in metrics.items() if value is not None}

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "run_order": order,
        "failed_frac": failed / attempted,
        "problems": problems,
        "environment": environment(bench.root, probes + passes),
        "setup_probes": [_summary(p) for p in probes],
        "passes": [_summary(p) for p in passes],
    }
    return result, record


def pass_s(passes: list[dict]) -> float:
    """The expected wall time of the next pass."""
    return statistics.median(p["wall_s"] for p in passes)


def _summary(child: dict) -> dict:
    keep = ("exit_code", "timed_out", "wall_s", "cpu_s", "peak_rss_mb",
            "load_before", "load_after", "check", "runs", "missing_layers", "layers")
    out = {k: child[k] for k in keep if k in child}
    if child["result"] and "setup_s" in child["result"]:
        out["setup_s"] = child["result"]["setup_s"]
    return out


def environment(root: str, children: list[dict]) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    env = {"git_commit": commit, "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(), "cpu_model": cpu_model}
    seen = next((c["result"]["environment"] for c in children if c["result"]), None)
    if seen is not None:
        env.update(seen)
    return env


def check_root(root: str) -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not os.path.isfile(os.path.join(root, "src", "rotorpair", "__init__.py")):
        return f"no rotorpair sources under {os.path.join(root, 'src')}"
    missing = [label for label in workloads.CONFIGS
               if not os.path.isfile(os.path.join(check.REFS_DIR, f"{label}.npz"))]
    if missing:
        return f"references missing for {missing}"
    return None


def self_test(root: str) -> int:
    """Smoke-run every workload traced and untraced; check the metric names,
    units and directions against BENCHMARK.json, the gate against a
    perturbed reference and against NaN cells, and the report of a missing
    hook."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    errors = []
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    declared_layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    if declared_e2e != END_TO_END:
        errors.append(f"end_to_end in BENCHMARK.json {declared_e2e} != {END_TO_END}")
    for name, spec in declared_layers.items():
        if layertrace.LAYER_METRICS.get(name) != spec:
            errors.append(f"per_layer {name} {spec} != {layertrace.LAYER_METRICS.get(name)}")
    benchmarked = [w["name"] for w in declared["workloads"]]

    with tempfile.TemporaryDirectory(prefix="selftest-", dir=_work_root(root)) as work:
        for workload in workloads.WORKLOADS:
            for traced in (False, True):
                result, record = measure(Bench(root, work), workload, 1, 0.0, traced, smoke=True)
                wanted = declared_layers if traced else declared_e2e
                absent = sorted(set(wanted) - set(result["metrics"]))
                wrong_unit = sorted(n for n, m in result["metrics"].items()
                                    if n in wanted and m["unit"] != wanted[n][0])
                ok = result["correct"] and not absent and not wrong_unit
                print(f"self-test {workload} trace={int(traced)}: "
                      f"{'ok' if ok else 'FAIL'} attempted={result['attempted']} "
                      f"failed={result['failed']} absent={absent} wrong_unit={wrong_unit}",
                      file=sys.stderr)
                if not ok:
                    errors.append(f"{workload} trace={int(traced)}: {record['problems']} "
                                  f"absent={absent} wrong_unit={wrong_unit}")

        # a reference off by 1e-6 in one cell of the smoke prefix must fail the gated runs
        perturbed = os.path.join(work, "perturbed_refs")
        os.makedirs(perturbed)
        for label in workloads.CONFIGS:
            header, data = check.load_ref(label)
            data = data.copy()
            data[2, header.index("cos1")] += 1e-6
            np.savez_compressed(os.path.join(perturbed, f"{label}.npz"), header=np.array(header), data=data)
        for workload in benchmarked:
            bench = Bench(root, work, refs_dir=perturbed)
            result, _ = measure(bench, workload, 1, 0.0, False, smoke=True)
            caught = result["failed"] > 0 and not result["correct"]
            print(f"self-test perturbed reference, {workload}: "
                  f"{'caught' if caught else 'MISSED'} ({result['failed']}/{result['attempted']} failed)",
                  file=sys.stderr)
            if not caught:
                errors.append(f"perturbed reference not caught on {workload}")

        # a NaN in any column fails the gate, which passes the same CSV without it
        header, data = check.load_ref("fig1a")
        csv_path = os.path.join(work, "nan.csv")
        wrong = []
        for column in [None] + header:
            cells = data.copy()
            if column is not None:
                cells[3, header.index(column)] = np.nan
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(",".join(header) + "\n")
                fh.writelines(",".join(format(x, ".17g") for x in row) + "\n" for row in cells)
            gate = check.check_csv(csv_path, (header, data), workloads.d_single("fig1a"))
            if gate["ok"] != (column is None):
                wrong.append(f"ok={gate['ok']} with a NaN in {column}")
        print(f"self-test NaN cells: {'ok' if not wrong else 'FAIL'}", file=sys.stderr)
        errors.extend(f"the gate gave {w}" for w in wrong)

        # a hook whose name is gone is reported missing, and its metrics left out
        sys.path.insert(0, os.path.join(root, "src"))
        gone = (("propagation.window", "rotorpair.propagation", "no_such_integrator", None),)
        missing = layertrace.Tracer().install(gone)
        metrics = layertrace.layer_metrics([], 1.0, 1e-6, set(missing))
        reported = missing == ["propagation.window"] and not any(
            name.startswith("propagation.w") for name in metrics)
        print(f"self-test missing hook: {'ok' if reported else 'FAIL'}", file=sys.stderr)
        if not reported:
            errors.append(f"a missing hook was not reported: missing={missing}")

    for error in errors:
        print(f"self-test: {error}", file=sys.stderr)
    print("self-test: " + ("FAILED" if errors else "passed"), file=sys.stderr)
    return 1 if errors else 0


def _work_root(root: str) -> str:
    path = os.path.join(root, WORK_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-run every workload and check metrics and gate")
    args = parser.parse_args(argv)
    root = os.getcwd()
    reason = check_root(root)
    if reason is not None:
        print(f"perfbench: cannot run here: {reason}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.self_test:
            return self_test(root)
        with tempfile.TemporaryDirectory(prefix="run-", dir=_work_root(root)) as work:
            result, record = measure(Bench(root, work), args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    finally:
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:  # absent, or another run is using it
            pass
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
