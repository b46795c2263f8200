"""End-to-end and per-layer benchmark of the `toric` command line.

Usage, from the root of the repository:

    python3 bench/run.py --workload exact_ladder --seed 1 --seconds 30 \
        --trace 0
    python3 bench/run.py --describe      # every workload and metric, by name
    python3 bench/run.py --self-check    # trace counts against known values

With `--trace 0` every case of the workload runs as its own `toric` process,
one at a time: a fresh interpreter with PYTHONPATH=src that runs the same
entry point as the installed console script.  Full passes over the cases
repeat while another one fits in `--seconds`.  Each case has a time limit;
a case over it has its process group killed and counts as a timeout, with
the wall time measured up to the kill.  Every output is checked by an
independent oracle (bench/oracles.py).

With `--trace 1` each case runs twice inside this process, once plainly and
once with every public function of the toriccut modules wrapped
(bench/layertrace.py); the difference of the two totals is the tracing
overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metric names, units and
bounds come from BENCHMARK.json at the repository root.
"""

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

import inputs  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import layertrace  # noqa: E402
import oracles  # noqa: E402

# What the console script `toric` runs.
ENTRY = "from toriccut.cli import entry; entry()"
# Per-case limits in seconds.  random_exact's limit is the verdict of that
# workload: a case that needs longer counts as a timeout.  The others only
# guard against a hang.
CASE_LIMIT_S = {"exact_ladder": 60.0, "random_exact": 1.5,
                "float_field": 60.0}
# setup_s samples per pass, spread between the commands so that they meet
# the same machine state as the commands do
SETUP_SAMPLES = 12
TAIL_BEYOND = 10

# Call counts of the ROADMAP baseline, traced from outside; --self-check
# compares them with the current program.
SELF_CHECK = [
    (["cut", "cube5"], "polylattice.feasible", 1868),
    (["cut", "cube5"], "cutmodel.free_action_certificate", 1620),
    (["validate", "cube5"], "polylattice.feasible", 258),
    (["validate", "orthant5"], "polylattice.unimodularity_report", 2),
    (["classify", "orthant5"], "polylattice.unimodularity_report", 3),
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("TORIC_MAX_DIM", None)
    return env


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one `toric` process
# ---------------------------------------------------------------------------


class _Deadline:
    """Kills a process group at the deadline unless finish() came first."""

    def __init__(self, pgid, limit):
        self.pgid = pgid
        self.fired = False
        self._done = False
        self._lock = threading.Lock()
        self._timer = threading.Timer(limit, self._kill)
        self._timer.start()

    def _kill(self):
        with self._lock:
            if not self._done:
                os.killpg(self.pgid, signal.SIGKILL)
                self.fired = True

    def finish(self):
        with self._lock:
            self._done = True
        self._timer.cancel()
        self._timer.join()


def run_process(argv, limit, env, workdir):
    """Run one `toric` command; returns (code, stdout, stderr, wall_s,
    max_rss_mb, timed_out).  The child is reaped before this returns."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv],
                                stdout=out, stderr=err, env=env, cwd=workdir,
                                start_new_session=True)
    deadline = _Deadline(proc.pid, limit)
    try:
        # wait without reaping, so the pid cannot be reused before the
        # deadline is disarmed
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # interrupted: end the child
        raise
    finally:
        deadline.finish()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8") as handle:
        stderr = handle.read()
    return (proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0,
            deadline.fired)


def time_setup(env, workdir):
    """Wall time of a fresh interpreter that imports toriccut.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import toriccut.cli"], env=env,
                   cwd=workdir, check=True, timeout=120)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


class Tally:
    """Outcome counts of checked commands."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.timeouts = 0
        self.wrong = []  # (case name, reason)

    def record(self, case, code, out, err, timed_out):
        self.attempted += 1
        if timed_out:
            self.timeouts += 1
            return False
        reason = oracles.check(case, code, out)
        if reason is None:
            self.ok += 1
            return True
        last = err.strip().splitlines()[-1:] if err else []
        self.wrong.append((case.name, reason + (f" ({last[0]})" if last
                                                else "")))
        return False

    def result(self, metrics):
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.attempted - self.ok, "metrics": metrics}

    def report(self):
        print(f"# commands: {self.attempted} attempted, {self.ok} ok, "
              f"{self.timeouts} timed out, {len(self.wrong)} wrong")
        for name, reason in self.wrong[:20]:
            print(f"#   WRONG {name}: {reason}")


def tail_percentile(count):
    """Highest whole percentile with at least TAIL_BEYOND of `count`
    samples above it."""
    return max(1, math.floor(100.0 * (count - TAIL_BEYOND) / count))


# ---------------------------------------------------------------------------
# --trace 0: one process per command
# ---------------------------------------------------------------------------


def run_e2e(workload, seed, seconds, workdir):
    env = child_env()
    time_setup(env, workdir)  # compiles the bytecode caches
    cases = inputs.WORKLOADS[workload](seed, workdir)
    limit = CASE_LIMIT_S[workload]
    every = max(1, len(cases) // SETUP_SAMPLES)
    tally = Tally()
    setups, walls, pass_s, peak_rss = [], [], [], 0.0
    points, float_s = 0, 0.0
    started = time.perf_counter()
    while True:
        total = 0.0
        for index, case in enumerate(cases):
            if index % every == 0:
                setups.append(time_setup(env, workdir))
            code, out, err, wall, rss, timed_out = run_process(
                case.argv, limit, env, workdir)
            ok = tally.record(case, code, out, err, timed_out)
            walls.append(wall)
            total += wall
            peak_rss = max(peak_rss, rss)
            if case.points:
                float_s += wall
                points += case.points if ok else 0
        pass_s.append(total)
        elapsed = time.perf_counter() - started
        # another full pass, with its set-up samples and checks, must fit
        if elapsed * (len(pass_s) + 1) / len(pass_s) > seconds:
            break
    q = tail_percentile(len(cases))
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_p50_s": statistics.median(walls),
        "cmd_tail_s": statistics.quantiles(walls, n=100,
                                           method="inclusive")[q - 1],
        "workload_s": statistics.median(pass_s),
        "ok_frac": tally.ok / tally.attempted,
        "points_per_s": points / float_s,
        "peak_rss_mb": peak_rss,
    }
    tally.report()
    print(f"# {len(pass_s)} pass(es) of {len(cases)} commands; cmd_tail_s is "
          f"p{q} of {len(walls)} samples; case limit {limit} s")
    return tally, metrics


# ---------------------------------------------------------------------------
# --trace 1: in-process, plain then traced
# ---------------------------------------------------------------------------


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a case; BaseException so that no handler
    in the program can swallow it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def run_inprocess(cli, argv, limit):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    timed_out = False
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CaseTimeout:
        code, timed_out = None, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start, \
        timed_out


def _import_toriccut():
    sys.path.insert(0, SRC)
    import toriccut
    import toriccut.cli
    return toriccut


def layer_metric(name, tracer, extra):
    """Value of a per-layer metric: `<module>.<function>.<stat>`,
    `<module>.self_s`, or one of the run-level figures in `extra`.  A
    function the workload never calls reads 0."""
    if name in extra:
        return extra[name]
    func, stat = name.rsplit(".", 1)
    if func in layertrace.TRACED_MODULES:  # <module>.self_s
        return tracer.layer_self_s()[func]
    st = tracer.stats.get(func)
    if st is None or st.calls == 0:
        return 0
    if stat == "nonempty_ratio":
        return st.nonempty / st.calls
    if stat == "us_per_call":
        return st.total_s / st.calls * 1e6
    return getattr(st, stat)


def run_traced(workload, seed, workdir, names):
    """Each case runs twice in this process, plainly and traced, in
    alternating order so that warm-up falls on both sides equally."""
    package = _import_toriccut()
    cli = package.cli
    cases = inputs.WORKLOADS[workload](seed, workdir)
    limit = CASE_LIMIT_S[workload]
    tracer = layertrace.Tracer(package)
    watched = sorted({fn for _, fn, _ in SELF_CHECK})
    per_case = {}
    tally = Tally()
    plain = traced = 0.0
    for index, case in enumerate(cases):
        for with_trace in ((False, True) if index % 2 else (True, False)):
            if not with_trace:
                plain += run_inprocess(cli, case.argv, limit)[3]
                continue
            before = tracer.snapshot(watched)
            tracer.install()
            try:
                code, out, err, wall, timed_out = run_inprocess(
                    cli, case.argv, limit)
            finally:
                tracer.uninstall()
            traced += wall
            after = tracer.snapshot(watched)
            per_case[case.name] = {fn: after[fn] - before[fn]
                                   for fn in watched}
            tally.record(case, code, out, err, timed_out)
    numpy_s, toriccut_s = layertrace.import_times(sys.executable,
                                                  child_env(), workdir)
    extra = {"import.numpy_s": numpy_s, "import.toriccut_s": toriccut_s,
             "trace.plain_s": plain, "trace.traced_s": traced,
             "trace.overhead_s": traced - plain}
    metrics = {n: layer_metric(n, tracer, extra) for n in names}
    tally.report()
    for argv, fn, expected in SELF_CHECK:
        got = per_case.get(f"{argv[0]} {argv[1]}", {}).get(fn)
        if got is not None:
            print(f"# {argv[0]} {argv[1]}: {fn} calls {got} "
                  f"(baseline: {expected})")
    return tally, metrics


def self_check(workdir):
    """Trace the commands of SELF_CHECK and compare their call counts."""
    package = _import_toriccut()
    tracer = layertrace.Tracer(package)
    watched = sorted({fn for _, fn, _ in SELF_CHECK})
    counts = {}
    for cmd, name in sorted({tuple(argv) for argv, _, _ in SELF_CHECK}):
        family = name.rstrip("0123456789")
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(inputs.BUILDERS[family](int(name[len(family):])),
                      handle)
        before = tracer.snapshot(watched)
        tracer.install()
        try:
            run_inprocess(package.cli, [cmd, path], 600.0)
        finally:
            tracer.uninstall()
        after = tracer.snapshot(watched)
        counts[cmd, name] = {fn: after[fn] - before[fn] for fn in watched}
    failures = 0
    for (cmd, name), fn, expected in SELF_CHECK:
        got = counts[cmd, name][fn]
        failures += got != expected
        print(f"{'ok' if got == expected else 'MISMATCH':8} {cmd} {name}: "
              f"{fn} calls {got}, expected {expected}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def describe(spec):
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, "
              f"bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.describe:
        describe(spec)
        return 0
    if not os.path.isfile(os.path.join(SRC, "toriccut", "cli.py")):
        print(f"bench: no toriccut sources under {SRC}", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.self_check:
            return self_check(workdir)
        if args.trace:
            section = spec["per_layer"]
            tally, metrics = run_traced(args.workload, args.seed, workdir,
                                        [m["name"] for m in section])
        else:
            section = spec["end_to_end"]
            tally, metrics = run_e2e(args.workload, args.seed, args.seconds,
                                     workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run uses it
            os.rmdir(WORK_ROOT)
    units = {m["name"]: m["unit"] for m in section}
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"bench: no value for {sorted(missing)}")
    for name in units:
        print(f"{name:52} {metrics[name]:>16.6g} {units[name]}")
    result = tally.result({name: {"value": metrics[name], "unit": units[name]}
                           for name in units})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
