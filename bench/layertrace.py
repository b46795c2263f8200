"""Outside-in layer trace of toriccut, installed from the benchmark.

`Tracer.install()` replaces every public function of the traced modules by
a wrapper on the module object itself, so that calls between functions of
one module (face_witness -> feasible) go through the wrapper as well.
Each wrapper keeps a span on a stack; when the span closes, its duration
is added to the function's total time and, minus the time of the spans it
caused, to its self time.  Spans are folded into per-function sums in
memory and read out once, after the run.
"""

import inspect
import re
import statistics
import subprocess
import time
from collections import defaultdict

TRACED_MODULES = ("polylattice", "intlinalg", "kahlerpotential", "cutmodel",
                  "contactcone", "cli")


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "rows_in", "nonempty",
                 "iterations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.rows_in = 0
        self.nonempty = 0
        self.iterations = 0


def _note_feasible(stats, args, kwargs, result):
    stats.rows_in += len(args[0])


def _note_face_witness(stats, args, kwargs, result):
    stats.nonempty += result is not None


def _note_invert(stats, args, kwargs, result):
    stats.iterations += result.iterations


# Extra counters read from a call's arguments or result.
NOTES = {
    "polylattice.feasible": _note_feasible,
    "polylattice.face_witness": _note_face_witness,
    "kahlerpotential.invert_legendre": _note_invert,
}


class Tracer:
    """Wraps the public functions of the traced modules of a package."""

    def __init__(self, package):
        self.package = package
        self.stats = defaultdict(FunctionStats)
        self._stack = []  # child time accumulated by each open span
        self._originals = []

    def _wrap(self, name, func):
        stats = self.stats[name]
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if note is _note_feasible and not isinstance(args[0], list):
                args = (list(args[0]),) + args[1:]  # counted after the call
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if note is not None:
                note(stats, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        for modname in TRACED_MODULES:
            module = getattr(self.package, modname)
            for attr, func in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                self._originals.append((module, attr, func))
                setattr(module, attr, self._wrap(f"{modname}.{attr}", func))

    def uninstall(self):
        for module, attr, func in reversed(self._originals):
            setattr(module, attr, func)
        self._originals.clear()

    def snapshot(self, names):
        """Call counts of the named functions, for per-command deltas."""
        return {name: self.stats[name].calls for name in names}

    def layer_self_s(self):
        """Self time summed per traced module."""
        out = defaultdict(float)
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st.self_s
        return out


_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(python, env, cwd, repeats=3):
    """Cumulative import time of numpy and of toriccut.cli, in seconds, from
    `python -X importtime` (median over `repeats` fresh interpreters).  The
    toriccut figure excludes the numpy import it triggers."""
    numpy_s, toriccut_s = [], []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c",
                               "import toriccut.cli"],
                              env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=120, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(2) not in cumulative:
                cumulative[match.group(2)] = int(match.group(1)) * 1e-6
        np_s = cumulative.get("numpy", 0.0)
        numpy_s.append(np_s)
        toriccut_s.append(cumulative.get("toriccut.cli", 0.0)
                          + cumulative.get("toriccut", 0.0) - np_s)
    return statistics.median(numpy_s), statistics.median(toriccut_s)
