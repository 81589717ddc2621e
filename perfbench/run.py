#!/usr/bin/env python3
"""udfield benchmark: drives the real CLI, one invocation at a time.

    python3 perfbench/run.py --workload gauss-window --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With --trace 0 every invocation is a
child process `python -m udfield ...` (a closed loop with one client) and
the end-to-end metrics come from wall clock and os.wait4.  With --trace 1
the same argv runs in-process through cli.main, alternately plain and
with the layer trace installed, and the per-layer metrics come from the
traced calls.  Every invocation passes the correctness gate or counts as
failed.  `--workload all` runs every workload in turn.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics listed in BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import workloads
from layertrace import LayerTrace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
# A timed loop runs until --seconds have passed and at least this many
# invocations have completed: deg4-closure takes ~12 s per invocation.
MIN_SAMPLES = 3
ORACLE_EPS = 1e-9
GENERATE_OUTPUTS = ("report.json", "pointset.csv", "pointset.json", "scatter.svg")
# One thread per numeric pool, so one child keeps to one of the two cores.
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
# The setup_s child: interpreter start, import, field build, CM detection.
SETUP_CODE = ("import sys, udfield\n"
              "from udfield.cli import build_field\n"
              "from udfield.numberfield import detect_cm\n"
              "sys.exit(detect_cm(build_field(sys.argv[1])) is None)\n")


class ProgramError(RuntimeError):
    """A step the measurement depends on (input generation, set-up) failed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Sample(NamedTuple):
    wall: float      # s, spawn to exit
    cpu: float       # s, user + sys
    rss_mb: float    # peak resident set
    rc: int
    stdout: str


def spawn(args: List[str], cwd: str) -> Sample:
    """Run one child to exit.  Resource use comes from os.wait4 for this
    child alone; RUSAGE_CHILDREN would report the maximum over all
    children."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd,
                                env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, stdout)


def call_in_process(argv: Tuple[str, ...], cwd: str) -> Tuple[float, int, str]:
    """cli.main(argv) in this process: (wall s, exit code, stdout)."""
    from udfield import cli

    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(list(argv))
            except Exception:
                traceback.print_exc()
                rc = 1
            wall = perf_counter() - t0
    finally:
        os.chdir(home)
    if rc != 0:
        sys.stderr.write(err.getvalue()[-2000:])
    return wall, rc, out.getvalue()


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def float_pairs(csv_path: str) -> int:
    """The oracle: the float hashed count on the CSV's re/im columns."""
    from udfield import counting, serialize

    pts = serialize.read_points_csv(csv_path)
    census = counting.count_float(counting.PlanarFloatSet(points=pts, eps=ORACLE_EPS),
                                  method="hashed")
    return census.unit_pairs


class Gate:
    """Correctness checks on every invocation of one seed.  The first
    invocation fixes the reference output; every later one must match it
    byte for byte."""

    def __init__(self, wl: workloads.Workload, workdir: str):
        self.wl = wl
        self.workdir = workdir
        self.reference: Optional[dict] = None
        self.attempted = 0
        self.failed = 0

    def check(self, rc: int, stdout: str) -> None:
        self.attempted += 1
        problem = self._problem(rc, stdout)
        if problem is not None:
            self.failed += 1
            sys.stderr.write(f"check failed: {self.wl.name} invocation "
                             f"{self.attempted}: {problem}\n")

    def _problem(self, rc: int, stdout: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        try:
            result = json.loads(stdout)
        except ValueError:
            result = None
        if not isinstance(result, dict):
            return "stdout is not one JSON object"
        if self.wl.input_argv is None:
            fingerprint, problem = self._generate(result)
        else:
            fingerprint, problem = self._count(result)
        if problem is not None:
            return problem
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            return "output differs from the first invocation of this seed"
        return None

    def _generate(self, construction: dict):
        checks = construction.get("checks") or {}
        failing = sorted(k for k, ok in checks.items() if ok is not True)
        if not checks or failing:
            return None, f"construction checks failed: {failing or 'none reported'}"
        out = os.path.join(self.workdir, workloads.OUT_DIR)
        missing = [f for f in GENERATE_OUTPUTS if not os.path.isfile(os.path.join(out, f))]
        if missing:
            return None, f"missing outputs {missing}"
        pairs = construction.get("measured_unit_pairs")
        oracle = float_pairs(os.path.join(out, "pointset.csv"))
        if pairs != oracle:
            return None, f"measured_unit_pairs {pairs} != float oracle {oracle}"
        got = (construction.get("measured_points"), pairs)
        if self.wl.expected is not None and got != self.wl.expected:
            return None, f"(points, pairs) = {got}, expected {self.wl.expected}"
        return {f: sha256(os.path.join(out, f)) for f in GENERATE_OUTPUTS}, None

    def _count(self, census: dict):
        inputs = os.path.join(self.workdir, workloads.INPUT_DIR)
        with open(os.path.join(inputs, "pointset.json")) as fh:
            sidecar = json.load(fh)
        oracle = float_pairs(os.path.join(inputs, "pointset.csv"))
        want = (sidecar.get("n_points"), sidecar.get("unit_pairs_exact"),
                sidecar.get("unit_pairs_exact"))
        got = (census.get("n_points"), census.get("unit_pairs"), oracle)
        if census.get("method") != "exact" or got != want:
            return None, (f"n_points {got[0]}, unit_pairs {got[1]}, float oracle "
                          f"{got[2]}; sidecar: n_points {want[0]}, "
                          f"unit_pairs_exact {want[1]}")
        # runtime_ms is the census's one informational, non-deterministic field
        return {k: v for k, v in census.items() if k != "runtime_ms"}, None


def prepare(wl: workloads.Workload) -> str:
    """Fresh working directory, with the workload's input files written
    (untimed) by the program itself."""
    workdir = os.path.join(WORK, wl.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if wl.input_argv is not None:
        rc = spawn(["-m", "udfield", *wl.input_argv], workdir).rc
        if rc != 0:
            raise ProgramError(f"input generation exited {rc}: {' '.join(wl.input_argv)}")
    return workdir


def clear_outputs(workdir: str) -> None:
    shutil.rmtree(os.path.join(workdir, workloads.OUT_DIR), ignore_errors=True)


def tail(values: List[float]) -> Tuple[int, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it.  Below 20 samples that percentile would not exceed the
    median, so the maximum (p100) is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 100, xs[-1]
    rank = n - 10
    return 100 * rank // n, xs[rank - 1]


def measure(wl: workloads.Workload, seconds: float, gate: Gate,
            workdir: str) -> Tuple[dict, dict]:
    """End-to-end metrics from child processes, and notes on them."""
    setup = []
    for _ in range(SETUP_REPEATS):
        sample = spawn(["-c", SETUP_CODE, wl.field], workdir)
        if sample.rc != 0:
            raise ProgramError(f"set-up child for field {wl.field} exited {sample.rc}")
        setup.append(sample.wall)

    def invoke():
        clear_outputs(workdir)
        sample = spawn(["-m", "udfield", *wl.argv], workdir)
        gate.check(sample.rc, sample.stdout)
        return sample

    invoke()   # warm-up: .pyc and page cache; users do not pay these per run
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or perf_counter() < deadline:
        samples.append(invoke())
    walls = [s.wall for s in samples]
    pct, tail_value = tail(walls)
    return {
        "wall_s.p50": statistics.median(walls),
        "wall_s.tail": tail_value,
        "cpu_s.p50": statistics.median(s.cpu for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup),
    }, {"wall_s.tail": f"p{pct} of n={len(walls)}"}


def measure_traced(wl: workloads.Workload, seconds: float, gate: Gate,
                   workdir: str) -> Tuple[dict, dict]:
    """Per-layer metrics from in-process calls, each per traced call, and
    notes on them."""
    import numpy  # noqa: F401  imported lazily by udfield; keep it out of the first call

    def plain_call():
        clear_outputs(workdir)
        wall, rc, out = call_in_process(wl.argv, workdir)
        gate.check(rc, out)
        return wall

    plain_call()   # warm-up, as in measure()
    trace = LayerTrace()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(plain_call())
        clear_outputs(workdir)
        with trace.installed():
            wall, rc, out = call_in_process(wl.argv, workdir)
            traced.append(wall)
            gate.check(rc, out)   # the float oracle runs traced, as count_float
    n = len(traced)

    def total(span):
        return trace.total[span] / n

    def self_s(span):
        return trace.self_time[span] / n

    def per_call(x):
        return x // n if x % n == 0 else x / n

    def calls(span):
        return per_call(trace.calls[span])

    def count(key):
        return per_call(trace.counters[key])

    below_cli = sum(v for k, v in trace.self_time.items()
                    if k not in ("cli", "counting.count_float"))
    return {
        "enumeration.polydisc_s": total("enumeration.polydisc"),
        "enumeration.polydisc.calls": calls("enumeration.polydisc"),
        "enumeration.polydisc.points_returned": count("enumeration.polydisc.points_returned"),
        "ideals.is_principal_s": total("ideals.is_principal"),
        "ideals.is_principal.calls": calls("ideals.is_principal"),
        "ideals.is_principal.found": count("ideals.is_principal.found"),
        "ideals.is_principal.not_found": count("ideals.is_principal.not_found"),
        "ideals.is_principal.inconclusive": count("ideals.is_principal.inconclusive"),
        "ideals.split_prime_s": total("ideals.split_prime"),
        "construct.pigeonhole_self_s": self_s("construct.pigeonhole"),
        "construct.units_emitted": count("construct.units_emitted"),
        "construct.enumerate_window_s": total("construct.enumerate_window"),
        "construct.build_pointset_self_s": self_s("construct.build_pointset"),
        "numberfield.embed_s": total("numberfield.embed"),
        "numberfield.embed.calls": calls("numberfield.embed"),
        "counting.unit_pair_indices_self_s": self_s("counting.unit_pair_indices"),
        "counting.unit_pair_indices.calls": calls("counting.unit_pair_indices"),
        "counting.unit_pair_indices.pairs": count("counting.unit_pair_indices.pairs"),
        "counting.count_float_s": total("counting.count_float"),
        "serialize.write_pointset_csv_s": total("serialize.write_pointset_csv"),
        "serialize.write_svg_s": total("serialize.write_svg"),
        "serialize.dump_json_s": total("serialize.dump_json"),
        "serialize.bytes_written": count("serialize.bytes_written"),
        "numberfield.build_field_s": total("numberfield.build_field"),
        "numberfield.detect_cm_s": total("numberfield.detect_cm"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.layer_coverage": below_cli / sum(traced),
        "src.lines": src_lines(),
    }, {"trace.overhead_s": f"{n} traced and {len(plain)} plain calls"}


def src_lines() -> int:
    pkg = os.path.join(SRC, "udfield")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def environment() -> str:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True).stdout.strip() or commit
        except OSError:
            pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, commit {commit}")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: List[dict]) -> Tuple[Gate, Dict[str, dict]]:
    wl = workloads.make(name, seed)
    workdir = prepare(wl)
    gate = Gate(wl, workdir)
    raw, notes = (measure_traced if traced else measure)(wl, seconds, gate, workdir)
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in spec}
    print(f"{name} seed={seed}: udfield {' '.join(wl.argv)}")
    for key, metric in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}{note}")
    if not traced:
        ratio = gate.failed / gate.attempted
        print(f"  {'fail_ratio':40s} {ratio:.6g} 1  ({gate.failed} of {gate.attempted})")
    return gate, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "udfield", "__init__.py")):
        sys.stderr.write(f"error: no udfield sources under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"env: {environment()}")
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    try:
        for name in names:
            gate, wl_metrics = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), spec)
            attempted += gate.attempted
            failed += gate.failed
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    except ProgramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
