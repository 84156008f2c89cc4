#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ``cuspchain`` command line.

    python3 perfbench/run.py --workload cert-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --write-digests

Run from the root of a checkout.  One process, one thread, closed loop with
one client: every command goes through ``cuspchain.cli.main(argv)`` with
stdout captured, and the next command is issued when it returns.  Inputs are
JSON files generated from ``--seed`` by ``gen.py`` under
``.bench_build/perfbench/``; every output is checked by ``checks.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's public functions (``tracing.py``) and reports per-layer metrics.
``--workload all`` runs every workload, untraced and traced, each in its own
process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(gen.WORKLOADS)
# Set-up is timed in SETUP_BURSTS bursts of at least SETUP_BURST_S each,
# before the loop.  Bursts interleaved with the loop made the command times
# of cert-large spread about three times as much.
SETUP_BURSTS = 12
SETUP_BURST_S = 0.25
# Instances per cycle: a run stops at the first cycle boundary after
# --seconds, so every run sees the workload's full mix (on cert-small, one
# shell-3 interior-curve pair per cycle).
CYCLE = {
    "cert-small": len(gen.CERT_SMALL_PATTERN) * gen.SHELL3_EVERY,
    "cert-large": len(gen.cert_large_shapes()),
    "analyze-search": len(gen.ANALYZE_PATTERN),
    "lattice-queries": 2,
}
# Reference outputs whose digests are stored in digests.json: the first
# instances of each workload at seed 0 (the cheapest shapes of cert-large).
DIGEST_SEED = 0
DIGEST_COUNT = {"cert-small": 10, "cert-large": 2, "analyze-search": 6,
                "lattice-queries": 10}


def load_program():
    """Import cuspchain from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cuspchain" / "cli.py").is_file():
        sys.exit(f"perfbench: {src / 'cuspchain'} not found; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cuspchain.cli

    if Path(cuspchain.cli.__file__).resolve().parent != (src / "cuspchain").resolve():
        sys.exit(f"perfbench: imported cuspchain from {cuspchain.cli.__file__}")
    return cuspchain.cli.main


# -- running commands -----------------------------------------------------------


def run_cli(main, argv):
    """(exit code, stdout, seconds) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc(file=sys.__stderr__)
            code = -1
        dt = perf_counter() - t0
    return code, out.getvalue(), dt


def encode(instances):
    """(file name, JSON text) of every input; instance k's go to ``<k>.<name>.json``."""
    return [(f"{k}.{name}.json", json.dumps(doc))
            for k, inst in enumerate(instances) for name, doc in inst.files.items()]


def write_files(files, base: Path):
    base.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        (base / name).write_text(text, encoding="utf-8")


def setup(workload, seed):
    """The timed set-up: generate the seeded inputs and encode them."""
    instances = gen.WORKLOADS[workload](seed)
    return instances, encode(instances)


# The reference kernel: reduced echelon form of a fixed 8x10 rational matrix,
# three times, in the benchmark's own Fraction arithmetic (about 9 ms).  The
# speed of a shared virtual machine can drift by 40% within a minute (it did
# on the host of baseline.json), and that moves the kernel and the program
# alike, so the listed metrics divide times by the kernel time timed next to
# them.
REF_MATRIX = [[gen.Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(10)]
              for i in range(8)]
REF_EVERY_S = 0.2
# setup_s is stated in seconds at this reference-kernel time (about the
# kernel's time on the host of baseline.json).
REF_NOMINAL_S = 0.008


def ref_kernel_s():
    t0 = perf_counter()
    for _ in range(3):
        gen.rref(REF_MATRIX, 10)
    return perf_counter() - t0


def timed_setup(workload, seed, bursts):
    """Set up in ``bursts`` bursts of at least SETUP_BURST_S each.

    Returns (instances, files, wall, scaled): ``wall`` holds the seconds of
    every set-up, ``scaled`` the same in seconds at the reference speed (wall
    time times REF_NOMINAL_S over the reference-kernel time around its burst:
    the mean of the fastest of three timings just before and of three just
    after, so that one preempted timing does not move a whole burst)."""
    wall, scaled = [], []
    for _ in range(bursts):
        ref_before, times = min(ref_kernel_s() for _ in range(3)), []
        while not times or sum(times) < SETUP_BURST_S:
            t0 = perf_counter()
            instances, files = setup(workload, seed)
            times.append(perf_counter() - t0)
        ref = (ref_before + min(ref_kernel_s() for _ in range(3))) / 2
        wall += times
        scaled += [t * REF_NOMINAL_S / ref for t in times]
    return instances, files, wall, scaled


@contextlib.contextmanager
def prepared(workload, seed, bursts=SETUP_BURSTS):
    """Load the program, set up and write the inputs, and warm up.

    Yields (main, instances, input directory, (wall, scaled) set-up
    times); the input directory is removed afterwards."""
    main = load_program()
    instances, files, wall, scaled = timed_setup(workload, seed, bursts)
    base = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    write_files(files, base)
    try:
        run_instance(main, instances[0], base / "0")  # warm-up, not measured
        yield main, instances, base, (wall, scaled)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run_instance(main, inst, prefix: Path, between=lambda pending: None):
    """Run one instance's commands; returns (samples, failures, outputs).

    A sample is (command, seconds, stdout bytes); ``failures`` holds one list
    of failed checks per sample.  ``between(1)`` is called
    between the two commands of a certificate instance."""
    p = lambda name: f"{prefix}.{name}.json"
    if inst.kind == "cert":
        c1, out1, t1 = run_cli(main, ["chain", "--space", p("space"), "--i1", p("i1"),
                                      "--i2", p("i2")])
        between(1)
        Path(p("cert")).write_text(out1, encoding="utf-8")
        c2, out2, t2 = run_cli(main, ["verify", "--cert", p("cert")])
        fails = [checks.check_chain(inst.expect, c1, out1), checks.check_verify(c2, out2)]
        return [("chain", t1, len(out1)), ("verify", t2, len(out2))], fails, [out1, out2]
    if inst.kind == "analyze":
        argv = ["analyze", "--space", p("space"), "--max-height",
                str(inst.expect["max_height"])]
        check = checks.check_analyze
    elif inst.kind == "level":
        argv = ["level", "--space", p("space"), "--lattice", p("lattice"),
                "--lattice-prime", p("lattice_prime"), "--N", str(inst.expect["N"])]
        check = checks.check_level
    else:
        argv = ["demo", "order", "--lattice", p("lattice")]
        check = checks.check_order
    code, out, dt = run_cli(main, argv)
    return [(inst.kind, dt, len(out))], [check(inst.expect, code, out)], [out]


class Tally:
    """Samples and failures of a sequence of instances.

    Outputs are not kept: ``watch(samples, outputs)``, if given, sees each
    instance's outputs once.  Between commands, at least every REF_EVERY_S,
    the reference kernel is timed; each sample's ``ref`` is the mean of the
    two timings around it.
    """

    def __init__(self, watch=None):
        self.samples = []
        self.refs = []
        self.instances = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.watch = watch
        self._ref, self._ref_at = ref_kernel_s(), perf_counter()

    def add(self, samples, fails, outputs):
        self.instances += 1
        self.samples += samples
        self.attempted += len(samples)
        self.failed += sum(1 for f in fails if f)
        self.failures += [msg for f in fails for msg in f]
        if self.watch is not None:
            self.watch(samples, outputs)
        self.between()

    def between(self, pending=0):
        """Calibrate if due; ``pending`` samples are done but not yet added."""
        if perf_counter() - self._ref_at >= REF_EVERY_S:
            self.close(pending)

    def close(self, pending=0):
        """Time the kernel and assign reference times to the samples before it."""
        ref = ref_kernel_s()
        self.refs += [(self._ref + ref) / 2] * (len(self.samples) + pending - len(self.refs))
        self._ref, self._ref_at = ref, perf_counter()
        return self

    @property
    def command_s(self):
        return sum(s[1] for s in self.samples)

    @property
    def command_ref(self):
        """Command time in reference-kernel units."""
        return sum(s[1] / r for s, r in zip(self.samples, self.refs))


def run_loop(main, workload, instances, base, seconds, watch=None):
    """Closed loop over the instances until --seconds, ending on a cycle."""
    tally, k, t0 = Tally(watch), 0, perf_counter()
    cycle = CYCLE[workload]
    while True:
        i = k % len(instances)
        tally.add(*run_instance(main, instances[i], base / str(i), tally.between))
        k += 1
        if k % cycle == 0 and perf_counter() - t0 >= seconds:
            return tally.close()


def replay(main, instances, base, count, watch=None):
    """The first ``count`` instances of the loop, once each."""
    tally = Tally(watch)
    for k in range(count):
        i = k % len(instances)
        tally.add(*run_instance(main, instances[i], base / str(i), tally.between))
    return tally.close()


def reference_outputs(main, workload, base):
    """Run the digest reference set; returns (tally, list of stdout digests)."""
    instances = gen.WORKLOADS[workload](DIGEST_SEED)[: DIGEST_COUNT[workload]]
    write_files(encode(instances), base)
    digests = []

    def watch(samples, outputs):
        digests.extend(hashlib.sha256(out.encode()).hexdigest() for out in outputs)

    return replay(main, instances, base, len(instances), watch), digests


def outputs_changed(workload, digests):
    stored = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, [])
    if len(stored) != len(digests):
        return len(digests)
    return sum(a != b for a, b in zip(stored, digests))


# -- metrics ---------------------------------------------------------------------


# The metrics BENCHMARK.json lists (the end-to-end ones with a regression
# bound).  Every other metric is printed only: per-command percentiles differ
# between workloads, and a per-layer time is listed only when every workload
# exercises that layer (see README.md).
END_TO_END = ("setup_s", "ops_per_ref", "op_geomean_ref", "peak_rss_mib")
PER_LAYER = (
    "exact.matmul_s", "exact.det_s", "serialize.to_json_s", "serialize.from_json_s",
    "cli.self_s", "exact.matmul_calls", "exact.rref_calls", "exact.max_coeff_bits",
    "exact.quad_ops", "exact.quad_new", "exact.squarefree_calls", "isotropic.candidates",
    "isotropic.height_reached", "exact.shell_tuples_yielded", "exact.shell_cube_visited",
    "exact.shell_yield_ratio", "forms.pair_calls", "forms.canonical_subspace_calls",
    "chains.links.descent", "chains.links.product_split", "chains.links.boundary_plane",
    "chains.links.interior_curve", "chains.links.segre", "chains.descent_depth_max",
    "serialize.cert_bytes", "cli.outputs_changed", "trace.overhead_ratio",
)


class Report:
    """Metrics with unit and sample count, printed as one aligned line each."""

    def __init__(self):
        self.rows = []

    def add(self, name, value, unit, n):
        self.rows.append((name, value, unit, n))

    def print(self, title, listed):
        """Print the listed metrics, and the others wherever they have samples."""
        print(f"# {title}")
        for name, value, unit, n in self.rows:
            if n or name in listed:
                mark = "*" if name in listed else " "
                print(f" {mark}{name:<34} {value:>16.6f} {unit:<9} n={n}")

    def values(self, names):
        got = {name: {"value": value, "unit": unit} for name, value, unit, _ in self.rows}
        return {name: got[name] for name in names}


def latency_metrics(report, samples):
    """p50 per command, and p90 where at least ten samples lie beyond it."""
    by_cmd = {}
    for cmd, dt, _ in samples:
        by_cmd.setdefault(cmd, []).append(dt * 1000)
    for cmd, vals in by_cmd.items():
        report.add(f"{cmd}_p50_ms", statistics.median(vals), "ms", len(vals))
        if len(vals) >= 100:
            report.add(f"{cmd}_p90_ms", statistics.quantiles(vals, n=10)[8], "ms", len(vals))


def end_to_end(workload, seed, seconds):
    with prepared(workload, seed) as (main, instances, base, (setup_wall, setup_scaled)):
        tally = run_loop(main, workload, instances, base, seconds)

    samples = tally.samples
    n = len(samples)
    report = Report()
    report.add("setup_s", statistics.median(setup_scaled), "s", len(setup_scaled))
    report.add("setup_wall_s", statistics.median(setup_wall), "s", len(setup_wall))
    report.add("ops_per_ref", n / tally.command_ref, "1/ref", n)
    report.add("op_geomean_ref", statistics.geometric_mean(
        [s[1] / r for s, r in zip(samples, tally.refs)]), "ref", n)
    report.add("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "MiB", 1)
    report.add("ref_kernel_ms", statistics.median(tally.refs) * 1000, "ms", n)
    report.add("ops_per_s", n / tally.command_s, "1/s", n)
    latency_metrics(report, samples)
    certs = [s[2] for s in samples if s[0] == "chain"]
    if certs:
        report.add("cert_kib", statistics.mean(certs) / 1024, "KiB", len(certs))
    report.add("fail_ratio", tally.failed / tally.attempted, "ratio", tally.attempted)
    return report, tally.attempted, tally.failed, tally.failures


PER_OP_TIMES = (
    "exact.matmul", "exact.rref", "exact.det", "exact.inverse", "exact.solve",
    "exact.kernel", "exact.hnf", "exact.smith", "forms.pair", "isotropic.find",
    "forms.signature", "forms.complement", "forms.subquotient", "forms.intersection",
    "forms.canonical_subspace", "isotropic.j0", "isotropic.split_off",
    "isotropic.third_lines", "chains.build", "chains.verify", "serialize.to_json",
    "serialize.from_json", "cli.self", "levels.containment", "embeddings.order",
)
LINK_TYPES = {"boundary_descent": "descent", "product_split": "product_split",
              "orth_boundary_plane": "boundary_plane",
              "orth_interior_curve": "interior_curve", "orth_segre": "segre"}


class LinkCounter:
    """Link types, descent depth and size of every certificate ``chain`` prints."""

    def __init__(self):
        self.links = dict.fromkeys(LINK_TYPES.values(), 0)
        self.depth = 0
        self.cert_bytes = []

    def __call__(self, samples, outputs):
        for (cmd, _, nbytes), out in zip(samples, outputs):
            if cmd != "chain" or not out:
                continue
            try:
                acc = checks.count_links(json.loads(out))
            except ValueError:  # not a certificate; check_chain counts the failure
                continue
            self.cert_bytes.append(nbytes)
            self.depth = max(self.depth, acc.pop("depth"))
            for t, c in acc.items():
                self.links[LINK_TYPES[t]] += c


def per_layer(workload, seed, seconds):
    certs = LinkCounter()
    with prepared(workload, seed, bursts=1) as (main, instances, base, _):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_loop(main, workload, instances, base, seconds, certs)
        finally:
            tracer.uninstall()
        # the overhead ratio compares the first third of the traced cycles (at
        # least one) with an untraced replay of the same instances
        cycle = CYCLE[workload]
        m = max(1, traced.instances // cycle // 3) * cycle
        plain = replay(main, instances, base, m)
        n_prefix = len(plain.samples)
        traced_prefix_ref = sum(s[1] / r for s, r in zip(traced.samples[:n_prefix],
                                                         traced.refs[:n_prefix]))
        ref, digests = reference_outputs(main, workload, base / "ref")
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(str(WORK / f"spans-{workload}-s{seed}"))

    ops = len(traced.samples)
    self_s = tracer.self_times()
    spans = tracer.span_counts()
    counts = tracer.counts
    report = Report()
    for layer in PER_OP_TIMES:
        report.add(f"{layer}_s", self_s.get(layer, 0.0) / ops, "s/op", spans[layer])
    for name in ("exact.quad_ops", "exact.quad_new", "exact.squarefree_calls",
                 "isotropic.candidates", "exact.shell_tuples_yielded",
                 "exact.shell_cube_visited"):
        report.add(name, counts[name] / ops, "count/op", ops)
    for layer in ("exact.matmul", "exact.rref", "forms.pair", "forms.canonical_subspace"):
        report.add(f"{layer}_calls", spans[layer] / ops, "count/op", ops)
    visited = counts["exact.shell_cube_visited"]
    report.add("exact.shell_yield_ratio",
               counts["exact.shell_tuples_yielded"] / visited if visited else 0.0,
               "ratio", counts["exact.shell_calls"])
    report.add("isotropic.height_reached",
               tracer.search_height_sum / tracer.searches if tracer.searches else 0.0,
               "height", tracer.searches)
    report.add("exact.max_coeff_bits", tracer.max_coeff_bits, "bits", spans["exact.rref"])
    n_certs = len(certs.cert_bytes)
    for name, c in certs.links.items():
        report.add(f"chains.links.{name}", c / max(n_certs, 1), "count/op", n_certs)
    report.add("chains.descent_depth_max", certs.depth, "count", n_certs)
    report.add("serialize.cert_bytes", sum(certs.cert_bytes) / max(n_certs, 1), "B", n_certs)
    report.add("cli.outputs_changed", outputs_changed(workload, digests), "count",
               len(digests))
    report.add("trace.overhead_ratio", traced_prefix_ref / plain.command_ref, "ratio",
               n_prefix)
    for layer in sorted(set(self_s) - set(PER_OP_TIMES)):
        report.add(f"{layer}_s", self_s[layer] / ops, "s/op", spans[layer])

    tallies = (traced, plain, ref)
    fails = [msg for t in tallies for msg in t.failures]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if sum(self_s.values()) > traced.command_s:
        fails.append("layer self times exceed the traced wall time")
        failed += 1
    return report, attempted, failed, fails


# -- entry points --------------------------------------------------------------------


def single(args):
    fn, listed = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    report, attempted, failed, fails = fn(args.workload, args.seed, args.seconds)
    mode = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    report.print(f"{args.workload} seed={args.seed} {mode}; * = in BENCHMARK.json", listed)
    for f in fails[:20]:
        print(f"  FAIL {f}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": report.values(listed)}


def run_all(args):
    """Every workload, untraced then traced, each run in its own process."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"perfbench: {workload} --trace {trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                metrics[f"{workload}/{name}"] = m
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_digests():
    main = load_program()
    out = {}
    for workload in WORKLOADS:
        base = WORK / f"digests-p{os.getpid()}"
        tally, digests = reference_outputs(main, workload, base)
        shutil.rmtree(base)
        if tally.failed:
            sys.exit(f"perfbench: reference outputs of {workload} fail their checks: "
                     f"{tally.failures[:3]}")
        out[workload] = digests
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, out.values()))} digests to {DIGESTS}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store the reference output digests and exit")
    args = parser.parse_args(argv)
    if args.write_digests:
        write_digests()
        return
    if args.workload is None:
        parser.error("--workload is required")
    result = run_all(args) if args.workload == "all" else single(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
