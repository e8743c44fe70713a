"""swingid benchmark: one closed-loop client driving `swingid.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The benchmark imports swingid from
src/, sets its workload up (set-up is repeated in two child processes
and setup_s is the median of the three), then runs one op at a time
until S seconds have passed (untraced: never fewer than `min_ops`).
Each op's outputs are checked.  The accuracy figures come from the first
`min_ops` ops, and a traced run's exact counts from its first TRACE_OPS
traced ops, so both are bit-identical for a seed; timings use every op.

--trace 0 prints the end-to-end metrics.  The fixed probe in hostspeed.py
runs after each set-up and after every op, and set-up and op times are
reported normalised by the probes beside them, so that slow phases of a
shared host move them far less than a change to the program does.  The
op time is the mean over the run: with three to a dozen ops per run,
the mean of the normalised ops spread less across runs than their
median.  The raw times are printed in the report above the result line.
--trace 1 runs every op twice, untraced and traced (alternating which
goes first), prints the per-layer metrics per op and writes the spans to
perfbench/out/.  The program is single-threaded with no queues or
retries, so no layer records wait time.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 means the benchmark could not run at all.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import normalised, probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (MODEL, WORKLOADS, CheckFailed, derive_seeds,  # noqa: E402
                       run_cli)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CHILDREN = 2
# traced runs take their exact counts from this many op pairs
TRACE_OPS = 2
# a run stops starting ops after this, so it ends within 180 s
DEADLINE_S = 150.0

END_TO_END = {"setup_s": "s", "op_mean_norm_s": "s", "peak_rss_mb": "MB",
              "eps_cml": "ratio"}

# Functions some workload calls; each reports <name>.self_s and <name>.calls.
REPORTED = (
    "cli.main", "cli.build_parser", "cli.cmd_simulate", "cli.cmd_estimate",
    "cli.cmd_eigen", "cli.cmd_sweep", "cli.cmd_bound",
    "io_config.load_model", "io_config.save_trajectory",
    "io_config.load_trajectory", "io_config.save_matrix",
    "io_config.load_matrix", "io_config.save_records",
    "model.build_laplacian", "model.kron_reduce", "model.build_continuous",
    "model.build_discrete",
    "sim.spawn_seeds", "sim.simulate", "sim.subsample", "sim.steady_start",
    "sim.default_burn_in",
    "estimators.covariances", "estimators.estimate_uml",
    "estimators.estimate_cml", "estimators.estimate_lasso",
    "estimators.estimate_sparse_low_rank", "estimators.estimate_b",
    "estimators.threshold_structure", "estimators.l1_optimality_gap",
    "analysis.to_continuous", "analysis.relative_error", "analysis.spectrum",
    "analysis.spectral_distance", "analysis.theorem1_bound",
    "analysis.corollary2_bound", "analysis.default_bound_burn_in",
)

EXTRAS = {
    "import.swingid_s": "s",
    "io_config.trajectory_bytes_written": "bytes",
    "io_config.trajectory_bytes_read": "bytes",
    "sim.steps": "count",
    "sim.ns_per_step": "ns",
    "sim.burn_in_frac": "ratio",
    "estimators.lasso_iterations": "count",
    "estimators.slr_iterations": "count",
    "analysis.mc_kept_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.untraced_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in REPORTED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(EXTRAS)
    return units


# Exact counts, taken from each traced call's arguments and result.
def _simulate_steps(args, result, parent):
    steps = result.n_samples - 1
    return {"sim.steps": steps,
            "sim.burn_in_steps": steps if parent == "sim.steady_start" else 0}


COUNT_HOOKS = {
    "sim.simulate": _simulate_steps,
    "io_config.save_trajectory": lambda args, result, parent: {
        "io_config.trajectory_bytes_written": os.path.getsize(args["path"])},
    "io_config.load_trajectory": lambda args, result, parent: {
        "io_config.trajectory_bytes_read": os.path.getsize(args["path"])},
    "estimators.estimate_lasso": lambda args, result, parent: {
        "estimators.lasso_iterations": result.hyperparams["iterations"]},
    "estimators.estimate_sparse_low_rank": lambda args, result, parent: {
        "estimators.slr_iterations": result.hyperparams["iterations"]},
    "analysis.theorem1_bound": lambda args, result, parent: {
        "analysis.mc_trials": result.n_trials,
        "analysis.mc_kept": result.n_trials - result.n_discarded},
}


@dataclass
class Op:
    """One executed op: its index, wall time, checked values or error."""

    index: int
    traced: bool
    wall: float = 0.0
    norm: float = 0.0
    values: dict[str, list[float]] = field(default_factory=dict)
    error: str | None = None


def set_up(workload, model: Path, workdir: Path):
    """Import swingid and build the workload's inputs, timed from process start.

    Returns the package, the workload's info and a timing sample whose
    `setup_s` is normalised by the probe run right after set-up; that
    probe time is returned too, as the first op's leading probe.
    """
    start = perf_counter()
    import swingid
    import swingid.cli  # noqa: F401
    import_s = perf_counter() - start
    info = workload.setup(swingid, model, workdir)
    setup_raw_s = perf_counter() - T0
    after = probe()
    sample = {"setup_s": normalised(setup_raw_s, [after]),
              "setup_raw_s": setup_raw_s, "import_s": import_s}
    return swingid, info, sample, after


def child_setups(args) -> list[dict[str, float]]:
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"set-up child exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_op(sw, workload, seed: int, index: int, workdir: Path,
           tracer: Tracer | None) -> Op:
    op = Op(index, tracer is not None)
    opdir = workdir / f"op{index}{'t' if op.traced else 'u'}"
    opdir.mkdir()
    seeds = derive_seeds(seed, index, workload.n_seeds)
    argvs = workload.commands(opdir, seeds)
    stdouts = []
    if tracer:
        tracer.install()
        tracer.op = index
    try:
        start = perf_counter()
        for argv in argvs:
            code, out, err = run_cli(sw.cli, argv)
            stdouts.append(out)
            if code != 0:
                op.error = f"`{argv[0]}` exited {code}: {err.strip()[-2000:]}"
                break
        op.wall = perf_counter() - start
    except Exception:
        op.error = traceback.format_exc()
    finally:
        if tracer:
            tracer.op = None
            tracer.uninstall()
    if op.error is None:
        try:
            op.values = workload.check(opdir, seeds, stdouts)
        except (CheckFailed, KeyError, IndexError, ValueError, OSError) as exc:
            op.error = f"output check: {type(exc).__name__}: {exc}"
    shutil.rmtree(opdir)
    if op.error:
        print(f"op {index} failed: {op.error}", file=sys.stderr)
    return op


def run_ops(sw, workload, args, workdir: Path, tracer: Tracer | None,
            before: float) -> tuple[list[Op], float, list[float]]:
    """Closed loop, one op in flight, until --seconds have passed.

    Untraced runs make at least min_ops ops.  The peak RSS is read after
    the first op, as a one-command-per-process user would see it: over
    repeated in-process ops the allocator's high-water mark creeps up in
    steps at op counts that vary from seed to seed.
    Untraced runs probe the host after each op and normalise the op by
    the probes on either side of it (`before` is the one after set-up).
    Traced runs execute each op index twice, untraced and traced, swapping
    the order on odd indices so warm-cache effects cancel in the overhead,
    for at least TRACE_OPS indices.
    """
    ops: list[Op] = []
    probes = [before]
    floor = TRACE_OPS if tracer else workload.min_ops
    peak_rss_mb = 0.0
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if index >= floor:
            step = statistics.median(
                sum(o.wall for o in ops if o.index == i) for i in range(index))
            if elapsed + step > args.seconds or elapsed > DEADLINE_S:
                break
        tracers = [None] if tracer is None else \
            ([None, tracer] if index % 2 == 0 else [tracer, None])
        for t in tracers:
            ops.append(run_op(sw, workload, args.seed, index, workdir, t))
        if tracer is None:
            probes.append(probe())
            ops[-1].norm = normalised(ops[-1].wall, probes[-2:])
        index += 1
        if index == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ops, peak_rss_mb, probes


def prefix_values(ops: list[Op], workload) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for op in ops:
        if op.index < workload.min_ops and not op.traced:
            for key, vals in op.values.items():
                values.setdefault(key, []).extend(vals)
    return values


def end_to_end(ops, workload, setups, peak_rss_mb,
               probes) -> tuple[dict, dict]:
    ok = [o for o in ops if o.error is None] or ops
    values = prefix_values(ops, workload)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_mean_norm_s": statistics.fmean(o.norm for o in ok),
        "peak_rss_mb": peak_rss_mb,
        "eps_cml": statistics.median(values["eps_cml"]) if values else float("nan"),
    }
    report = {
        "n_ops": len(ops),
        "op_p50_s": statistics.median(o.wall for o in ok),
        "op_min_s": min(o.wall for o in ok),
        "wall_s": sum(o.wall for o in ops),
        "op_walls_s": [round(o.wall, 4) for o in ops],
        "op_norms_s": [round(o.norm, 4) for o in ops],
        "probe_p50_s": statistics.median(probes),
        "fail_frac": sum(o.error is not None for o in ops) / len(ops),
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_raw_samples_s": [s["setup_raw_s"] for s in setups],
        "import_swingid_samples_s": [s["import_s"] for s in setups],
    }
    for key, vals in values.items():
        if key != "eps_cml":
            report[key] = statistics.median(vals)
    return metrics, report


def per_layer(ops, tracer: Tracer, setups) -> tuple[dict, dict]:
    """Per-op layer figures: timings over every traced op, counts over TRACE_OPS."""
    traced = [o for o in ops if o.traced]
    untraced = {o.index: o.wall for o in ops if not o.traced}
    every = [o.index for o in traced]
    prefix = [i for i in every if i < TRACE_OPS]
    times = tracer.self_times(every)
    calls = tracer.self_times(prefix)

    def counted(key, indices):
        return sum(tracer.counts[i].get(key, 0.0) for i in indices)

    metrics, report = {}, {}
    for name in tracer.wrapped:
        target = metrics if name in REPORTED else report
        target[f"{name}.self_s"] = times[name][0] / len(every)
        target[f"{name}.calls"] = calls[name][1] / len(prefix)
    for name in REPORTED:
        # a function removed from the package reads as never called
        metrics.setdefault(f"{name}.self_s", 0.0)
        metrics.setdefault(f"{name}.calls", 0.0)
    for key in ("io_config.trajectory_bytes_written",
                "io_config.trajectory_bytes_read", "sim.steps",
                "estimators.lasso_iterations", "estimators.slr_iterations"):
        metrics[key] = counted(key, prefix) / len(prefix)
    steps_all = counted("sim.steps", every)
    metrics["sim.ns_per_step"] = (1e9 * times["sim.simulate"][0] / steps_all
                                  if steps_all else 0.0)
    steps = counted("sim.steps", prefix)
    metrics["sim.burn_in_frac"] = (counted("sim.burn_in_steps", prefix) / steps
                                   if steps else 0.0)
    trials = counted("analysis.mc_trials", prefix)
    metrics["analysis.mc_kept_frac"] = (counted("analysis.mc_kept", prefix) / trials
                                        if trials else 0.0)
    metrics["import.swingid_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["trace.overhead_frac"] = statistics.median(
        (o.wall - untraced[o.index]) / untraced[o.index] for o in traced)
    metrics["trace.untraced_s"] = statistics.mean(
        o.wall - tracer.root_seconds(o.index) for o in traced)
    report["traced_ops"] = len(traced)
    report["traced_op_p50_s"] = statistics.median(o.wall for o in traced)
    report["untraced_op_p50_s"] = statistics.median(untraced.values())
    report["binding_sites_patched"] = tracer.binding_sites
    report["spans"] = len(tracer.spans)
    return metrics, report


def environment(seed: int, info: dict) -> dict[str, object]:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }
    env.update(info)
    return env


def _blas_threads(numpy) -> object:
    """OpenBLAS's own thread count, read through its C API when it is loaded."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def print_table(title: str, rows: dict, units: dict) -> None:
    print(f"== {title}")
    for key, value in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {key:<46} {shown:>16} {units.get(key, '')}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    model = ROOT / MODEL
    if not (ROOT / "src" / "swingid" / "__init__.py").is_file() or not model.is_file():
        print(f"perfbench: src/swingid or {MODEL} not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, model, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, model: Path, workdir: Path) -> int:
    workload = WORKLOADS[args.workload]()
    try:
        sw, info, sample, after = set_up(workload, model, workdir)
        if args.setup_only:
            print(json.dumps(sample))
            return 0
        setups = [sample] + child_setups(args)
    except CheckFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer(sw)
        for name, hook in COUNT_HOOKS.items():
            tracer.on_return(name, hook)
    run_start = perf_counter()
    ops, peak_rss_mb, probes = run_ops(sw, workload, args, workdir, tracer,
                                       after)
    failed = sum(o.error is not None for o in ops)
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                environment(args.seed, info), {})
    if tracer:
        metrics, report = per_layer(ops, tracer, setups)
        units = per_layer_units()
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans, run_start)
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics, report = end_to_end(ops, workload, setups, peak_rss_mb,
                                     probes)
        units = dict(END_TO_END, n_ops="count", op_p50_s="s", op_min_s="s",
                     wall_s="s", op_walls_s="s", op_norms_s="s",
                     probe_p50_s="s", fail_frac="ratio", setup_samples_s="s",
                     setup_raw_samples_s="s",
                     import_swingid_samples_s="s", spectral_distance="1/s",
                     lasso_gap="1", slr_objective="1",
                     lasso_iterations="count", slr_iterations="count")
    print_table("metrics", metrics, units)
    print_table("report only", report, units)
    if not args.trace:
        print("  waiting: none recorded; one single-threaded client, "
              "no queues or retries")
    print(json.dumps({
        "correct": failed == 0 and len(ops) > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
