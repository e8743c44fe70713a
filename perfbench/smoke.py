"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks that the tracer patches every binding site and refuses bindings it
cannot cover, that every workload at its shortest length (--seconds 1)
prints every metric BENCHMARK.json names, with its unit, with no failed
op and with little op time outside the traced layers, and that the
benchmark refuses to run from a tree holding only itself.  Takes a few
minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import CoverageError, Tracer  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_tracer() -> None:
    import swingid
    from swingid import analysis, cli, estimators, sim

    originals = {
        "cli.estimate_cml": cli.estimate_cml, "cli.covariances": cli.covariances,
        "cli.kron_reduce": cli.kron_reduce, "analysis.simulate": analysis.simulate,
        "analysis.covariances": analysis.covariances,
        "analysis.steady_start": analysis.steady_start,
        "sim.simulate": sim.simulate, "swingid.simulate": swingid.simulate,
        "cli.main": cli.main,
    }
    registry = {"CML": estimators.estimate_cml}
    cli.registry_for_smoke = registry
    try:
        tracer = Tracer(swingid)
        tracer.install()
        current = {
            "cli.estimate_cml": cli.estimate_cml, "cli.covariances": cli.covariances,
            "cli.kron_reduce": cli.kron_reduce, "analysis.simulate": analysis.simulate,
            "analysis.covariances": analysis.covariances,
            "analysis.steady_start": analysis.steady_start,
            "sim.simulate": sim.simulate, "swingid.simulate": swingid.simulate,
            "cli.main": cli.main,
        }
        for site, fn in current.items():
            expect(getattr(fn, "__wrapped__", None) is originals[site],
                   f"{site} not patched")
        expect(registry["CML"].__wrapped__ is estimators.estimate_cml.__wrapped__,
               "module-level dict value not patched")
        tracer.op = 0
        sim.steady_start(cli._build_systems(
            str(ROOT / "models/fixture10.grid"), sim.DT_BASE)[2], 5, 1)
        tracer.uninstall()
        names = [span[1] for span in tracer.spans]
        expect(names[-2:] == ["sim.steady_start", "sim.simulate"]
               and tracer.spans[-1][4] == len(names) - 2,
               f"nested spans recorded as {names[-2:]}")
        expect(cli.estimate_cml is originals["cli.estimate_cml"]
               and analysis.simulate is originals["analysis.simulate"]
               and registry["CML"] is estimators.estimate_cml,
               "uninstall left wrappers behind")
    finally:
        del cli.registry_for_smoke

    # a layer moved to a module the tracer does not map must fail loudly
    moved = types.ModuleType("swingid.moved_layer")
    exec("def solve(x):\n    return x\n", moved.__dict__)
    sys.modules[moved.__name__] = moved
    cli.solve = moved.solve
    try:
        Tracer(swingid)
    except CoverageError:
        pass
    else:
        expect(False, "binding to an unmapped module did not raise")
    finally:
        del cli.solve
        del sys.modules[moved.__name__]

    cli.frozen_for_smoke = (estimators.estimate_cml,)
    try:
        Tracer(swingid)
    except CoverageError:
        pass
    else:
        expect(False, "traced function in a tuple did not raise")
    finally:
        del cli.frozen_for_smoke
    print("tracer: binding sites patched, restored, and unmappable ones refused")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workloads() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        op_s = None
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            expect(proc.returncode == 0,
                   f"{workload} trace={trace} exited {proc.returncode}: "
                   f"{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['attempted']} attempted, "
                   f"{result['failed']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics differ: "
                   f"{sorted(set(got) ^ set(wanted))}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            expect(all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values.values()),
                   f"{workload} trace={trace}: non-finite metric")
            if trace == 0:
                expect(all(v > 0 for v in values.values()),
                       f"{workload}: an end-to-end metric reads 0")
                op_s = values["op_mean_norm_s"]
            else:
                share = values["trace.untraced_s"] / op_s
                expect(share < 0.01,
                       f"{workload}: {share:.2%} of an op is outside every span")
            print(f"{workload} trace={trace}: {len(values)} metrics, "
                  f"{result['attempted']} ops, none failed")


def check_refuses_bare_tree() -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "csv_pipeline", 0)
        expect(proc.returncode != 0, "ran without the swingid sources")
        expect(not proc.stdout.strip(), "printed a result without the sources")
    finally:
        shutil.rmtree(bare)
    print("bare tree: refused with exit code", proc.returncode)


if __name__ == "__main__":
    check_tracer()
    check_refuses_bare_tree()
    check_workloads()
    print("smoke: all checks passed")
