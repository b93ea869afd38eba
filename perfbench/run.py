"""The repository benchmark: inspected paper pipelines and a served write mix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another

Each workload runs in a process of its own (``workloads.py``) with every
``REPRO_SQL_*`` variable removed, so the engine profiles' defaults apply,
and with a fixed ``PYTHONHASHSEED`` so string hashing, and with it the
order of the engine's hash tables, is the same in every run.  Inputs are
generated from ``--seed`` under ``.perfbench_runs/`` in the checkout and
removed when the run ends; traced runs keep their spans in
``.perfbench_runs/traces/``.

With ``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics).
Without it, every workload runs and all figures are printed by name with
their units.  See ``perfbench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("healthcare-inspect", "adult-remote", "oltp-mix")
#: a workload process is stopped after this long (the contract allows 180 s)
TIMEOUT_S = 170


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a workload's process group (its servers
    included) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process; returns its parsed result
    (with the ``report`` extras), or raises when it produced none."""
    os.makedirs(os.path.join(RUNS_DIR, "traces"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_SQL_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--tmp", tmp,
        "--trace-dir", os.path.join(RUNS_DIR, "traces"),
    ]
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise RuntimeError(f"{name} did not finish within {TIMEOUT_S} s")
    finally:
        _stop_group(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _describe(name: str, result: dict, units: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.4f}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:32s} {value:14.6g} {units.get(metric, '')}")
    for key, value in result["report"].items():
        if isinstance(value, dict) and set(value) == {"value", "samples"}:
            print(f"  {key:32s} {value['value']:14.6g} ms (n={value['samples']})")
        elif isinstance(value, dict):
            print(f"  {key}:")
            for layer, seconds in sorted(value.items(), key=lambda kv: -kv[1]):
                print(f"    {layer:30s} {seconds:14.6g} s")
        else:
            print(f"  {key:32s} {value}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    if args.workload is not None:
        result = run_workload(args.workload, args.seed, seconds, args.trace)
        _describe(args.workload, result, units)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }))
        return 0

    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args.seed, seconds, args.trace)
        _describe(name, results[name], units)
    print(json.dumps({
        name: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
        for name, r in results.items()
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
