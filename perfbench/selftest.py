"""Self-test of the benchmark, in its tiny-length mode.

    python3 perfbench/selftest.py

For every workload it runs `run.py --tiny` with `--trace 0` and `--trace 1`
in fresh processes and checks that the last line carries exactly the metrics
BENCHMARK.json names, with their units, and a correct result.  It then solves
each workload once more in this process, perturbs the final state on purpose
and checks that the correctness gate rejects it.  Takes about two minutes,
most of it the nozzle's set-up.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_output(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace={trace}: incorrect result\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], (
        f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (m["name"], got)
        if not trace:
            assert value > 0, f"{workload}: end-to-end metric {m['name']} is {value}"
    print(f"ok   {workload:<13} trace={trace}: {len(wanted)} metrics, "
          f"{result['attempted']} solves", flush=True)


def check_gate_rejects_perturbed(workload: str) -> None:
    from workloads import WORKLOADS

    w = WORKLOADS[workload](1, True)
    w.prepare()
    solve = w.solve()
    assert solve.ok, f"{workload}: unperturbed tiny solve failed: {solve.detail}"
    ok, _, detail = w.gate(w.perturb(solve.outcome))
    assert not ok, f"{workload}: gate accepted a perturbed state ({detail})"
    print(f"ok   {workload:<13} perturbed state rejected: {detail}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import run
    run.configure_process()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_output(spec, w["name"], trace)
        check_gate_rejects_perturbed(w["name"])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
