"""Smoke test of the benchmark at tiny size.

Runs the command from BENCHMARK.json on every workload, untraced and
traced, with `--tiny --seconds 1`, and checks that every metric named in
BENCHMARK.json is emitted with its unit, that every name matches
[A-Za-z0-9_.-]+, and that every correctness gate passed.

Run from the repository root:  python3 hostbench/smoke_test.py
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--tiny"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} trace {trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        assert NAME.fullmatch(w["name"]), w["name"]
    problems = []
    for w in bench["workloads"]:
        for trace, metrics in declared.items():
            result = run(bench["command"], w["name"], trace)
            where = f"{w['name']} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: gates {result['failed']} of {result['attempted']} failed")
            emitted = result["metrics"]
            for m in metrics:
                if not NAME.fullmatch(m["name"]):
                    problems.append(f"{where}: bad name {m['name']!r}")
                got = emitted.get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} not emitted")
                elif got.get("unit") != m["unit"] or not got.get("unit"):
                    problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, want {m['unit']!r}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} value {got.get('value')!r}")
                elif trace == 0 and got["value"] == 0:
                    problems.append(f"{where}: end-to-end {m['name']} is 0")
            extra = set(emitted) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"ok {where}: {len(emitted)} metrics", flush=True)
    if problems:
        raise SystemExit("\n".join(problems))
    print("smoke test passed")


if __name__ == "__main__":
    main()
