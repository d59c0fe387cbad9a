#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness and the repository's libraries
are compiled from source into .bench_build/perfbench (Release) on first use;
later runs only check that the build is current. The harness prints what
its workload measured; this script holds that to BENCHMARK.json: it orders
the metrics as listed there, rejects a metric it does not list or with
another unit, and, in a traced run, reports a per-layer metric the
workload's path never reaches as 0 and names it under `not_on_path` in the
context line. The last line of standard output is the result object;
everything the build prints goes to standard error. The exit code is the
harness's, or 1 when the build fails or a metric breaks the contract.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def conform(context, result, traced):
    """Order, check and complete the result's metrics against the contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)["per_layer" if traced else "end_to_end"]
    got = result["metrics"]
    unknown = set(got) - {m["name"] for m in contract}
    if unknown:
        raise ValueError("metrics outside BENCHMARK.json: %s" % sorted(unknown))
    metrics, off_path = {}, []
    for m in contract:
        name, unit = m["name"], m["unit"]
        if name not in got:
            if not traced:
                raise ValueError("metric not produced: " + name)
            off_path.append(name)
            got[name] = {"value": 0, "unit": unit}
        if got[name]["unit"] != unit:
            raise ValueError("unit of %s is not %s" % (name, unit))
        metrics[name] = got[name]
    result["metrics"] = metrics
    if traced:
        context["perfbench"]["not_on_path"] = off_path


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("{"):
        sys.stdout.write(out.stdout)
        return out.returncode or 1
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    try:
        conform(context, result, context["perfbench"]["trace"] == 1)
    except ValueError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    for line in lines[:-2]:
        print(line)
    print(json.dumps(context))
    print(json.dumps(result))
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
