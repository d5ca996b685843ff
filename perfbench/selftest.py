"""Test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all three by default):

* a minimal run (``--seconds 1``) must exit 0, report ``correct`` and
  emit every end-to-end metric of ``BENCHMARK.json`` with its unit, a
  positive value and at least one attempted op;
* two traced runs with one seed must emit every per-layer metric and
  agree on every ``.calls`` count.

Then a copy holding only ``BENCHMARK.json`` and the benchmark's own
files must exit non-zero without printing a result.  A cli-cold traced
run takes two cold sessions, so the full test takes several minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=common.ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True, text=True,
                          timeout=900)


def result(p, what):
    assert p.returncode == 0, f"{what}: exit {p.returncode}\n{p.stderr}"
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1, what
    assert out["correct"] is True, f"{what}: an op's outputs differ"
    return out


def check_metrics(out, specs, what, positive):
    names = {m["name"]: m["unit"] for m in specs}
    got = out["metrics"]
    assert set(got) == set(names), \
        f"{what}: missing {set(names) - set(got)}, extra {set(got) - set(names)}"
    for name, unit in names.items():
        assert got[name]["unit"] == unit, f"{what}: unit of {name}"
        v = got[name]["value"]
        assert isinstance(v, (int, float)), f"{what}: {name} not a number"
        assert not positive or v > 0, f"{what}: {name} = {v}"


def test_workload(workload):
    out = result(bench(workload, 11, 0), f"{workload} minimal")
    check_metrics(out, SPEC["end_to_end"], f"{workload} minimal", True)
    traced = []
    for _ in range(2):
        t = result(bench(workload, 12, 1), f"{workload} traced")
        check_metrics(t, SPEC["per_layer"], f"{workload} traced", False)
        traced.append({k: v["value"] for k, v in t["metrics"].items()
                       if k.endswith(".calls")})
    diff = {k for k in traced[0] if traced[0][k] != traced[1][k]}
    assert not diff, f"{workload}: call counts differ: {sorted(diff)}"
    print(f"ok {workload}: {len(out['metrics'])} end-to-end, "
          f"{len(traced[0])} call counts repeat, "
          f"{out['failed']}/{out['attempted']} ops failed")


def test_bare_copy():
    common.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.WORK_DIR) as tmp:
        shutil.copy(common.ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(common.ROOT / path, f"{tmp}/{path}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        p = bench("calculus", 1, 0, cwd=tmp)
        assert p.returncode != 0, "bare copy exited 0"
        assert '"metrics"' not in p.stdout, "bare copy printed a result"
    if not any(common.WORK_DIR.iterdir()):
        common.WORK_DIR.rmdir()
    print("ok bare copy: exit", p.returncode)


def main(argv):
    for workload in argv or ("spectral", "calculus", "cli-cold"):
        test_workload(workload)
    test_bare_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
