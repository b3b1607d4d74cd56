"""Fault-injection self-test of the benchmark's output checks.

    python3 bench/selftest.py [--workload reset|verify|scan ...]

For each workload it runs one clean pass on the default seed, which must
have no failed op, then one pass with a single public function of the
program replaced by one that returns a wrong answer, which must raise
failed_frac above 0.  Exits 1 if either expectation fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys

import run
import spans
import workloads


def _drop_last_letter(fn):
    def wrong(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is None or not result.word:
            return result
        return dataclasses.replace(result, word=result.word[:-1],
                                   length=result.length - 1)
    return wrong


def _negate(fn):
    def wrong(*args, **kwargs):
        return not fn(*args, **kwargs)
    return wrong


def _no_relabeling(fn):
    def wrong(flat, n, k):
        return tuple(flat)
    return wrong


# workload -> (module, function, fault)
FAULTS = {
    "reset": ("sync", "shortest_reset_word", _drop_last_letter),
    "verify": ("sync", "is_irreducible", _negate),
    "scan": ("enumeration", "canonical_flat", _no_relabeling),
}


def failed_frac(cli, workload: str, ops, golden: dict) -> float:
    failures, _ = run.check_pass(workload, ops, run.Pass(cli, ops), golden)
    return len(failures) / len(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    if not (run.SRC / "syncword" / "cli.py").is_file():
        print(f"error: no syncword sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from syncword import cli

    ok = True
    report = {}
    for workload in args.workload or run.WORKLOADS:
        workdir = run.OUT / f"selftest-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            ops = workloads.build_ops(workload, run.DEFAULT_SEED, workdir)
            golden = workloads.load_golden(workload)
            clean = failed_frac(cli, workload, ops, golden)
            module_name, attr, fault = FAULTS[workload]
            original = getattr(spans.layer_modules()[module_name], attr)
            patcher = spans.Patcher()
            patcher.replace_function(original, fault(original))
            try:
                faulty = failed_frac(cli, workload, ops, golden)
            finally:
                patcher.undo()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report[workload] = {"fault": f"{module_name}.{attr}",
                            "clean_failed_frac": clean,
                            "faulty_failed_frac": faulty}
        ok = ok and clean == 0 and faulty > 0
    print(json.dumps({"ok": ok, "workloads": report}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
