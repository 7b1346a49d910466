"""Capture the triage workload's stored inputs: repro bundles.

Usage (from the root of the repository)::

    PYTHONPATH=src python3 perfbench/capture_triage_inputs.py

Fuzzes each triage target once in capture mode at its pinned
``MATRIX_BUDGETS`` budget and seeds (the bug matrix's own run) and
stores, for each catalogued record-backed bug, the repro bundle the bug
matrix replays (the first BUG-verdict record matching the bug) as
``inputs/triage/bug<id>.json``. This is input generation: it runs once,
and the bundles are committed, so every commit under test triages the
same inputs.
"""

import os
import shutil

from workloads import TRIAGE_INPUTS, bug_bundle

TRIAGE_TARGETS = ("P-CLHT", "memcached-pmem", "pmring", "txkv")


def main():
    from repro.core.bugmatrix import RECORD_KINDS, bug_records, \
        run_matrix_target
    from repro.core.results import expected_bugs_for

    shutil.rmtree(TRIAGE_INPUTS, ignore_errors=True)
    os.makedirs(TRIAGE_INPUTS)
    for name in TRIAGE_TARGETS:
        result = run_matrix_target(name)
        for expected in expected_bugs_for(name):
            if expected.kind not in RECORD_KINDS:
                continue
            records = [r for r in bug_records(result, expected)
                       if r.bundle is not None]
            if not records:
                raise SystemExit("bug %d has no BUG-verdict bundle"
                                 % expected.bug_id)
            path = os.path.join(TRIAGE_INPUTS, "bug%d.json"
                                % expected.bug_id)
            with open(path, "w") as handle:
                handle.write(bug_bundle(records[0]).to_json() + "\n")
            print("stored %s" % path)


if __name__ == "__main__":
    main()
