#!/usr/bin/env python3
"""Compare per-experiment fingerprints across `--json-dir` trees.

The determinism contract says `fpraker run --all` must produce the
same results serially, in parallel, and on the scalar bodies that
FPRAKER_SIMD=scalar pins as on the default SSE2 ones (PE column,
value MAC, FP32 dot); every fpraker-result-v1 document carries a
content fingerprint, so N sweeps agree iff the fingerprints match
experiment by experiment. Accepts two or more trees; the first is the
reference the rest are diffed against. CI runs:

    fpraker run --all --json-dir=a            # serial
    fpraker run --all --threads=2 --json-dir=b
    FPRAKER_SIMD=scalar fpraker run --all --json-dir=c
    scripts/check_fingerprints.py a b c

Exit status: 0 when all trees hold the same experiments with equal
fingerprints, 1 otherwise.
"""

import glob
import json
import os
import sys


def load(tree):
    docs = {}
    for path in glob.glob(os.path.join(tree, "*.json")):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        docs[doc.get("experiment", os.path.basename(path))] = \
            doc.get("fingerprint")
    return docs


def compare(ref_name, ref, other_name, other):
    status = 0
    for missing in sorted(set(ref) ^ set(other)):
        side = other_name if missing in ref else ref_name
        print(f"MISSING: {missing} absent from {side}")
        status = 1
    for exp in sorted(set(ref) & set(other)):
        # A document without a fingerprint must fail the gate, not
        # vacuously "match" as None == None.
        if ref[exp] is None or other[exp] is None:
            print(f"NO FINGERPRINT: {exp} "
                  f"({ref_name}: {ref[exp]!r}, "
                  f"{other_name}: {other[exp]!r})")
            status = 1
        elif ref[exp] != other[exp]:
            print(f"MISMATCH: {exp} ({ref_name} vs {other_name}): "
                  f"{ref[exp]} vs {other[exp]}")
            status = 1
    return status


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ref = load(argv[1])
    status = 0
    matched = set(ref)
    for tree in argv[2:]:
        other = load(tree)
        status |= compare(argv[1], ref, tree, other)
        matched &= set(other)
    if status == 0:
        print(f"{len(matched)} experiment fingerprints match across "
              f"{len(argv) - 1} trees")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
