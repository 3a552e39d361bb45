"""Compare the per-op work records of two benchmark result files.

    python3 perfbench/compare_work.py A.json B.json

The result files are the ones run.py writes under perfbench/out/. For
every op both runs completed (matched by op id and traced flag), the work
counters (evolutions, steps, LM iterations, rejected steps, ...) and the
output digests must be identical: a change that only makes the program
faster leaves them all alone. Prints each difference and exits 1 if there
is one.
"""

import json
import sys

COMPARED = ("seed", "work", "model_sha256", "csv_sha256", "ok")


def load(path):
    with open(path) as handle:
        result = json.load(handle)
    return {(r["op"], r["traced"]): r for r in result["records"]}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (load(p) for p in argv)
    common = sorted(set(a) & set(b))
    diffs = 0
    for key in common:
        for field in COMPARED:
            if a[key].get(field) != b[key].get(field):
                diffs += 1
                print("op %d traced=%s %s: %r != %r"
                      % (key[0], key[1], field, a[key].get(field),
                         b[key].get(field)))
    print("%d ops compared, %d differences" % (len(common), diffs))
    return 1 if diffs or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
