"""Parse every artifact in the given output directories strictly.

Each line of each *.jsonl file and each whole *.json file must be JSON
that encoding/json could read back: valid UTF-8, no NaN or Infinity
(Python's json module accepts those unless parse_constant refuses
them). Exits non-zero at the first bad line, naming its file and line.

    python3 .github/scripts/strict_json.py DIR...
"""
import glob
import json
import os
import sys


def refuse(name):
    raise ValueError("%s is not JSON" % name)


def parse(raw):
    json.loads(raw.decode("utf-8"), parse_constant=refuse)


def main(dirs):
    for d in dirs:
        lines = files = 0
        for path in sorted(glob.glob(os.path.join(d, "*.jsonl"))):
            files += 1
            with open(path, "rb") as f:
                for n, raw in enumerate(f, 1):
                    try:
                        parse(raw)
                    except ValueError as e:
                        sys.exit("%s:%d: %s" % (path, n, e))
                    lines += 1
        for path in sorted(glob.glob(os.path.join(d, "*.json"))):
            files += 1
            with open(path, "rb") as f:
                try:
                    parse(f.read())
                except ValueError as e:
                    sys.exit("%s: %s" % (path, e))
        if files == 0:
            sys.exit("%s: no JSON artifacts" % d)
        print("%s: %d files, %d JSONL lines, all strict JSON" % (d, files, lines))


if __name__ == "__main__":
    main(sys.argv[1:])
