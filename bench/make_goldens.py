"""Regenerate goldens.json: stdout and exit code of the README samples.

    python3 bench/make_goldens.py

Run it only on a commit whose CLI output is known to be right; the
benchmark's cli_mix workload compares against these bytes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    goldens = {}
    for argv in workloads.README_SAMPLES:
        full = [os.path.join(ROOT, a) if a.startswith("data/") else a
                for a in argv]
        result = workloads.cli_call(full)
        goldens[workloads.readme_key(argv)] = {"exit": result.exit,
                                               "stdout": result.stdout}
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
