"""One benchmark repeat in a fresh interpreter.

``run.py`` starts ``python3 perfbench/child.py SPEC`` once per repeat,
where ``SPEC`` is the JSON of :func:`workloads.run_repeat`'s keyword
arguments plus ``result_path``; the repeat's results are written there
as JSON.  The program under test is imported from ``src/`` of the
checkout this file sits in.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    """Run the repeat described by ``argv[0]``; write its result file."""
    spec = json.loads(argv[0])
    result_path = spec.pop("result_path")
    sys.path[:0] = [SRC, HERE]
    import workloads

    result = workloads.run_repeat(**spec)
    tmp = result_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
