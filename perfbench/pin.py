"""Record pins.json: the generators of every benchmark group and the
invariants of every answer, computed by the program as it stands.

Run from the repository root, once, when the benchmark is defined or a
workload is added:

    python3 perfbench/pin.py

It is not part of a benchmark run.  Pins are invariants (class and
subgroup counts, ranks, torsion, prediction source, main-case tags) and
the corpus report's bytes, never bases: a basis depends on the class
order, which the seeded relabelling changes.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import permrel  # noqa: E402
import workloads  # noqa: E402


def main():
    pins = {"groups": {}, "answers": {}, "corpus": {}}

    code, text = workloads.run_corpus()
    if code != 0:
        raise SystemExit("permrel corpus exited with %d" % code)
    rows = workloads.corpus_rows(text)
    pins["corpus"] = {"stdout_sha256": workloads.sha256(text), "rows": rows}

    ladders = dict(workloads.LADDERS)
    ladders["corpus"] = tuple(
        (name, "prim", permrel.CORPUS_CHARACTERISTICS) for name in permrel.CORPUS_NAMES
    )
    for workload, ladder in ladders.items():
        answers = pins["answers"].setdefault(workload, {})
        for name, kind, chars in ladder:
            group = permrel.preset_group(name)
            pins["groups"][name] = {
                "degree": group.degree,
                "generators": [list(g.images) for g in group.generators],
            }
            for char in chars:
                key = workloads.answer_key(name, char)
                answers[key] = workloads.answer(group, kind, char)
                print(workload, key, answers[key], flush=True)

    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
