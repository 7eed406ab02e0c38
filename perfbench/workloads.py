"""The benchmark's workloads: group ladders, seeded relabelling, answers,
and the check of every answer against the invariants in ``pins.json``.

permrel is imported lazily, inside the functions, so that a pass can time
``import permrel`` as part of its set-up.
"""

import hashlib
import io
import json
import random
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

CHARS = (0, 2, 3, 5, 7)

# Each ladder entry is (preset name, answer kind, characteristics).  A
# "prim" answer is prim() plus main_case_classify() at one characteristic;
# a "kernel" answer is brauer_kernel() alone.
LADDERS = {
    "big-order": (
        ("A6", "prim", CHARS),
        ("C19:C18", "prim", CHARS),
        ("S5", "prim", CHARS),
    ),
    "many-classes": (
        ("C2xC2xC2xC2", "prim", CHARS),
        ("D8xS3", "prim", CHARS),
        ("S4xC2", "prim", CHARS),
        ("C2xC2xC2xC2xC2", "kernel", (0, 3)),
    ),
}

WORKLOADS = ("corpus",) + tuple(LADDERS)


def load_pins(path=PINS_PATH):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def answer_key(name, char):
    return "%s/%d" % (name, char)


def relabel(generators, degree, seed, name):
    """Conjugate image lists by a permutation of the points drawn from
    ``seed`` (and the group's name, so each group gets its own)."""
    rng = random.Random("%d:%s" % (seed, name))
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for images in generators:
        moved = [0] * degree
        for point, image in enumerate(images):
            moved[sigma[point]] = sigma[image]
        out.append(moved)
    return out


def build_group(spec, seed, name):
    """Generate the relabelled group with its mult and inv tables."""
    import permrel

    gens = relabel(spec["generators"], spec["degree"], seed, name)
    group = permrel.generate(spec["degree"], [permrel.Permutation(g) for g in gens])
    group.mult
    group.inv
    return group


def build_groups(workload, seed, pins):
    """The workload's top-level groups, as (name, group) pairs.  The
    corpus command builds its own groups, so it gets none here."""
    return [
        (name, build_group(pins["groups"][name], seed, name))
        for name, _, _ in LADDERS.get(workload, ())
    ]


def answer(group, kind, char):
    """The invariants of one answer: everything pinned, no bases."""
    import permrel

    table = permrel.enumerate_classes(group)
    if kind == "kernel":
        kernel = permrel.brauer_kernel(group, char)
        return {
            "classes": len(table),
            "subgroups": len(table.sub_to_class),
            "kernel_rank": kernel.rank,
            "hypo_classes": len(kernel.hypo_classes),
        }
    report = permrel.prim(group, char)
    p = permrel.effective_prime(group, char)
    return {
        "classes": len(table),
        "subgroups": len(table.sub_to_class),
        "kernel_rank": report.kernel.rank,
        "free_rank": report.free_rank,
        "torsion": list(report.torsion),
        "imprimitive_rank": report.imprimitive.cols,
        "source": report.prediction.source,
        "main_cases": [m.tag for m in permrel.main_case_classify(group, p)],
    }


def run_corpus():
    """``permrel corpus`` in-process: (exit code, stdout text)."""
    import permrel.cli

    stream = io.StringIO()
    code = permrel.cli.run_command(["corpus"], stream=stream)
    return code, stream.getvalue()


def corpus_rows(text):
    """The report's rows keyed by group/characteristic; {} if unparsable."""
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError):
        return {}
    return {answer_key(row["group"], row["characteristic"]): row for row in rows}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def solve(workload, groups, pins, on_answer=None):
    """Compute and check every answer of one pass.

    Returns (answers, failed): ``answers`` maps each answer key to what
    was computed, and ``failed`` counts answers that raised PermrelError
    or differ from their pins.  ``on_answer(i)`` is called before the
    i-th answer starts.
    """
    from permrel import PermrelError

    if workload == "corpus":
        if on_answer is not None:
            on_answer(0)
        code, text = run_corpus()
        expected = pins["corpus"]
        rows = corpus_rows(text)
        answers = dict(rows)
        answers["exit_code"] = code
        answers["stdout_sha256"] = sha256(text)
        failed = sum(rows.get(key) != row for key, row in expected["rows"].items())
        if not failed and (code != 0 or answers["stdout_sha256"] != expected["stdout_sha256"]):
            failed = 1  # every row matches, yet the bytes or exit code differ
        return answers, failed

    expected = pins["answers"][workload]
    by_name = dict(groups)
    answers = {}
    failed = 0
    for name, kind, chars in LADDERS[workload]:
        for char in chars:
            key = answer_key(name, char)
            if on_answer is not None:
                on_answer(len(answers))
            try:
                got = answer(by_name[name], kind, char)
            except PermrelError as exc:
                got = {"error": "%s: %s" % (type(exc).__name__, exc)}
            answers[key] = got
            failed += got != expected[key]
    return answers, failed


def attempted(workload, pins):
    """Answers in one pass of the workload."""
    if workload == "corpus":
        return len(pins["corpus"]["rows"])
    return sum(len(chars) for _, _, chars in LADDERS[workload])
