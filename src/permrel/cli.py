"""Command line interface.

Subcommands: classify, marks, kernel, prim, theta, corpus.  Group input
is a JSON spec file; reports are JSON (CSV for matrix and corpus
output).  Exit codes: 0 success, 1 input error, 2 cap exceeded,
3 internal consistency failure.
"""

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .burnside import marks_table
from .classify import classify_group, main_case_classify
from .constructions import affine_group, direct_product
from .errors import CapExceeded, InputError, InternalCheckError, PermrelError
from .numtheory import is_prime, xgcd
from .perm import DEFAULT_ELEMENT_CAP, cycle_string, generate, parse_cycles
from .presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES, preset_group
from .relations import (
    brauer_kernel,
    effective_prime,
    prim,
    theta_highdim,
    theta_mn,
    theta_qk,
)
from .subgroups import enumerate_classes


def parse_group_spec(spec, element_cap=DEFAULT_ELEMENT_CAP):
    """Build a group from a parsed JSON spec dictionary."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("group spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "preset":
        return preset_group(_field(spec, "name", str), element_cap=element_cap)
    if kind == "perm":
        degree = _field(spec, "degree", int)
        gens = _field(spec, "generators", list)
        if not all(isinstance(text, str) for text in gens):
            raise InputError("group spec generators must be cycle strings")
        perms = [parse_cycles(degree, text) for text in gens]
        return generate(degree, perms, element_cap=element_cap)
    if kind == "semidirect":
        l = _field(spec, "l", int)
        d = _field(spec, "d", int)
        matrices = _field(spec, "matrices", list)
        group, _, _ = affine_group(l, d, matrices, element_cap=element_cap)
        return group
    if kind == "product":
        parts = _field(spec, "parts", list)
        if not parts:
            raise InputError("product spec needs at least one part")
        return direct_product(
            [parse_group_spec(part, element_cap) for part in parts],
            element_cap=element_cap,
        )
    raise InputError("unknown group spec type: %r" % kind)


def _field(spec, name, typ):
    if name not in spec:
        raise InputError("group spec is missing the %r field" % name)
    value = spec[name]
    # JSON's true and false are Python bools, which pass as ints
    if isinstance(value, bool) or not isinstance(value, typ):
        raise InputError("group spec field %r has the wrong type" % name)
    return value


def _load_group(args):
    if not args.group:
        raise InputError("this command needs --group FILE")
    try:
        with open(args.group, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        raise InputError("cannot read group file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise InputError("group file is not valid JSON: %s" % exc)
    cap = DEFAULT_ELEMENT_CAP if args.max_order is None else args.max_order
    return spec, parse_group_spec(spec, element_cap=cap)


def _parse_characteristic(text):
    try:
        value = int(text)
    except (TypeError, ValueError):
        raise InputError("characteristic must be an integer")
    if value != 0 and not is_prime(value):
        raise InputError("characteristic must be 0 or a prime number")
    return value


def _class_labels(table):
    return ["o%d_c%d" % (cls.order, i) for i, cls in enumerate(table.classes)]


def _element_json(labels, coeffs):
    return {labels[i]: int(c) for i, c in enumerate(coeffs) if c}


def _invariants(quotient):
    return {"free_rank": quotient.free_rank, "torsion": list(quotient.torsion)}


def _invariants_str(quotient):
    parts = []
    if quotient.free_rank == 1:
        parts.append("Z")
    elif quotient.free_rank > 1:
        parts.append("Z^%d" % quotient.free_rank)
    parts.extend("Z/%d" % t for t in quotient.torsion)
    return " x ".join(parts) if parts else "0"


def _write_report(stream, args, inputs, **fields):
    """The JSON report: the version, the input (the command, ``inputs``
    and the seed), then ``fields`` in their order."""
    report = {
        "version": __version__,
        "input": {"command": args.command, **inputs, "seed": args.seed},
        **fields,
    }
    json.dump(report, stream, indent=2)
    stream.write("\n")


def _write_csv(stream, head, rows):
    """The (label, cells) pair ``head`` and each pair of ``rows`` as one
    CSV line: the label and a comma, then the cells, so that a row with
    no cells keeps its trailing comma."""
    for label, cells in [head, *rows]:
        stream.write(label + "," + ",".join(map(str, cells)) + "\n")


def _cmd_classify(args, group, table, stream):
    result = asdict(classify_group(group))
    if args.characteristic is not None:
        p = effective_prime(group, args.characteristic)
        result["effective_prime"] = p
        result["main_cases"] = [
            {"tag": match.tag, "witness": match.witness}
            for match in main_case_classify(group, p)
        ]
    return result, None


def _cmd_marks(args, group, table, stream):
    rows = marks_table(group, table).array.tolist()
    labels = _class_labels(table)
    if args.format == "csv":
        _write_csv(stream, ("label", labels), zip(labels, rows))
        return None
    return {"labels": labels, "matrix": rows}, None


def _cmd_kernel(args, group, table, stream):
    char = args.characteristic
    kernel = brauer_kernel(group, char)
    labels = _class_labels(table)
    if args.format == "csv":
        heads = ["b%d" % j for j in range(kernel.basis.cols)]
        _write_csv(stream, ("label", heads), zip(labels, kernel.basis.data))
        return None
    result = {
        "characteristic": char,
        "effective_prime": effective_prime(group, char),
        "rank": kernel.rank,
        "hypo_class_labels": [labels[i] for i in kernel.hypo_classes],
        "basis": [_element_json(labels, col) for col in kernel.basis.columns()],
    }
    oracle = {
        "source": "rank",
        "predicted": len(labels) - len(kernel.hypo_classes),
        "computed": kernel.rank,
        "pass": True,
    }
    return result, oracle


def _cmd_prim(args, group, table, stream):
    char = args.characteristic
    report = prim(group, char)
    prediction = report.prediction
    computed = _invariants(report)
    result = {
        "characteristic": char,
        "effective_prime": effective_prime(group, char),
        **computed,
        "invariants": _invariants_str(report),
        "kernel_rank": report.kernel.rank,
        "imprimitive_columns": report.imprimitive.cols,
        "generator": (
            _element_json(_class_labels(table), report.generator.coeffs)
            if report.generator is not None
            else None
        ),
    }
    oracle = {
        "source": prediction.source,
        "predicted": _invariants(prediction) if prediction.covered else None,
        "computed": computed,
        "pass": True,
    }
    return result, oracle


def _refuse_order(args, order):
    """Refuse a theta group of ``order`` larger than --max-order before
    it is built."""
    if args.max_order is not None and order > args.max_order:
        raise CapExceeded("the group of order %d exceeds --max-order %d" % (order, args.max_order))


def _theta_mn(args):
    _refuse_order(args, args.l * args.m * args.n)
    if (args.alpha is None) != (args.beta is None):
        raise InputError("--alpha and --beta must be given together")
    alpha, beta = args.alpha, args.beta
    if alpha is None:
        # alpha*m + beta*n = gcd(m, n) with the least alpha >= 0;
        # theta_mn rejects m and n unless they are coprime and > 1
        _, alpha, beta = xgcd(args.m, args.n)
        if args.n > 0:
            shift, alpha = divmod(alpha, args.n)
            beta += shift * args.m
    params = {"l": args.l, "m": args.m, "n": args.n, "alpha": alpha, "beta": beta}
    return None, params, theta_mn(args.l, args.m, args.n, alpha, beta, args.characteristic)


def _theta_qk(args):
    _refuse_order(args, args.l * args.q ** max(args.k + 1, 0))
    params = {"l": args.l, "q": args.q, "k": args.k}
    return None, params, theta_qk(args.l, args.q, args.k, args.characteristic)


def _theta_highdim(args):
    spec, _ = _load_group(args)
    if spec.get("type") != "semidirect":
        raise InputError("theta --family highdim needs a semidirect group spec")
    if not spec["matrices"] and spec["d"] != 2:
        raise InputError("theta --family highdim with no matrices needs d = 2")
    params = {"l": spec["l"], "d": spec["d"]}
    return spec, params, theta_highdim(spec["l"], spec["matrices"], args.characteristic)


# each family's required options and its resolver to (spec, parameters, element)
_THETA = {
    "mn": (("l", "m", "n"), _theta_mn),
    "qk": (("l", "q", "k"), _theta_qk),
    "highdim": ((), _theta_highdim),
}


def _cmd_theta(args):
    """The spec, class table, result and oracle of a theta relation.
    theta_mn, theta_qk and theta_highdim return an element only once it
    is verified to lie in the kernel, and raise InternalCheckError
    (exit 3) otherwise."""
    needs, resolve = _THETA[args.family]
    if any(getattr(args, name) is None for name in needs):
        raise InputError("theta --family %s needs --%s, --%s and --%s" % (args.family, *needs))
    spec, params, element = resolve(args)
    result = {
        "family": args.family,
        "parameters": params,
        "characteristic": args.characteristic,
        "group_order": element.table.group.order,
        "element": _element_json(_class_labels(element.table), element.coeffs),
        "verified": True,
    }
    oracle = {"source": "verify_relation", "predicted": True, "computed": True, "pass": True}
    return spec, element.table, result, oracle


def _cmd_corpus(args, stream):
    text = args.chars.strip()
    chars = [_parse_characteristic(part) for part in text.split(",")] if text else []
    rows = []
    for name in CORPUS_NAMES:
        group = preset_group(name)
        if args.max_order is not None and group.order > args.max_order:
            continue
        rows.extend(_corpus_row(name, group, char) for char in chars)
    all_pass = all(row["pass"] for row in rows)
    if args.format == "csv":
        head = ("group", ("characteristic", "source", "predicted", "computed", "pass"))
        _write_csv(stream, head, (
            (row["group"], (row["characteristic"], row["source"],
                            row["predicted"] if row["predicted"] is not None else "",
                            row["computed"], "PASS" if row["pass"] else "FAIL"))
            for row in rows
        ))
    else:
        inputs = {"characteristics": chars, "max_order": args.max_order}
        _write_report(stream, args, inputs, rows=rows, all_pass=all_pass)
    return 0 if all_pass else 3


def _corpus_row(name, group, char):
    """One corpus row; an InternalCheckError gives a failing row with
    source "error" and the message as its computed field."""
    p = effective_prime(group, char)
    try:
        report = prim(group, char)
    except InternalCheckError as exc:
        cells = "error", None, str(exc), [], False
    else:
        prediction = report.prediction
        computed = _invariants_str(report)
        predicted = _invariants_str(prediction) if prediction.covered else None
        matches = [m.tag for m in main_case_classify(group, p)]
        ok = not prediction.covered or predicted == computed
        nonzero = report.free_rank > 0 or bool(report.torsion)
        if nonzero and not matches:
            ok = False  # a nonzero quotient must match a structural case
        cells = prediction.source, predicted, computed, matches, ok
    keys = ("group", "characteristic", "order", "source", "predicted", "computed",
            "main_cases", "pass")
    return dict(zip(keys, (name, char, group.order, *cells)))


# each command's --char (required, optional or none) and its function
_COMMANDS = {
    "classify": ("optional", _cmd_classify),
    "marks": (None, _cmd_marks),
    "kernel": ("required", _cmd_kernel),
    "prim": ("required", _cmd_prim),
    "theta": ("required", _cmd_theta),
    "corpus": (None, _cmd_corpus),
}
_CSV_COMMANDS = ("marks", "kernel", "corpus")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="permrel",
        description="Exact computation of permutation-module relations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (char, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--group", help="path to a JSON group spec")
        if char is not None:
            p.add_argument("--char", dest="characteristic", required=char == "required")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json"
        )
        p.add_argument("--seed", type=int, default=None, help="reserved")
        p.add_argument("--max-order", type=int, default=None)
    theta = sub.choices["theta"]
    theta.add_argument("--family", choices=tuple(_THETA), required=True)
    for name in ("l", "m", "n", "alpha", "beta", "q", "k"):
        theta.add_argument("--" + name, type=int)
    sub.choices["corpus"].add_argument(
        "--chars",
        default=",".join(map(str, CORPUS_CHARACTERISTICS)),
        help="comma separated characteristics (default %(default)s)",
    )
    return parser


def run_command(argv, stream=None):
    stream = stream if stream is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0  # a usage error is an input error
    try:
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise InputError(
                "csv output is only available for: %s" % ", ".join(_CSV_COMMANDS)
            )
        if args.max_order is not None and args.max_order < 1:
            raise InputError("--max-order must be at least 1")
        if getattr(args, "characteristic", None) is not None:
            args.characteristic = _parse_characteristic(args.characteristic)
        command = _COMMANDS[args.command][1]
        if args.command == "corpus":
            return command(args, stream)
        if args.command == "theta":
            spec, table, *answer = command(args)
        else:
            # the group commands: one spec, one group, one class table
            spec, group = _load_group(args)
            table = enumerate_classes(group)
            answer = command(args, group, table, stream)
            if answer is None:
                return 0  # the command wrote its CSV
        labels = _class_labels(table)
        classes = [
            {
                "label": label,
                "order": cls.order,
                "class_size": cls.class_size,
                "normalizer_order": cls.normalizer.order,
                "generators": [cycle_string(g) for g in cls.representative.generators()],
            }
            for label, cls in zip(labels, table.classes)
        ]
        inputs = {"group": spec, "characteristic": getattr(args, "characteristic", None)}
        result, oracle = answer
        _write_report(stream, args, inputs, classes=classes, result=result, oracle=oracle)
        return 0
    except PermrelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


def main(argv=None):
    return run_command(argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
