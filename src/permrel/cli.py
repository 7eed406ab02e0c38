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
from .classify import classify_group, main_case_classify
from .constructions import affine_group, direct_product
from .errors import CapExceeded, InputError, InternalCheckError, PermrelError
from .numtheory import xgcd
from .perm import DEFAULT_ELEMENT_CAP, cycle_string, generate, parse_cycles
from .presets import CORPUS_CHARACTERISTICS, CORPUS_NAMES, preset_group
from .relations import (
    brauer_kernel,
    effective_prime,
    prim,
    theta_highdim,
    theta_mn,
    theta_qk,
    verify_relation,
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
    if value < 0:
        raise InputError("characteristic must be 0 or a prime")
    return value


def _class_labels(table):
    return ["o%d_c%d" % (cls.order, i) for i, cls in enumerate(table.classes)]


def _classes_json(table):
    labels = _class_labels(table)
    out = []
    for label, cls in zip(labels, table.classes):
        out.append(
            {
                "label": label,
                "order": cls.order,
                "class_size": cls.class_size,
                "normalizer_order": cls.normalizer.order,
                "generators": [cycle_string(g) for g in cls.representative.generators()],
            }
        )
    return out


def _element_json(table, coeffs):
    labels = _class_labels(table)
    return {labels[i]: int(c) for i, c in enumerate(coeffs) if c}


def _invariants_str(free_rank, torsion):
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append("Z^%d" % free_rank)
    parts.extend("Z/%d" % t for t in torsion)
    return " x ".join(parts) if parts else "0"


def _report(args, spec, classes, result, oracle):
    return {
        "version": __version__,
        "input": {
            "command": args.command,
            "group": spec,
            "characteristic": getattr(args, "characteristic", None),
            "seed": args.seed,
        },
        "classes": classes,
        "result": result,
        "oracle": oracle,
    }


def _emit_json(report, stream):
    json.dump(report, stream, indent=2)
    stream.write("\n")


def _write_csv(stream, head, rows):
    """The (label, cells) pair ``head`` and each pair of ``rows`` as one
    CSV line: the label and a comma, then the cells, so that a row with
    no cells keeps its trailing comma."""
    for label, cells in [head, *rows]:
        stream.write(label + "," + ",".join(map(str, cells)) + "\n")


def _cmd_classify(args, stream):
    spec, group = _load_group(args)
    table = enumerate_classes(group)
    result = asdict(classify_group(group))
    if args.characteristic is not None:
        p = effective_prime(group, args.characteristic)
        result["effective_prime"] = p
        result["main_cases"] = [
            {"tag": match.tag, "witness": match.witness}
            for match in main_case_classify(group, p)
        ]
    _emit_json(_report(args, spec, _classes_json(table), result, None), stream)
    return 0


def _cmd_marks(args, stream):
    from .burnside import marks_table

    spec, group = _load_group(args)
    table = enumerate_classes(group)
    rows = marks_table(group, table).array.tolist()
    labels = _class_labels(table)
    if args.format == "csv":
        _write_csv(stream, ("label", labels), zip(labels, rows))
        return 0
    result = {"labels": labels, "matrix": rows}
    _emit_json(_report(args, spec, _classes_json(table), result, None), stream)
    return 0


def _cmd_kernel(args, stream):
    spec, group = _load_group(args)
    char = args.characteristic
    table = enumerate_classes(group)
    kernel = brauer_kernel(group, char)
    labels = _class_labels(table)
    if args.format == "csv":
        heads = ["b%d" % j for j in range(kernel.basis.cols)]
        _write_csv(stream, ("label", heads), zip(labels, kernel.basis.data))
        return 0
    result = {
        "characteristic": char,
        "effective_prime": effective_prime(group, char),
        "rank": kernel.rank,
        "hypo_class_labels": [labels[i] for i in kernel.hypo_classes],
        "basis": [_element_json(table, col) for col in kernel.basis.columns()],
    }
    oracle = {
        "source": "rank",
        "predicted": len(labels) - len(kernel.hypo_classes),
        "computed": kernel.rank,
        "pass": True,
    }
    _emit_json(_report(args, spec, _classes_json(table), result, oracle), stream)
    return 0


def _cmd_prim(args, stream):
    spec, group = _load_group(args)
    char = args.characteristic
    table = enumerate_classes(group)
    report = prim(group, char)
    prediction = report.prediction
    result = {
        "characteristic": char,
        "effective_prime": effective_prime(group, char),
        "free_rank": report.free_rank,
        "torsion": list(report.torsion),
        "invariants": _invariants_str(report.free_rank, report.torsion),
        "kernel_rank": report.kernel.rank,
        "imprimitive_columns": report.imprimitive.cols,
        "generator": (
            _element_json(table, report.generator.coeffs)
            if report.generator is not None
            else None
        ),
    }
    oracle = {
        "source": prediction.source,
        "predicted": (
            {
                "free_rank": prediction.free_rank,
                "torsion": list(prediction.torsion),
            }
            if prediction.covered
            else None
        ),
        "computed": {"free_rank": report.free_rank, "torsion": list(report.torsion)},
        "pass": True,
    }
    _emit_json(_report(args, spec, _classes_json(table), result, oracle), stream)
    return 0


def _refuse_order(args, order):
    """Refuse a theta group of ``order`` larger than --max-order before
    it is built."""
    if args.max_order is not None and order > args.max_order:
        raise CapExceeded("the group of order %d exceeds --max-order %d" % (order, args.max_order))


def _cmd_theta(args, stream):
    char = args.characteristic
    if args.family == "mn":
        for name in ("l", "m", "n"):
            if getattr(args, name) is None:
                raise InputError("theta --family mn needs --l, --m and --n")
        _refuse_order(args, args.l * args.m * args.n)
        if (args.alpha is None) != (args.beta is None):
            raise InputError("--alpha and --beta must be given together")
        if args.alpha is None:
            # alpha*m + beta*n = gcd(m, n) with the least alpha >= 0;
            # theta_mn rejects m and n unless they are coprime and > 1
            _, alpha, beta = xgcd(args.m, args.n)
            if args.n > 0:
                shift, alpha = divmod(alpha, args.n)
                beta += shift * args.m
        else:
            alpha, beta = args.alpha, args.beta
        element = theta_mn(args.l, args.m, args.n, alpha, beta, char)
        params = {
            "l": args.l,
            "m": args.m,
            "n": args.n,
            "alpha": alpha,
            "beta": beta,
        }
        spec = None
    elif args.family == "qk":
        for name in ("l", "q", "k"):
            if getattr(args, name) is None:
                raise InputError("theta --family qk needs --l, --q and --k")
        _refuse_order(args, args.l * args.q ** max(args.k + 1, 0))
        element = theta_qk(args.l, args.q, args.k, char)
        params = {"l": args.l, "q": args.q, "k": args.k}
        spec = None
    elif args.family == "highdim":
        spec, _ = _load_group(args)
        if spec.get("type") != "semidirect":
            raise InputError("theta --family highdim needs a semidirect group spec")
        if not spec["matrices"] and spec["d"] != 2:
            raise InputError("theta --family highdim with no matrices needs d = 2")
        element = theta_highdim(spec["l"], spec["matrices"], char)
        params = {"l": spec["l"], "d": spec["d"]}
    else:
        raise InputError("unknown theta family: %r" % args.family)
    group = element.table.group
    table = element.table
    verified = verify_relation(group, char, element)
    result = {
        "family": args.family,
        "parameters": params,
        "characteristic": char,
        "group_order": group.order,
        "element": _element_json(table, element.coeffs),
        "verified": verified,
    }
    oracle = {
        "source": "verify_relation",
        "predicted": True,
        "computed": verified,
        "pass": bool(verified),
    }
    _emit_json(_report(args, spec, _classes_json(table), result, oracle), stream)
    return 0 if verified else 3


def _corpus_characteristics(text):
    if text is None:
        return list(CORPUS_CHARACTERISTICS)
    text = text.strip()
    if not text:
        return []
    return [_parse_characteristic(part) for part in text.split(",")]


def _cmd_corpus(args, stream):
    chars = _corpus_characteristics(args.chars)
    rows = []
    all_pass = True
    for name in CORPUS_NAMES:
        group = preset_group(name)
        if args.max_order is not None and group.order > args.max_order:
            continue
        for char in chars:
            row = _corpus_row(name, group, char)
            all_pass = all_pass and row["pass"]
            rows.append(row)
    if args.format == "csv":
        head = ("group", ("characteristic", "source", "predicted", "computed", "pass"))
        _write_csv(stream, head, (
            (row["group"], (row["characteristic"], row["source"],
                            row["predicted"] if row["predicted"] is not None else "",
                            row["computed"], "PASS" if row["pass"] else "FAIL"))
            for row in rows
        ))
        return 0 if all_pass else 3
    report = {
        "version": __version__,
        "input": {
            "command": "corpus",
            "characteristics": chars,
            "max_order": args.max_order,
            "seed": args.seed,
        },
        "rows": rows,
        "all_pass": all_pass,
    }
    _emit_json(report, stream)
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
        computed = _invariants_str(report.free_rank, report.torsion)
        predicted = (
            _invariants_str(prediction.free_rank, prediction.torsion)
            if prediction.covered
            else None
        )
        matches = [m.tag for m in main_case_classify(group, p)]
        ok = True
        if prediction.covered:
            ok = predicted == computed
        nonzero = report.free_rank > 0 or bool(report.torsion)
        if nonzero and not matches:
            ok = False  # a nonzero quotient must match a structural case
        cells = prediction.source, predicted, computed, matches, ok
    keys = ("group", "characteristic", "order", "source", "predicted", "computed",
            "main_cases", "pass")
    return dict(zip(keys, (name, char, group.order, *cells)))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="permrel",
        description="Exact computation of permutation-module relations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_char):
        p.add_argument("--group", help="path to a JSON group spec")
        if needs_char == "required":
            p.add_argument("--char", dest="characteristic", required=True)
        elif needs_char == "optional":
            p.add_argument("--char", dest="characteristic")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json"
        )
        p.add_argument("--seed", type=int, default=None, help="reserved")
        p.add_argument("--max-order", type=int, default=None)

    common(sub.add_parser("classify"), "optional")
    common(sub.add_parser("marks"), None)
    common(sub.add_parser("kernel"), "required")
    common(sub.add_parser("prim"), "required")
    theta = sub.add_parser("theta")
    common(theta, "required")
    theta.add_argument("--family", choices=("mn", "qk", "highdim"), required=True)
    theta.add_argument("--l", type=int)
    theta.add_argument("--m", type=int)
    theta.add_argument("--n", type=int)
    theta.add_argument("--alpha", type=int)
    theta.add_argument("--beta", type=int)
    theta.add_argument("--q", type=int)
    theta.add_argument("--k", type=int)
    corpus = sub.add_parser("corpus")
    common(corpus, None)
    corpus.add_argument(
        "--chars",
        default=None,
        help="comma separated characteristics (default 0,2,3,5,7)",
    )
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "marks": _cmd_marks,
    "kernel": _cmd_kernel,
    "prim": _cmd_prim,
    "theta": _cmd_theta,
    "corpus": _cmd_corpus,
}
_CSV_COMMANDS = ("marks", "kernel", "corpus")


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
        return _COMMANDS[args.command](args, stream)
    except PermrelError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


def main(argv=None):
    return run_command(argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
