"""Command-line front end.

Every verdict is computed by the same library calls the Python API
exposes; the CLI only parses arguments and formats results. Exit codes:
0 the query holds or the command succeeded, 1 the query does not hold,
2 usage or input errors, 3 validity or capacity errors.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import bitsets
from .closure import ClosureSession, entailment_diff
from .errors import (
    BindingError,
    CapacityError,
    FileFormatError,
    FormulaSyntaxError,
    StructureError,
    UnsupportedStateError,
    ValidityError,
)
from .formula import (
    CLASSICAL,
    DEFEASIBLE,
    extension,
    format_formula,
    parse_conditional,
    parse_formula,
)
from .fileio import load_conditionals, load_context, load_prop_statements
from .propositional import base_rank, parse_prop_statement, rc_decision
from .ranking import KnowledgeBase, delta_valid, object_rank


@dataclass
class CliResult:
    exit_code: int
    text: str
    data: Optional[dict] = None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfca",
        description="Defeasible conditional reasoning over formal contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--json",
            action="store_true",
            help="emit a JSON document instead of text",
        )
        return p

    p = command("extension", "list the objects satisfying a formula")
    p.add_argument("context", help="context file (.cxt or .csv)")
    p.add_argument("formula", help="compound attribute, e.g. 'Rain | Wind'")

    p = command("holds", "check a classical implication against a context")
    p.add_argument("context", help="context file (.cxt or .csv)")
    p.add_argument("implication", help="classical implication, e.g. 'Rain -> Cold'")

    p = command("validate", "check a conditional set against a context")
    p.add_argument("context", help="context file (.cxt or .csv)")
    p.add_argument("kb", help="conditional file, one statement per line")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="check every nonempty subset instead of relying on the ranking run",
    )

    p = command("rank", "stratify the context's objects by exceptionality")
    p.add_argument("context", help="context file (.cxt or .csv)")
    p.add_argument("kb", help="conditional file, one statement per line")

    p = command("entail", "defeasible entailment over the least ranking")
    p.add_argument("context", help="context file (.cxt or .csv)")
    p.add_argument("kb", help="conditional file, one statement per line")
    p.add_argument("query", help="defeasible conditional, e.g. 'Rain |~ Cold'")

    p = command("diff", "verdict changes between two conditional sets")
    p.add_argument("context", help="context file (.cxt or .csv)")
    p.add_argument("kb_before", help="conditional file before the change")
    p.add_argument("kb_after", help="conditional file after the change")
    p.add_argument(
        "--probe",
        required=True,
        help="file of defeasible conditionals to test in both sessions",
    )

    p = command("baserank", "stratify propositional statements by exceptionality")
    p.add_argument("kb", help="statement file, one per line")

    p = command("rcprop", "rational-closure entailment for propositional statements")
    p.add_argument("kb", help="statement file, one per line")
    p.add_argument("query", help="defeasible query, e.g. 'penguin |~ !flies'")

    return parser


def _cmd_extension(args):
    context = load_context(args.context)
    formula = parse_formula(args.formula)
    names = context.object_names(extension(context, formula))
    data = {
        "command": "extension",
        "formula": format_formula(formula),
        "objects": list(names),
        "count": len(names),
    }
    return CliResult(0, "\n".join(names), data)


def _cmd_holds(args):
    context = load_context(args.context)
    implication = parse_conditional(args.implication)
    if implication.kind != CLASSICAL:
        raise StructureError(
            "holds checks classical implications written 'A -> B'; "
            "use entail for '|~' queries"
        )
    antecedent = extension(context, implication.antecedent)
    consequent = extension(context, implication.consequent)
    counterexamples = context.object_names(antecedent & ~consequent)
    verdict = not counterexamples
    if verdict:
        text = "holds"
    else:
        text = "does not hold; counterexamples: " + ", ".join(counterexamples)
    data = {
        "command": "holds",
        "implication": str(implication),
        "holds": verdict,
        "counterexamples": list(counterexamples),
    }
    return CliResult(0 if verdict else 1, text, data)


def _cmd_validate(args):
    context = load_context(args.context)
    kb = KnowledgeBase(load_conditionals(args.kb))
    mode = "exhaustive" if args.exhaustive else "ranking"
    reason = None
    if args.exhaustive:
        valid = delta_valid(context, kb)
        if not valid:
            reason = "some nonempty subset has no plausible witness"
    else:
        try:
            object_rank(context, kb)
            valid = True
        except ValidityError as exc:
            valid = False
            reason = str(exc)
    text = "valid" if valid else f"invalid: {reason}"
    data = {
        "command": "validate",
        "valid": valid,
        "mode": mode,
        "reason": reason,
    }
    return CliResult(0 if valid else 1, text, data)


def _rank_table(context, partition):
    header = ["rank", "object"] + list(context.attributes)
    table = [header]
    for level, stratum in enumerate(partition.strata):
        label = str(level)
        for i in bitsets.iter_indices(stratum):
            row = context.row(i)
            cells = [
                "×" if row >> j & 1 else "" for j in range(context.n_attributes)
            ]
            table.append([label, context.objects[i]] + cells)
            label = ""
    widths = [
        max(len(row[col]) for row in table) for col in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def _cmd_rank(args):
    context = load_context(args.context)
    kb = KnowledgeBase(load_conditionals(args.kb))
    _, partition = object_rank(context, kb)
    data = {
        "command": "rank",
        "strata": [
            {"rank": level, "objects": list(context.object_names(stratum))}
            for level, stratum in enumerate(partition.strata)
        ],
    }
    return CliResult(0, _rank_table(context, partition), data)


def _cmd_entail(args):
    context = load_context(args.context)
    kb = KnowledgeBase(load_conditionals(args.kb))
    query = parse_conditional(args.query)
    if query.kind != DEFEASIBLE:
        raise StructureError(
            "entail answers defeasible queries written 'phi |~ psi'; "
            "use holds for classical implications"
        )
    ranked, _ = object_rank(context, kb)
    verdict = ranked.satisfies(query)
    antecedent = extension(context, query.antecedent)
    if antecedent:
        first = min(ranked.rank_of(i) for i in bitsets.iter_indices(antecedent))
        phrase = f"antecedent first satisfied at rank {first}"
    else:
        first = None
        phrase = "antecedent never satisfied"
    text = f"{'holds' if verdict else 'does not hold'} ({phrase})"
    data = {
        "command": "entail",
        "query": str(query),
        "holds": verdict,
        "antecedent_rank": first,
    }
    return CliResult(0 if verdict else 1, text, data)


def _cmd_diff(args):
    context = load_context(args.context)
    before = ClosureSession(context, load_conditionals(args.kb_before))
    after = ClosureSession(context, load_conditionals(args.kb_after))
    probes = load_conditionals(args.probe)
    for probe in probes:
        if probe.kind != DEFEASIBLE:
            raise StructureError(
                f"probes must be defeasible conditionals, got '{probe}'"
            )
    triples = entailment_diff(before, after, probes)
    table = [["query", "before", "after", "change"]]
    entries = []
    for probe, was, now in triples:
        if was == now:
            change = ""
        else:
            change = "gained" if now else "retracted"
        table.append([str(probe), "yes" if was else "no", "yes" if now else "no", change])
        entries.append(
            {"query": str(probe), "before": was, "after": now, "change": change or None}
        )
    widths = [max(len(row[col]) for row in table) for col in range(4)]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    data = {"command": "diff", "probes": entries}
    return CliResult(0, "\n".join(lines), data)


def _cmd_baserank(args):
    statements = load_prop_statements(args.kb)
    result = base_rank(statements)
    lines = []
    for level, stratum in enumerate(result.strata):
        lines.append(f"{level}: " + "; ".join(str(s) for s in stratum))
    if result.infinite:
        lines.append("infinite: " + "; ".join(str(s) for s in result.infinite))
    lines.append(f"height: {result.height}")
    data = {
        "command": "baserank",
        "strata": [[str(s) for s in stratum] for stratum in result.strata],
        "infinite": [str(s) for s in result.infinite],
        "height": result.height,
    }
    return CliResult(0, "\n".join(lines), data)


def _cmd_rcprop(args):
    statements = load_prop_statements(args.kb)
    query = parse_prop_statement(args.query)
    if query.kind != DEFEASIBLE:
        raise StructureError(
            "rcprop answers defeasible queries written 'phi |~ psi'"
        )
    verdict, antecedent_rank = rc_decision(statements, query)
    if antecedent_rank is None:
        note = "antecedent impossible at every rank"
    else:
        note = f"antecedent first non-exceptional at rank {antecedent_rank}"
    text = f"{'holds' if verdict else 'does not hold'} ({note})"
    data = {
        "command": "rcprop",
        "query": str(query),
        "holds": verdict,
        "antecedent_rank": antecedent_rank,
    }
    return CliResult(0 if verdict else 1, text, data)


_HANDLERS = {
    "extension": _cmd_extension,
    "holds": _cmd_holds,
    "validate": _cmd_validate,
    "rank": _cmd_rank,
    "entail": _cmd_entail,
    "diff": _cmd_diff,
    "baserank": _cmd_baserank,
    "rcprop": _cmd_rcprop,
}


def run(argv):
    """Execute one CLI invocation and report its outcome without exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, "")
    try:
        result = _HANDLERS[args.command](args)
    except (
        FileFormatError,
        FormulaSyntaxError,
        BindingError,
        StructureError,
        UnsupportedStateError,
    ) as exc:
        return CliResult(2, f"error: {exc}")
    except (ValidityError, CapacityError) as exc:
        return CliResult(3, f"error: {exc}")
    if args.json:
        return CliResult(
            result.exit_code,
            json.dumps(result.data, ensure_ascii=False, indent=2),
            result.data,
        )
    return result


def main(argv=None):
    result = run(sys.argv[1:] if argv is None else argv)
    if result.text:
        stream = sys.stdout if result.exit_code in (0, 1) else sys.stderr
        print(result.text, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
