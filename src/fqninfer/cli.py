"""Command line entry points.

Subcommands:
    kb-build     normalize a KB description file into canonical form
    kb-inspect   show entries of a KB, optionally one simple name
    train        fit a co-occurrence model from a snippet corpus
    infer        type the API elements of one snippet
    trace        print the round-by-round loop log for one snippet
    eval         score an engine against a corpus with ground truth

The KB path can come from --kb or the FQNINFER_KB environment variable.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .kb import KbError, dump_kb, load_kb
from .orchestrator import (
    ORDER_CONSTRAINT_FIRST,
    ORDER_STAT_FIRST,
    RunConfig,
    infer_with_engine,
    run,
    serialize_trace,
)
from .scoring import (
    format_report,
    load_corpus,
    score_snippet,
    training_pairs,
    truth_elements,
)
from .snippet import read_utf8, tokenize
from .stat import load_model, save_model, train

log = logging.getLogger("fqninfer")

_ORDERS = {"cs": ORDER_CONSTRAINT_FIRST, "sc": ORDER_STAT_FIRST}


def _add_kb_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kb",
        default=os.environ.get("FQNINFER_KB"),
        help="knowledge base file (default: $FQNINFER_KB)",
    )


_SWITCHES = (  # the on/off run flags: flag, RunConfig field, help
    ("--cascaded-calls", "cascaded_calls", "follow multi-hop call chains as one constraint"),
    ("--strict-body", "strict_body_check",
     "give up on class bodies with mismatched constructor names"),
    ("--strict-uniqueness", "strict_uniqueness",
     "abstain when constraint optima disagree about an element"),
)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="trained co-occurrence model file")
    parser.add_argument("--k", type=int, default=RunConfig.k, help="candidates per element")
    parser.add_argument("--delta", type=int, default=RunConfig.delta, help="round limit")
    parser.add_argument(
        "--order", choices=sorted(_ORDERS),
        default=next(flag for flag, order in _ORDERS.items() if order == RunConfig.order),
        help="cs: constraint engine leads each round; sc: statistical leads",
    )
    for flag, name, text in _SWITCHES:
        parser.add_argument(
            flag, dest=name, choices=["on", "off"],
            default="on" if getattr(RunConfig, name) else "off", help=text,
        )
    parser.add_argument(
        "--eta", type=int, default=None,
        help="override the model's context window height",
    )
    parser.add_argument(
        "--include-string", action="store_true",
        help="treat String occurrences as API elements",
    )


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        k=args.k,
        delta=args.delta,
        order=_ORDERS[args.order],
        exclude_string=not args.include_string,
        **{name: getattr(args, name) == "on" for _, name, _ in _SWITCHES},
    )


def _load_kb_or_fail(args: argparse.Namespace):
    if not args.kb:
        raise SystemExit("error: no KB given (use --kb or set FQNINFER_KB)")
    return load_kb(args.kb)


def _load_model_or_fail(args: argparse.Namespace):
    if not args.model:
        raise SystemExit("error: this command needs --model")
    model = load_model(args.model)
    if args.eta is not None:
        model = replace(model, window_eta=args.eta)
    return model


def _refuse_unwritable(path: str | None) -> None:
    """Raise the OSError that writing a file at path would raise when path
    is a directory or its parent is not one, so that an output which cannot
    be written is refused before the work that fills it."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_kb_build(args: argparse.Namespace) -> int:
    _refuse_unwritable(args.output)
    kb = load_kb(args.input)
    text = dump_kb(kb)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    log.info("%d types, %d libraries", len(kb), len(kb.libraries))
    return 0


def _cmd_kb_inspect(args: argparse.Namespace) -> int:
    kb = _load_kb_or_fail(args)
    if args.name is not None:
        for fqn in kb.candidates_for(args.name):
            entry = kb.entries[fqn]
            print(f"{fqn} {entry.kind} lib={entry.library}")
        return 0
    for fqn in sorted(kb.entries):
        entry = kb.entries[fqn]
        print(
            f"{fqn} {entry.kind} lib={entry.library} "
            f"methods={len(entry.methods)} fields={len(entry.fields)}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    _refuse_unwritable(args.output)
    kb = load_kb(args.kb) if args.kb else None
    items = load_corpus(args.corpus)
    pairs = training_pairs(items, kb)
    model = train(pairs, eta=args.eta, alpha=args.alpha)
    save_model(model, args.output)
    log.info(
        "trained on %d snippets: %d (token, fqn) pairs, %d names",
        len(items), sum(map(len, model.rows.values())), len(model.rows),
    )
    return 0


def _run_snippet(args: argparse.Namespace):
    """The loop on the snippet named by args: (combined, trace), where
    `combined.per_element` holds the identified elements in token order."""
    kb = _load_kb_or_fail(args)
    snippet = tokenize(read_utf8(args.snippet))
    config = _run_config(args)
    model = _load_model_or_fail(args)
    return run(snippet, kb, model, config)


def _cmd_infer(args: argparse.Namespace) -> int:
    _refuse_unwritable(args.trace)
    combined, trace = _run_snippet(args)
    # the trace file first: a failed write leaves no answers on stdout
    if args.trace:
        Path(args.trace).write_text(
            serialize_trace(trace, list(combined.per_element)), encoding="utf-8"
        )
    for e, ce in combined.per_element.items():
        fqn = ce.final_fqn if ce.final_fqn else "-"
        print(f"{e.key}\t{fqn}\t{ce.source}")
    log.info("%d rounds", len(trace))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    combined, trace = _run_snippet(args)
    sys.stdout.write(serialize_trace(trace, list(combined.per_element)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    kb = _load_kb_or_fail(args)
    config = _run_config(args)
    model = _load_model_or_fail(args) if args.engine != "constraint" else None
    items = load_corpus(args.corpus)
    scores = []
    for item in items:
        # a key that names no element would score as a miss, not an error
        truth_elements(
            item.snippet, item.truth, kb, exclude_string=config.exclude_string
        )
        answers = infer_with_engine(item.snippet, kb, model, args.engine, config)
        scores.append(score_snippet(answers, item.truth, lenient=True))
    sys.stdout.write(format_report(scores))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqninfer",
        description="Fully qualified name inference for Java snippets",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kb-build", help="canonicalize a KB description")
    p.add_argument("input", help="KB description file")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_kb_build)

    p = sub.add_parser("kb-inspect", help="list KB entries")
    _add_kb_argument(p)
    p.add_argument("--name", help="only entries with this simple name")
    p.set_defaults(func=_cmd_kb_inspect)

    p = sub.add_parser("train", help="fit a model from a corpus")
    p.add_argument("corpus", help="corpus root: <library>/<id>.java + .truth")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--eta", type=int, default=2, help="context window height")
    p.add_argument("--alpha", type=float, default=1.0, help="smoothing")
    p.add_argument("--kb", default=os.environ.get("FQNINFER_KB"),
                   help="optional KB to aid element identification")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="type one snippet's API elements")
    p.add_argument("snippet", help="Java snippet file")
    _add_kb_argument(p)
    _add_run_arguments(p)
    p.add_argument("--trace", help="also write the round log to this file")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("trace", help="print the round-by-round loop log")
    p.add_argument("snippet", help="Java snippet file")
    _add_kb_argument(p)
    _add_run_arguments(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("eval", help="score an engine against a corpus")
    p.add_argument("corpus", help="corpus root: <library>/<id>.java + .truth")
    _add_kb_argument(p)
    _add_run_arguments(p)
    p.add_argument(
        "--engine", choices=["combined", "constraint", "stat"],
        default="combined",
    )
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    # bad input ends in one line: model, truth and corpus format errors,
    # undecodable files, out-of-range RunConfig or model settings and a
    # snippet too large to solve are all ValueErrors, and a path that cannot
    # be read or written (missing, a directory, no permission) is an OSError
    try:
        return args.func(args)
    except (KbError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
