"""Command-line interface.

Subcommands: ``rank``, ``risk``, ``explain``, ``check``.  Every subcommand
reads a JSON instance file, applies any risk-configuration overrides, and
prints a deterministic report (``--json`` for the machine-readable form).
Overrides are scoped: ``--rule ID`` opens a scope and the following
``--measure``/``--alpha``/``--threshold`` flags apply to it, so several
rules can be reconfigured in one invocation.  Each scope holding an
override builds one reconfigured copy of the instance; a scope holding
none only has its rule checked.

Exit codes: 0 on success, 1 on validation or evaluation errors (a failed
``check``, a ``--rule`` naming an undeclared rule and an ``explain`` of one
trajectory with itself among them), 2 when the document (or the command
line) cannot be parsed.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import ParseError, RiskbookError
from .instances import load_instance, with_risk_config
from .reports import (
    render_check,
    render_explanation,
    render_rank,
    render_risk_table,
    run_check,
    run_explain,
    run_rank,
    run_risk_table,
)
from .risk import MEASURE_KINDS


class _ScopedOverride(argparse.Action):
    """Fills the override table ``scopes`` in command-line order: ``--rule ID``
    opens (or reopens) ID's scope, and the other flags fill the open one.
    Flags before any ``--rule`` go to the scope ``None``, which ``main``
    reports as a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.scopes is None:
            namespace.scopes = {}
        if self.dest == "rule":
            namespace.rule = values
            namespace.scopes.setdefault(values, {})
        else:
            namespace.scopes.setdefault(namespace.rule, {})[self.dest] = values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(scopes=None)  # the cached parser's defaults are shared by every call
    parser.add_argument("file", help="path to a JSON instance document")
    parser.add_argument("--json", action="store_true", help="emit machine-readable output")
    parser.add_argument(
        "--rule",
        action=_ScopedOverride,
        metavar="ID",
        help="rule whose risk configuration the following override flags modify",
    )
    parser.add_argument(
        "--measure",
        action=_ScopedOverride,
        choices=MEASURE_KINDS,
        help="override the scoped rule's risk measure",
    )
    parser.add_argument(
        "--alpha",
        action=_ScopedOverride,
        type=float,
        metavar="A",
        help="override the scoped rule's quantile level",
    )
    parser.add_argument(
        "--threshold",
        action=_ScopedOverride,
        type=float,
        metavar="T",
        help="override the scoped rule's risk threshold",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbook",
        description="Rank candidate system trajectories under rule priorities and scenario risk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="risks, verdicts, safety, optimal set, tradeoffs")
    _add_common(rank)

    risk = sub.add_parser("risk", help="risk table for one rule (first --rule selects it)")
    _add_common(risk)

    explain = sub.add_parser("explain", help="head-to-head comparison of two different trajectories")
    _add_common(explain)
    explain.add_argument("first", help="first trajectory id")
    explain.add_argument("second", help="second trajectory id")

    check = sub.add_parser("check", help="verify preorder laws and custom measures (loading checks the rest)")
    _add_common(check)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for :func:`main`: parsing writes only to each
    call's own namespace, so calls share nothing through it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    scopes = args.scopes or {}

    usage = None
    if None in scopes:
        usage = f"--{next(iter(scopes[None]))} must follow a --rule flag naming its scope"
    elif args.command == "risk" and not scopes:
        usage = "the risk subcommand requires --rule to select a rule"
    if usage:
        print(f"usage error: {usage}", file=sys.stderr)
        return 2

    try:
        instance = load_instance(args.file)
        for rule_id, overrides in scopes.items():
            if overrides:
                instance = with_risk_config(instance, rule_id, **overrides)
            else:
                instance.require_rule(rule_id)

        if args.command == "rank":
            print(render_rank(run_rank(instance), as_json=args.json), end="")
        elif args.command == "risk":
            table = run_risk_table(instance, next(iter(scopes)))
            print(render_risk_table(table, as_json=args.json), end="")
        elif args.command == "explain":
            explanation = run_explain(instance, args.first, args.second)
            print(render_explanation(explanation, as_json=args.json), end="")
        else:
            report = run_check(instance)
            print(render_check(report, as_json=args.json), end="")
            if not report.ok:
                return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except RiskbookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
