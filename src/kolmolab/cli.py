"""Command line front end.

Subcommands:
  run <config>     execute every check requested by the config
  audit <config>   run only the hypothesis audit
  presets          list operator families and their parameter constraints

Exit codes: 0 every requested check passes, 1 a check that fails, is
inconclusive or errors, 2 configuration/schema error.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kolmolab",
        description="Desk-scale checks for coupled Kolmogorov evolution "
                    "operators")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a run configuration")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None,
                       help="override the config's output directory")
    p_audit = sub.add_parser("audit", help="hypothesis audit only")
    p_audit.add_argument("config")
    p_audit.add_argument("--output", default=None)
    sub.add_parser("presets", help="list families and constraints")
    args = parser.parse_args(argv)

    from .runner import ConfigError, audit_only, list_presets, run

    if args.command == "presets":
        rows = list_presets()
        width = max(len(name) for name, _ in rows)
        for name, constraint in rows:
            print(f"{name:<{width}}  {constraint}")
        return 0

    try:
        if args.command == "run":
            code, report = run(args.config, outdir=args.output)
            for name, verdict in report["verdicts"].items():
                print(f"{name}: {verdict}")
            return code
        code, result = audit_only(args.config, outdir=args.output)
        for name, verdict in result["sections"].items():
            print(f"{name}: {'PASS' if verdict else 'FAIL'}")
        print(f"audit: {result['verdict']}")
        return code
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
