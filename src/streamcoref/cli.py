"""Command-line front end.

Subcommands: analyze (corpus statistics), run (clustering), oracle
(teacher-forcing diagnostics), score (evaluation), synth (synthetic
fixtures). Exit codes: 0 success, 2 parse failure, 3 configuration
conflict, 4 replay shape mismatch, 5 document alignment failure.

This module holds the parser and the exit codes only. The subcommands
are in commands, which main imports once the arguments are parsed: so
--version, --help and usage errors load no other module of the package.
"""

import argparse
import sys

from . import __version__

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_REPLAY = 4
EXIT_ALIGN = 5


def _err(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("auto", "conll", "jsonl"),
        default="auto",
        help="input format (default: by file extension)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcoref",
        description="Bounded-memory incremental coreference clustering.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="corpus entity statistics")
    p_analyze.add_argument("inputs", nargs="+")
    p_analyze.add_argument("--buckets", type=int, default=10)
    p_analyze.add_argument("--exclude-singletons", action="store_true")
    p_analyze.add_argument("--out", help="directory for CSV exports")
    _add_common(p_analyze)

    p_run = sub.add_parser("run", help="cluster a corpus incrementally")
    p_run.add_argument("inputs", nargs="+")
    p_run.add_argument(
        "--policy",
        choices=("unbounded", "ustar", "lb", "rb"),  # the MemoryPolicy values
        default="unbounded",
    )
    p_run.add_argument("--capacity", type=int, default=None)
    p_run.add_argument("--scorer", default="gold", help="gold, string-match, or replay:PATH")
    p_run.add_argument("--singletons", choices=("keep", "drop"), default="keep")
    p_run.add_argument("--proposal-ratio", type=float, default=None)
    p_run.add_argument("--no-lowercase", action="store_true")
    p_run.add_argument("--strip-determiners", action="store_true")
    p_run.add_argument("--out", help="predictions JSONL")
    p_run.add_argument("--trace", help="action trace JSONL")
    p_run.add_argument("--record-scores", help="write queried scores as a replay file")
    p_run.add_argument("--manifest", help="write a reproducibility manifest")
    p_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes, capped at the CPU count (default: COREF_JOBS or 1)",
    )
    _add_common(p_run)

    p_oracle = sub.add_parser("oracle", help="teacher-forcing action diagnostics")
    p_oracle.add_argument("inputs", nargs="+")
    p_oracle.add_argument(
        "--policy", choices=("unbounded", "lb", "rb"), default="lb"
    )
    p_oracle.add_argument("--capacity", type=int, default=None)
    p_oracle.add_argument("--out", help="oracle trace JSONL")
    _add_common(p_oracle)

    p_score = sub.add_parser("score", help="evaluate predictions against gold")
    p_score.add_argument("gold")
    p_score.add_argument("pred")
    p_score.add_argument("--singletons", choices=("keep", "drop"), default="keep")
    p_score.add_argument("--json", help="write the report as JSON")
    _add_common(p_score)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--docs", type=int, default=100)
    p_synth.add_argument("--max-tokens", type=int, default=64)
    p_synth.add_argument("--max-entities", type=int, default=8)
    p_synth.add_argument("--max-mentions", type=int, default=20)
    p_synth.add_argument("--min-entities", type=int, default=1)
    p_synth.add_argument("--extra-candidates", type=int, default=0)
    p_synth.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --version, --help and usage errors have exited inside parse_args.
    from . import commands
    from .ingest import ParseError
    from .types import ConfigError, ScoreShapeMismatch

    try:
        getattr(commands, f"cmd_{args.command}")(args)
        return EXIT_OK
    except ParseError as e:
        _err(e)
        return EXIT_PARSE
    except ConfigError as e:
        _err(e)
        return EXIT_CONFIG
    except ScoreShapeMismatch as e:
        _err(e)
        return EXIT_REPLAY
    except commands.DocIdMismatch as e:
        _err(e)
        return EXIT_ALIGN
    except OSError as e:
        _err(e)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
