"""Command-line front-end: ``reafuse verify|oracle|gradcheck|demo``.

Every subcommand takes ``--config <path>`` (JSON, schema in
``harness.HarnessConfig``; a commented sample lives in the README) and
optionally ``--seed <u64>`` to override the config seed and ``--json <path>``
to write the full report.  ``demo`` alone takes ``--out <dir>``, and requires it.

Exit codes: 0 pass, 1 definite failure, 2 invalid config, usage or unusable
paths, 3 non-finite values encountered, 4 breakage demonstration inconclusive.

``main``, the installed ``reafuse`` script and ``python -m reafuse``, first
sets a fixed glibc allocator policy (``_set_allocator_policy``);
``entrypoint`` and ``import reafuse`` leave the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    Report,
    load_config,
    run_demo,
    run_gradcheck,
    run_oracle,
    run_verify,
)

__all__ = ["build_parser", "entrypoint", "main"]

_COMMANDS = {
    "verify": "equivariance matrix over all pyramid variants",
    "oracle": "fast implementations against straight-line references",
    "gradcheck": "recorded gradients against central finite differences",
    "demo": "build one pyramid and serialize its levels",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reafuse",
        description="verification harness for rotation-equivariant attentional fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, metavar="<path>",
                         help="JSON config file")
        cmd.add_argument("--seed", type=int, metavar="<u64>",
                         help="override the config seed")
        cmd.add_argument("--json", metavar="<path>",
                         help="write the full JSON report here")
        if name == "demo":
            cmd.add_argument("--out", required=True, metavar="<dir>",
                             help="output directory")
    return parser


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.command == "demo":
            report = run_demo(config, args.out)
        elif args.command == "verify":
            report = run_verify(config)
        elif args.command == "oracle":
            report = run_oracle(config)
        else:
            report = run_gradcheck(config)
        _emit(report, args.json)
        return report.exit_code
    except (ConfigError, OSError) as exc:
        print(f"reafuse: error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"reafuse: error: non-finite values: {exc}", file=sys.stderr)
        return 3


def _emit(report: Report, json_path) -> None:
    for line in report.summary_lines():
        print(line)
    if json_path:
        Path(json_path).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {json_path}")


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_allocator_policy() -> None:
    """Give map-sized buffers back to the OS as soon as they are freed.

    A buffer of 4 MiB or more (where numpy starts to advise huge pages) gets
    its own mapping and is unmapped when freed; smaller ones come from the
    heap, which keeps up to 64 MiB free instead of trimming it and faulting
    it back in.  Setting both thresholds also turns off glibc's dynamic mmap
    threshold, which otherwise rises to the size of the largest buffer freed
    so far and sends later maps to a heap that fragments and never shrinks.
    A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 4 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)


def main() -> None:
    _set_allocator_policy()
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
