"""The benchmark's workloads: seeded configs, the CLI runs, and the correctness gates.

Every workload is one ``reafuse`` subcommand run on a config generated from
the workload seed.  The config fields are frozen here (a copy of
``configs/default.json`` when the benchmark was defined) so that a later
change to the repository's sample configs cannot change what is measured.
The program receives only the generated config file.

Each gate takes the JSON report the CLI wrote (``--json``) and returns a list
of problems; an empty list means the run's verdicts can be trusted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

DEFAULT_CONFIG = {
    "seed": 20240814,
    "levels": 3,
    "kernel_channels": 8,
    "orientations": 4,
    "reduction": 2,
    "image_size": 32,
    "batch": 2,
    "variant": "ReAFFPN",
    "seeds": 20,
    "trials": 100,
    "reseeds": 3,
    "pass_threshold": 1e-10,
    "fail_threshold": 1e-2,
    "oracle_tolerance": 1e-12,
    "gradcheck_tolerance": 1e-6,
    "gradcheck_step": 1e-5,
}

VARIANTS = ("Baseline", "PlusSE", "PlusReCA", "PlusIAFF", "ReAFFPN")
EQUIVARIANT_VARIANTS = ("Baseline", "PlusReCA", "ReAFFPN")

# gradcheck samples at most this many coordinates per tensor (autograd.gradcheck's
# max_coords default); a run that evaluates fewer has done less work than asked.
GRADCHECK_MAX_COORDS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-default", "verify", {},
            "the paper's headline equivariance check: ~400 small pyramid forwards, "
            "no backward, per-op overhead and tape recording dominate",
        ),
        Workload(
            "gradcheck-default", "gradcheck", {},
            "the only workload that replays the tape: ~200k tiny conv2d calls, "
            "bound by Python per-op overhead, mostly under attention_logits",
        ),
        Workload(
            "demo-large", "demo", {"variant": "Baseline", "image_size": 128, "batch": 4},
            "one forward of 12 large convolutions (maps of 8 MB and more, no attention) "
            "and 22 MB of RAFT writes: kernel, memory and serialization bound",
        ),
    )
}


# Workloads that run by name but are left out of BENCHMARK.json, each with the
# reason.  List one again once the reason no longer holds.
UNLISTED = {
    "gradcheck-default":
        "reafuse gradcheck fails its own verdict on a few percent of config seeds "
        "(--seed 1285487409: the pyramid case reaches rel. error 9.0e-4 at the "
        "default step 1e-5, 1.8e-7 at 1e-6), so a seeded run cannot promise that "
        "no operation fails",
}


def config_seed(workload_seed: int) -> int:
    """The u64 config seed derived from the benchmark's ``--seed``."""
    digest = hashlib.blake2s(f"perfbench/{workload_seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def generate_config(workload: Workload, workload_seed: int) -> dict:
    """The config the program receives: the frozen defaults, the workload's
    overrides and a seed that follows ``workload_seed``."""
    return {**DEFAULT_CONFIG, **workload.overrides, "seed": config_seed(workload_seed)}


def level_shapes(config: dict) -> list[list[int]]:
    """Pyramid level shapes [B, K*N, S/2^l, S/2^l], finest first."""
    channels = config["kernel_channels"] * config["orientations"]
    size = config["image_size"]
    return [[config["batch"], channels, size >> l, size >> l] for l in range(config["levels"])]


def implied_gradcheck_coords(config: dict) -> int:
    """Finite-difference coordinates the gradcheck suite must evaluate.

    Mirrors the tensor sizes of the eleven cases in ``harness._gradcheck_cases``
    for this config's orientation count N and reduction r, each tensor capped
    at ``GRADCHECK_MAX_COORDS`` samples.  Checked plus kink-skipped
    coordinates in the report may exceed this, never fall below it.
    """
    n = config["orientations"]
    r = config["reduction"] or 1
    c = 2 * n  # two kernel channels per case

    def reca(k, reduced):  # w_a, w_b, bn_gamma, bn_beta
        return [n * reduced * k, n * k * reduced, reduced, reduced]

    def mlp(channels, reduced):  # w1, w2, bn_gamma, bn_beta
        return [reduced * channels, channels * reduced, reduced, reduced]

    x, rx = 2 * 3 * 5 * 5, 2 * c * 4 * 4
    group = [2 * 2 * n * 9, 2]
    pyramid_r = min(r, 2)
    cases = [
        [x, 4 * 3 * 9, 4],                                   # conv2d
        [x, 3, 3],                                           # batchnorm
        [x],                                                 # rot90/upsample/blockmean
        [x],                                                 # relu/sigmoid/pool
        [2 * 3 * 9, 2, x],                                   # lift_conv
        group + [rx],                                        # group_conv stride 2
        reca(2, 2) + [rx],                                   # reca_forward
        [n * c, c * n, rx],                                  # se_forward
        reca(2, 2) * 4 + [rx, rx],                           # reaff_forward
        mlp(c, c // 2) * 4 + [rx, rx],                       # plain_iaff_forward
        [2 * 3 * 9, 2] + group * 5 + [2 * 2 * n, 2] * 2      # pyramid: stem, 4 stage
        + reca(2, 2 // pyramid_r) * 4 + [2 * 3 * 8 * 8],     # convs, smooth, laterals,
    ]                                                        # ReAFF attention, image
    return sum(min(GRADCHECK_MAX_COORDS, size) for case in cases for size in case)


def _common_problems(report: dict, command: str, config: dict, exit_code: int) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("command") != command:
        problems.append(f"report is for command {report.get('command')!r}")
    if report.get("seed") != config["seed"]:
        problems.append(f"report seed {report.get('seed')} != config seed {config['seed']}")
    if report.get("non_finite") or report.get("inconclusive") or not report.get("passed"):
        problems.append("report is non-finite, inconclusive or not passed")
    verdicts = report.get("verdicts") or {}
    if not verdicts:
        problems.append("report has no verdicts")
    problems += [f"verdict failed: {name}" for name, ok in verdicts.items() if ok is not True]
    return problems


def check_verify(report: dict, config: dict, exit_code: int) -> tuple[list[str], int]:
    """Gate and verified units (residual comparisons) of one verify run."""
    problems = _common_problems(report, "verify", config, exit_code)
    results = report.get("results") or {}
    elements = config["orientations"] - 1
    units = 0
    for variant in VARIANTS:
        res = results.get(variant)
        if not res or not res.get("finite"):
            problems.append(f"{variant}: missing or non-finite result")
            continue
        if res.get("seeds") != config["seeds"]:
            problems.append(f"{variant}: {res.get('seeds')} seeds, expected {config['seeds']}")
        if variant in EQUIVARIANT_VARIANTS:
            if not res.get("worst", float("inf")) <= config["pass_threshold"]:
                problems.append(f"{variant}: worst residual {res.get('worst')} above pass_threshold")
        elif res.get("undemonstrated_seeds") != 0:
            problems.append(f"{variant}: undemonstrated_seeds {res.get('undemonstrated_seeds')}")
        units += (config["seeds"] + res.get("reseeds_used", 0)) * elements
    return problems, units


def check_gradcheck(report: dict, config: dict, exit_code: int) -> tuple[list[str], int]:
    """Gate and verified units (finite-difference coordinates) of one gradcheck run."""
    problems = _common_problems(report, "gradcheck", config, exit_code)
    results = (report.get("results") or {}).values()
    units = sum(r.get("checked_coords", 0) + r.get("skipped_kinks", 0) for r in results)
    implied = implied_gradcheck_coords(config)
    if units < implied:
        problems.append(f"{units} coordinates evaluated, config implies {implied}")
    return problems, units


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every artifact file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def check_demo(report: dict, config: dict, exit_code: int) -> tuple[list[str], int]:
    """Gate and verified units (pyramid levels written) of one demo run.

    Digest equality across runs is checked by the caller, which sees them all.
    """
    problems = _common_problems(report, "demo", config, exit_code)
    results = report.get("results") or {}
    want = level_shapes(config)
    if results.get("levels") != want:
        problems.append(f"level shapes {results.get('levels')} != {want}")
    want_files = [f"level{l}.raft" for l in range(config["levels"])] + ["manifest.json"]
    if results.get("files") != want_files:
        problems.append(f"files {results.get('files')} != {want_files}")
    return problems, config["levels"]


GATES = {"verify": check_verify, "gradcheck": check_gradcheck, "demo": check_demo}
