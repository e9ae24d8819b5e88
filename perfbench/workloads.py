"""The benchmark's workloads: which `eqattn` CLI commands each one runs, the
verdicts each command must reproduce, and the forward-call identity its
traced run must satisfy.

Correctness gate.  Every command has a pinned exit code.  Its stdout is
timing-free (CSV reports zero their seconds column; protocol listings carry
no times), so it is also pinned by sha256: always for commands whose output
does not depend on the seed, and at DEFAULT_SEED for sampled ones.  At every
seed each command is also checked on its verdicts: exhaustive totals and
failure counts, zero failures on passing subjects, every protocol transcript
agreeing with the forward pass at the pinned bit cost (2p for softmax heads),
and the shape and totals of quantization tables.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# The seed the pinned digests of sampled commands were taken at.
DEFAULT_SEED = 1

# Constants of the factored verifier the forward-call identity rests on:
# a passing exhaustive run spot-checks 64 random pairs with a direct forward
# pass; a failing one re-evaluates each listed failure, at most 32.
SPOT_CHECKS = 64
FAILURE_LIST_CAP = 32


class Command(NamedTuple):
    argv: tuple       # eqattn CLI arguments; --seed and --jobs 1 are appended
    seeded: bool      # whether stdout depends on --seed
    exit_code: int    # pinned exit code (1 is a verified failure: the cliff)
    sha256: str       # stdout digest (at DEFAULT_SEED when seeded)
    verdict: tuple    # (kind, *expected), checked at every seed


class Workload(NamedTuple):
    name: str
    commands: tuple


def _verify(subject, exit_code, sha256, verdict, extra=()):
    """A `verify` command; verdict is ("exhaustive", total, failures) or
    ("sampled", samples)."""
    return Command(("verify", "--construction", *subject, *extra,
                    "--format", "csv"),
                   verdict[0] == "sampled", exit_code, sha256, verdict)


def _protocol(subject, count, cost, sha256):
    return Command(("protocol", "--construction", *subject,
                    "--count", str(count)), True, 0, sha256,
                   ("protocol", count, cost))


def _quantize(subject, formats, rows, every_pair_admissible, sha256):
    """A `quantize` command over a 256-pair dataset; fx-tight admits every
    dataset pair, fp-softmax drops those its promise set rejects."""
    return Command(("quantize", "--construction", *subject,
                    "--formats", formats, "--count", "256",
                    "--format", "csv"), True, 0, sha256,
                   ("quantize", rows, 256, every_pair_admissible))


FP47 = ("fp-softmax", "--t", "4", "--e", "7")
CLIFF = ("--precision-delta", "-1")
FX_FORMATS = "native,native-1,native-2,int8,fp8_e4m3"
FP_FORMATS = "native,native-1,fp16,int8"

# Why each workload was chosen: README.md and BENCHMARK.json.
FULL = (
    Workload("factored", (
        _verify(("fx-tight", "--m", "13"), 0,
                "5f4a5e06b78862f0ec548503f511440a"
                "462cf01840d03610f982b4fbd2501f00",
                ("exhaustive", 33_558_528, 0)),
        _verify(("fx-tight", "--m", "11"), 1,
                "0d3e8daba1a564f2b1ab881791eeedda"
                "971dfbd5d1f35c4a542607122ce2605b",
                ("exhaustive", 2_098_176, 946_635), CLIFF),
    )),
    Workload("direct", (
        _verify(("fp-linear", "--t", "4", "--e", "4"), 0,
                "6478592e8dc487369058b5bed5a9c626"
                "57d91bc537a516649632bc6be4235af8",
                ("exhaustive", 13_920, 0)),
        _verify(FP47, 0,
                "ce1036f205e8e32686a18cbac7c897a1"
                "88e36e0570c1f47b1f57797ab7111d69",
                ("sampled", 1000), ("--samples", "1000")),
    )),
    Workload("protocol", (
        _protocol(("fx-tight", "--m", "9"), 3000, 10,
                  "ccf2237aeed802f3abdb8c04d45235f2"
                  "4e9b9c22147c0386132550712a78aa49"),
        _protocol(FP47, 500, 22,
                  "451323dbdbdf0ea0063fa0f7872cb2c5"
                  "ceebae22a480df92b1306bd711fac8de"),
    )),
    Workload("quantize", (
        _quantize(("fx-tight", "--ms", "7,9,11,13"), FX_FORMATS, 20, True,
                  "642b85dd13e71daeb66c89020068d6b9"
                  "d5e8b5cb4ee93ec768c62e56c1959bba"),
        _quantize(FP47, FP_FORMATS, 4, False,
                  "d1f007baf856835e63d40011218ffe9b"
                  "b0ea05e34bece1a7070f6a3da855e035"),
    )),
)

# The same four paths at toy sizes, for the benchmark's self-check.
SMOKE = (
    Workload("factored", (
        _verify(("fx-tight", "--m", "7"), 0,
                "a26b2daa9f0d6d2b79e864142b7f2dd0"
                "c0827283ea2941fee6d4adaef773fcc2",
                ("exhaustive", 8256, 0)),
        _verify(("fx-tight", "--m", "5"), 1,
                "a02d109ff75c5bc2972eb794cd88e4ea"
                "e0750cddbb6455666bd992249c5e4852",
                ("exhaustive", 528, 249), CLIFF),
    )),
    Workload("direct", (
        _verify(("fp-linear", "--t", "4", "--e", "3"), 0,
                "80bd86b343dff1559e1dedfd8565caf7"
                "22d086c938161d5a6a0027138e51b75b",
                ("exhaustive", 1568, 0)),
    )),
    Workload("protocol", (
        _protocol(("fx-tight", "--m", "5"), 64, 6,
                  "c5088ba8f13ae043dde9017ff5528566"
                  "1114c955203e263ad3174b380eeff5ad"),
    )),
    Workload("quantize", (
        _quantize(("fx-tight", "--m", "7"), FX_FORMATS, 5, True,
                  "c8a2f87e6df4bf0b38b269bf7d1044db"
                  "03a8954f00e7fa0ec97b42884f3edad5"),
    )),
)

PROFILES = {"full": FULL, "smoke": SMOKE}
NAMES = tuple(wl.name for wl in FULL)


def get(profile: str, name: str) -> Workload:
    (wl,) = [wl for wl in PROFILES[profile] if wl.name == name]
    return wl


def _csv_rows(text: str) -> list[dict]:
    head, *lines = text.strip().splitlines()
    return [dict(zip(head.split(","), ln.split(","))) for ln in lines]


_AGREE = re.compile(r"(\d+)/(\d+) transcripts agree with the forward pass; "
                    r"bit cost ([\d,]*) \(expected (\d+)\)")


def _check_verify(cmd, stdout):
    kind, *want = cmd.verdict
    (row,) = _csv_rows(stdout)
    total, failures = int(row["total"]), int(row["failures"])
    problems = []
    if kind == "exhaustive" and [total, failures] != want:
        problems.append(f"{total} pairs, {failures} failures; "
                        f"expected {want[0]}, {want[1]}")
    if kind == "sampled" and (total < want[0] or failures):
        problems.append(f"{total} pairs, {failures} failures; "
                        f"expected >= {want[0]} pairs and no failure")
    if (failures == 0) != (cmd.exit_code == 0):
        problems.append(f"{failures} failures under pinned exit "
                        f"{cmd.exit_code}")
    return total, failures, problems


def _check_protocol(cmd, stdout):
    _, count, cost = cmd.verdict
    hit = _AGREE.fullmatch(stdout.strip().splitlines()[-1])
    agree, total = int(hit[1]), int(hit[2])
    problems = []
    if not agree == total == count:
        problems.append(f"{agree}/{total} transcripts agree; "
                        f"expected {count}/{count}")
    if hit[3] != str(cost) or hit[4] != str(cost):
        problems.append(f"bit cost {hit[3]} (expected {hit[4]}); "
                        f"pinned {cost}")
    return total, 0, problems


def _check_quantize(cmd, stdout):
    _, nrows, count, every_pair_admissible = cmd.verdict
    rows = _csv_rows(stdout)
    problems = []
    if len(rows) != nrows:
        problems.append(f"{len(rows)} rows, expected {nrows}")
    totals = {}
    for r in rows:
        total, correct, inf = (int(r[k]) for k in
                               ("total", "correct", "inf_count"))
        totals.setdefault(r["m"], set()).add(total)
        if not (0 < total and 0 <= correct <= total and 0 <= inf <= total
                and r["accuracy"] == f"{correct / total:.6f}"):
            problems.append(f"inconsistent row {r}")
    for m, seen in totals.items():
        total = max(seen)
        if len(seen) > 1 or total > count or \
                (every_pair_admissible and total != count):
            problems.append(f"m={m}: per-format totals {sorted(seen)} "
                            f"for a {count}-pair dataset")
    return sum(int(r["total"]) for r in rows), 0, problems


_CHECKS = {"exhaustive": _check_verify, "sampled": _check_verify,
           "protocol": _check_protocol, "quantize": _check_quantize}


def check_verdict(cmd: Command, stdout: str) -> tuple[int, int, list[str]]:
    """(pairs decided, failures, problems) for one command's stdout.

    Pairs are what the report says it decided: verified pairs, protocol
    transcripts or scored dataset pairs.
    """
    try:
        return _CHECKS[cmd.verdict[0]](cmd, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, 0, [f"unreadable {cmd.argv[0]} report: {exc!r}"]


def expected_forward_calls(wl: Workload, verdicts) -> int:
    """attn.forward calls the commands must make, from their (pairs,
    failures) verdicts.  The factored verifier runs forward only for its
    spot checks and listed failures (96 on the full profile); every other
    path runs one forward pass per decided pair or transcript."""
    if wl.name != "factored":
        return sum(pairs for pairs, _ in verdicts)
    return sum(SPOT_CHECKS if failures == 0
               else min(failures, FAILURE_LIST_CAP)
               for _, failures in verdicts)
