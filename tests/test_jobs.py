"""--jobs: rejected below 1, capped at the CPU count, and invisible in the
report whether or not worker processes ran."""

import concurrent.futures

import pytest

from eqattn import cli
from eqattn.oracle import FAILURE_LIST_CAP, verify_exhaustive

VERIFY = ("verify", "--construction", "fp-linear", "--t", "4", "--e", "3",
          "--format", "csv")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(run_cli, value):
    code, out, err = run_cli(*VERIFY, "--jobs", value)
    assert code == 2 and out == ""
    assert "--jobs must be a positive integer" in err


@pytest.mark.parametrize("value", ["0", "-1", "many"])
def test_jobs_from_the_environment_is_checked_too(run_cli, monkeypatch,
                                                  value):
    monkeypatch.setenv("EQATTN_JOBS", value)
    code, out, err = run_cli(*VERIFY)
    assert code == 2 and out == ""
    assert "EQATTN_JOBS must be a positive integer" in err


def test_jobs_is_capped_at_the_cpu_count(run_cli, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    code, capped, _ = run_cli(*VERIFY, "--jobs", "64")
    assert code == 0
    assert _RecordingPool.sizes == [2]
    monkeypatch.setenv("EQATTN_JOBS", "9")
    assert run_cli(*VERIFY)[1] == capped
    assert _RecordingPool.sizes == [2, 2]
    assert run_cli(*VERIFY, "--jobs", "1")[1] == capped
    assert _RecordingPool.sizes == [2, 2]


def test_two_workers_write_the_same_csv_as_one(run_cli, monkeypatch):
    """Workers receive pickled specs, which leave the compiled cells
    behind, and build their own."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code1, one, _ = run_cli(*VERIFY, "--jobs", "1")
    code2, two, _ = run_cli(*VERIFY, "--jobs", "2")
    assert code1 == code2 == 0
    assert one == two == "construction,m,t,e,p,total,failures,seconds\n" \
        "fp-linear,7,4,3,7,1568,0,0.000\n"


def test_two_workers_merge_a_failing_run_as_one():
    """fp-linear (4, 4) one bit thin runs pair by pair and fails 92 of its
    13,920 pairs: 29 in the first half and 63 in the second.  The chunks'
    tallies merge in order, so two workers list the same first 32 failures
    (29 from one chunk and 3 from the other) as one."""
    one, two = (verify_exhaustive("fp-linear", t=4, e=4, precision_delta=-1,
                                  jobs=jobs) for jobs in (1, 2))
    assert (one.total, one.failure_count, one.inf_count) == \
        (two.total, two.failure_count, two.inf_count) == (13920, 92, 1564)
    assert len(one.failures) == FAILURE_LIST_CAP
    assert [(f.y, f.z, f.digest) for f in one.failures] == \
        [(f.y, f.z, f.digest) for f in two.failures]


def test_two_workers_score_a_sampled_quantize_as_one(run_cli, monkeypatch):
    """Sampled quantize scores its dataset through the verifier's tally,
    so --jobs reaches it and changes no byte of the table."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ("quantize", "--construction", "fx-tight", "--ms", "7,9",
            "--formats", "native,native-1", "--count", "2000", "--seed", "1")
    code1, one, _ = run_cli(*argv, "--jobs", "1")
    code2, two, _ = run_cli(*argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert one == two
    assert len(one.splitlines()) == 5
