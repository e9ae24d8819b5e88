"""--jobs: rejected below 1, capped at the CPU count, and invisible in the
report whether or not worker processes ran."""

import concurrent.futures

import pytest

from eqattn import cli

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
