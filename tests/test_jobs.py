"""--jobs: rejected below 1, and otherwise never read: every command runs
in one process and prints what --jobs 1 prints."""

import os
import subprocess
import sys

import pytest

import eqattn
from eqattn.attn import forward
from eqattn.constructs import make
from eqattn.oracle import (FAILURE_LIST_CAP, precision_delta_spec,
                           promise_pairs, verify_exhaustive)

VERIFY = ("verify", "--construction", "fp-linear", "--t", "4", "--e", "3",
          "--format", "csv")


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(run_cli, value):
    code, out, err = run_cli(*VERIFY, "--jobs", value)
    assert code == 2 and out == ""
    assert "--jobs must be a positive integer" in err


CSV_1568 = ("construction,m,t,e,p,total,failures,seconds\n"
            "fp-linear,7,4,3,7,1568,0,0.000\n")


@pytest.mark.parametrize("argv,out", [
    (VERIFY, CSV_1568),
    (("sweep", "--construction", "fp-linear", "--t", "4", "--e", "3",
      "--format", "csv"), CSV_1568),
    (("quantize", "--construction", "fx-tight", "--ms", "7,9", "--formats",
      "native,native-1", "--count", "2000", "--seed", "1"),
     "construction,m,t,e,format,capacity,total,correct,accuracy,inf_count,"
     "seconds\n"
     "fx-tight,7,,,int4,8,2000,1019,0.509500,2000,0.000\n"
     "fx-tight,7,,,int3,6,2000,1019,0.509500,2000,0.000\n"
     "fx-tight,9,,,int5,10,2000,2000,1.000000,526,0.000\n"
     "fx-tight,9,,,int4,8,2000,1019,0.509500,2000,0.000\n"),
], ids=["verify", "sweep", "quantize"])
def test_two_jobs_print_the_bytes_of_one_and_start_no_process(argv, out):
    """Each run tallies more than 1,024 pairs one by one, enough that a
    pool would have split them; --jobs 2 prints what --jobs 1 prints and
    loads neither concurrent.futures nor multiprocessing."""
    src = os.path.dirname(os.path.dirname(eqattn.__file__))
    probe = ("import sys; from eqattn import cli; "
             "code = cli.main(sys.argv[1:]); "
             "print(' '.join(m for m in ('multiprocessing', "
             "'concurrent.futures') if m in sys.modules)); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=src)
    one, two = (subprocess.run([sys.executable, "-c", probe, *argv,
                                "--jobs", jobs], env=env, check=True,
                               capture_output=True, text=True).stdout
                for jobs in ("1", "2"))
    assert one == two == out + "\n"     # and no pool module: ""


def test_a_failing_run_lists_its_first_failures():
    """fp-linear (4, 4) one bit thin runs pair by pair and fails 92 of its
    13,920 pairs, 1,564 of them saturated; the report lists the first 32
    in enumeration order, sorted."""
    rep = verify_exhaustive("fp-linear", t=4, e=4, precision_delta=-1)
    assert (rep.total, rep.failure_count, rep.inf_count) == \
        (13920, 92, 1564)
    spec, promises = make("fp-linear", t=4, e=4)
    spec = precision_delta_spec(spec, -1)
    wrong = [(y, z) for y, z in promise_pairs(promises, spec.m)
             if forward(spec, y, z).bit != (y == z)]
    assert len(wrong) == 92
    assert [(f.y, f.z) for f in rep.failures] == \
        sorted(wrong[:FAILURE_LIST_CAP])
