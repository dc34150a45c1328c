"""Golden stdout hashes for small CLI invocations of every subcommand.

The double-run tests only show that one build is deterministic; these
hashes pin the bytes across changes.  A change that moves a golden
updates its hash here and states in CHANGES.md the largest absolute
deviation of the moved numbers from the previous output.  The hashes
were recorded with CPython 3.11 and numpy 2.4; a different libm or numpy
build may move the last printed digit.
"""

import hashlib
import json

import numpy as np
import pytest

from phasorlab import cli

# the benchmark's many-ratio cavity sweep: 1000 ratios from 0.5 to 5
MANY_RATIOS = ",".join("%.6g" % x for x in np.geomspace(0.5, 5.0, 1000))

GOLDEN = [
    (["epr", "--theta1", "0:180:7", "--theta2=-30:60:4"],
     "327db05a2ad8cafe473b4dce677f6965b43a341dce33a439e0693433aedaa446"),
    (["epr", "--theta1", "10:80:5", "--theta2", "15", "--parity", "minus",
      "--convention", "difference", "--format", "json"],
     "edfc0f1438a1c6387818a0b8142272d25cd1139decfb2d35aad42a1111734b67"),
    (["epr", "--mode", "numeric", "--theta1", "0.3:90.3:6"],
     "670284332314bc3c2ee95ad02042e8f8cce113ea8794ccbd5f676737d9ea1244"),
    (["holo", "--channels", "1,2,3", "--detectors", "0,0.3", "--source", "2.3"],
     "ee4b2aa2d33a03af3a32d64d4882a3a1562ab3dd2d4787ba4df5b778e8b932a2"),
    (["holo", "--channels", "1,2,3", "--source", "2.3", "--format", "json"],
     "3ed6384a3a9abce8f5f13a7e7d17cafae97fe92b317b3698778445ab6da53cda"),
    (["cavity", "--hf-over-kt", "0.5,2", "--steps", "20000", "--burn-in", "2000",
      "--seed", "7"],
     "4686cbe4d6e15832cd744b9f8b6569d2b23725e361cafbf93c18f3ee4eeb3c98"),
    (["cavity", "--hf-over-kt", "1", "--steps", "20000", "--burn-in", "2000",
      "--seed", "7", "--format", "json"],
     "720584d73e7b40fa6bb43df5a4c5167619ac4b6a98e9d617c2a7a0eb96e5128c"),
    (["cavity", "--hf-over-kt", "1", "--steps", "20000", "--burn-in", "2000",
      "--seed", "18446744073709551615"],
     "004bdfe2deaa13671e2dbce6b1461a4767cfcb399a58b8c9a2fd298239dbd8e8"),
    (["evolve", "--coefficients", "1,0,1", "--initial", "1,0", "--step", "0.01",
      "--every", "10"],
     "f06b3ed836360cf6ab99d2bcfc8368f7630a9743562607e887567e34858f2747"),
    (["evolve", "--coefficients", "2,1+0.5j,1", "--initial", "1,0.5j",
      "--step", "0.001", "--every", "50", "--format", "json"],
     "fcfdc036a61ce5a634e92fcaf211358eaae2324da10225342c3230db8dfafcc6"),
    (["hj", "--points", "21"],
     "e5b39b88e9246de452d9cbc383df9da94b9f98cbb04d4f48c8e177d1de923e70"),
    (["hj", "--system", "linear", "--points", "21", "--format", "json"],
     "969580d33f55b07939b8e0cabcb898350aaeb62915b57dbb2013d85d544ad150"),
    # a default linear grid near the most points its span resolves (32,483), recorded
    # before hj refused the finer ones
    (["hj", "--system", "linear", "--points", "30001"],
     "290b10ed89cc29c698edda7fdbd36b89372202e21da63af9bacb8a4a4e88632a"),
    # the benchmark's epr-grid shape: 120 x 120 angles from non-integer starts, so most
    # E and P values repeat many times across the 14,400 rows
    (["epr", "--theta1", "0.318532:180.318532:120", "--theta2", "0.734019:180.734019:120"],
     "30f865ef2b38c80b0011db4c7b6a5fe1a52132a3f417555bdfe419d01db632c1"),
    (["epr", "--theta1", "0.318532:180.318532:120", "--theta2", "0.734019:180.734019:120",
      "--format", "json"],
     "ce6754aa5e26c7f1b579e70acc8ec290cfe9d3a7a1c6a925c6fb1f974453f271"),
    # the benchmark's two cavity shapes, and a burn-in that ends mid-chunk past two chunk edges
    (["cavity", "--hf-over-kt", "0.5,1,2,5", "--steps", "4000000", "--seed", "12345"],
     "0619e1bb2c4a0fa2fd602b648054cdc6f64577fe4a33966a0420cbd7bf426bd9"),
    (["cavity", "--hf-over-kt", MANY_RATIOS, "--steps", "20000", "--seed", "12345"],
     "8d54f18225d98904125c581b010ad2268d1e99ba351dc3045d83e9203f39683b"),
    (["cavity", "--hf-over-kt", "0.3,1", "--steps", "200000", "--burn-in", "131073",
      "--seed", "12345", "--format", "json"],
     "23de164856c5ebf98c0653ff6dfdb0975741c8d89b1b566d47c2bdc22a433c04"),
]


def argv_id(argv):
    return " ".join("<%d values>" % (a.count(",") + 1) if len(a) > 64 else a for a in argv)


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv_id(a) for a, _ in GOLDEN])
def test_golden_stdout(argv, digest, capsys):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


JSON_ARGVS = [argv for argv, _ in GOLDEN if "json" in argv] + [
    ["holo", "--channels", "1,2,3,5,8,13,21,34", "--detectors", "0,0.3,0.7",
     "--domain", "0:1000", "--format", "json"],
    ["holo", "--channels", "4", "--format", "json"],
    ["cavity", "--hf-over-kt", "800", "--steps", "1000", "--burn-in", "10", "--format", "json"],
]


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=[argv_id(a) for a in JSON_ARGVS])
def test_json_stdout_is_canonical(argv, capsys):
    # the JSON is written through row templates; it must read as json.dumps(indent=1)
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    canonical = json.dumps(json.loads(out), indent=1) + "\n"
    # compared line by line: pytest's diff of two long strings takes minutes
    assert out.split("\n") == canonical.split("\n")

