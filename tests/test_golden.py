"""Golden stdout hashes for small CLI invocations of every subcommand.

The double-run tests only show that one build is deterministic; these
hashes pin the bytes across changes.  A change that moves a golden
updates its hash here and states in CHANGES.md the largest absolute
deviation of the moved numbers from the previous output.  The hashes
were recorded with CPython 3.11, numpy 2.4 and scipy 1.17; a different
libm or numpy build may move the last printed digit.
"""

import hashlib

import pytest

from phasorlab import cli

GOLDEN = [
    (["epr", "--theta1", "0:180:7", "--theta2=-30:60:4"],
     "d848300656ca38ded61cab066145c3d76ebd06eb1b2126df3b4ff256723f89f9"),
    (["epr", "--theta1", "10:80:5", "--theta2", "15", "--parity", "minus",
      "--convention", "difference", "--format", "json"],
     "e95b7055d681e70e4eb10d2fd6a77a53e7e99c707d9c1f5de964255ec4e61221"),
    (["epr", "--mode", "numeric", "--theta1", "0.3:90.3:6"],
     "9c2fb0efcac95e0a1a9726e3dffa0548aaf7645148abf3d0ec201fab3fde9250"),
    (["holo", "--channels", "1,2,3", "--detectors", "0,0.3", "--source", "2.3"],
     "ee4b2aa2d33a03af3a32d64d4882a3a1562ab3dd2d4787ba4df5b778e8b932a2"),
    (["holo", "--channels", "1,2,3", "--source", "2.3", "--format", "json"],
     "3ed6384a3a9abce8f5f13a7e7d17cafae97fe92b317b3698778445ab6da53cda"),
    (["cavity", "--hf-over-kt", "0.5,2", "--steps", "20000", "--burn-in", "2000",
      "--seed", "7"],
     "9add49cd8bbbec068307d343a74211082ca7623008eeec8f40eb13f1a0540be6"),
    (["cavity", "--hf-over-kt", "1", "--steps", "20000", "--burn-in", "2000",
      "--seed", "7", "--format", "json"],
     "3a5cad3af2c671ef0c304fb98a36ed1f1710fdedd14e2ea405a5ea1ff1b05566"),
    (["cavity", "--hf-over-kt", "1", "--steps", "20000", "--burn-in", "2000",
      "--seed", "18446744073709551615"],
     "231c9d7cd8735e84a63140eef0c892aa1e012c6af0867baf35fa1c887ab721a1"),
    (["evolve", "--coefficients", "1,0,1", "--initial", "1,0", "--step", "0.01",
      "--every", "10"],
     "444d5deede69c3b77799bb75f21cf7ada19252b7e00b3acd22fbb4da9b1bbc04"),
    (["evolve", "--coefficients", "2,1+0.5j,1", "--initial", "1,0.5j",
      "--step", "0.001", "--every", "50", "--format", "json"],
     "7570c92b3ac96d5e6e33187bea46170cba8ccb11c17860777630110ed48bab1d"),
    (["hj", "--points", "21"],
     "e5b39b88e9246de452d9cbc383df9da94b9f98cbb04d4f48c8e177d1de923e70"),
    (["hj", "--system", "linear", "--points", "21", "--format", "json"],
     "44cbb0764fc8d2f381c213a66af18f663e1b80cd03713a582a460e4988491b8b"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(argv, digest, capsys):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
