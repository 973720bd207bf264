"""The byte-stable output, pinned: sha256 digests of the stdout of sweeps and
of ``analyze`` on the samples. A change that moves any byte of these reports
fails here; a deliberate change of the output records new digests."""

import hashlib
from pathlib import Path

import pytest

from macx import cli

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

DIGESTS = {
    ("verify-theorems", "--max-vertices", "6", "--json"):
        "935a68b9efbec1ba46f969f684c8690f2d73175252bd28251fb999ba36969238",
    ("verify-theorems", "--max-vertices", "6", "--checks", "flagmng", "chordal_free", "--json"):
        "d0a82148907316a9a6a0ba7d8fdecf93b99cb321b274a2c37d51709777331290",
    ("verify-theorems", "--max-vertices", "6", "--iso-dedup", "--json"):
        "0d520013888948bfcba6dbc131e60ca6a6d37479b0d0c67a98af9241e4603ce0",
    ("analyze", "broken_cone.cx", "--json"):
        "6a409b34a73dfe5cb822eda3022c1ef320cbabcf6784e9ca1c16784013ffde45",
    ("analyze", "broken_cone.cx"):
        "2729045c30f36ea05f74834a7c966d5fe82aa2098cf32def97d6f53b63a129aa",
    ("analyze", "c5.cx", "--json"):
        "0da30e11acca6849afcaeeed4dd25267d00ee07f61c9c5ce7a0854305869a21e",
    ("analyze", "c5.cx"):
        "ad58621bd08defd93b8219b8c91fc49bcdf0307bb57b435d21d01ab6701f7c57",
    ("analyze", "square_cone.cx", "--json"):
        "93d726dc33429d35ba9234b299d4dd7a70d7c6b222eb4cf7f521751babd9509f",
    ("analyze", "square_cone.cx"):
        "873a7fcdd829fdf50d92baa32852d68b91d6c8853a658c171646a56532b4bc22",
    ("analyze", "square_partial_cone.cx", "--json"):
        "d05d08fca6b221d4bc243da6618a24c7f5a4e3d1bdc25ca20bbe8f7364b46f1e",
    ("analyze", "square_partial_cone.cx"):
        "1b7cc7545be9da085bd9608c3ccb864a1256544b7ecf5e310a930852f98edf73",
}


def test_every_sample_is_pinned():
    pinned = {argv[1] for argv in DIGESTS if argv[0] == "analyze"}
    assert pinned == {path.name for path in SAMPLES.glob("*.cx")}


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_output_digest(capsys, argv):
    assert cli.main([str(SAMPLES / a) if a.endswith(".cx") else a for a in argv]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DIGESTS[argv]
