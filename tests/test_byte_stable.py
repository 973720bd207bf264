"""The byte-stable output, pinned: sha256 digests of the stdout of sweeps, and
of ``analyze`` and ``generators`` (both kinds) on the samples. A change that
moves any byte of these reports fails here; a deliberate change of the output
records new digests."""

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
    ("verify-theorems", "--max-vertices", "7", "--checks", "thm3", "thm5", "vanishing", "--json"):
        "e6522491cbff7869ca4215b15edefaf1f4a06a056ad47d86d6ffddda7218d76f",
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
    ("generators", "broken_cone.cx", "--kind", "group"):
        "6bdba62f91e1f7e11061d714b748367ece6cbab7eb67f601cb25202d9366db65",
    ("generators", "broken_cone.cx", "--kind", "group", "--json"):
        "3874a732f64d1316c7e3f81ab4e6b5452b21be4ea957458ee03611fe7da7fbb6",
    ("generators", "broken_cone.cx", "--kind", "algebra"):
        "ad41590256ab0c7b1eb2fe27ba72cfdda29b582207d090904c7e20d674e7eff5",
    ("generators", "broken_cone.cx", "--kind", "algebra", "--json"):
        "063849c94aa42f987e7e9d8b83eb32304af62d6541c51edffb1ff461774e6558",
    ("generators", "c5.cx", "--kind", "group"):
        "2d6b7dc65a661aca82013b0978d9dd871b20dad0c5f1ccaab686714b3c297b23",
    ("generators", "c5.cx", "--kind", "group", "--json"):
        "917c72db520bf6d9fbcd852529f959c7fa7a5fc95892e3818fdde8ac97a7ab4f",
    ("generators", "c5.cx", "--kind", "algebra"):
        "9364855b5038ff808d11021d944f0ee6ea90d9646f77961ca358068ec966f958",
    ("generators", "c5.cx", "--kind", "algebra", "--json"):
        "292f3889b6149696dc86c16a1920fc3630476620cda553d50fdfb89041e948b1",
    ("generators", "square_cone.cx", "--kind", "group"):
        "6bdba62f91e1f7e11061d714b748367ece6cbab7eb67f601cb25202d9366db65",
    ("generators", "square_cone.cx", "--kind", "group", "--json"):
        "3874a732f64d1316c7e3f81ab4e6b5452b21be4ea957458ee03611fe7da7fbb6",
    ("generators", "square_cone.cx", "--kind", "algebra"):
        "ad41590256ab0c7b1eb2fe27ba72cfdda29b582207d090904c7e20d674e7eff5",
    ("generators", "square_cone.cx", "--kind", "algebra", "--json"):
        "063849c94aa42f987e7e9d8b83eb32304af62d6541c51edffb1ff461774e6558",
    ("generators", "square_partial_cone.cx", "--kind", "group"):
        "35d50f48a94594032a9875725f1fd19da46f61026bd0d72a26ded2f24318109c",
    ("generators", "square_partial_cone.cx", "--kind", "group", "--json"):
        "09ffbbe4ffdec5d5fce23fbc5a658113ff01a29e89b69116a8e322754f31d90b",
    ("generators", "square_partial_cone.cx", "--kind", "algebra"):
        "b5b93c07165ca5259fb8677cfe2668ff6bd0e77e099e56a10d46116a835c13e6",
    ("generators", "square_partial_cone.cx", "--kind", "algebra", "--json"):
        "6fb7bd0ddd6aa39f179f58099302b7898a4cdcdb612ea228a1329e85a5f3f515",
}


def test_every_sample_is_pinned():
    samples = {path.name for path in SAMPLES.glob("*.cx")}
    assert {argv[1] for argv in DIGESTS if argv[0] == "analyze"} == samples
    for kind in ("group", "algebra"):
        for json_flag in ((), ("--json",)):
            pinned = {argv[1] for argv in DIGESTS
                      if argv[0] == "generators" and argv[2:] == ("--kind", kind, *json_flag)}
            assert pinned == samples


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=" ".join)
def test_output_digest(capsys, argv):
    assert cli.main([str(SAMPLES / a) if a.endswith(".cx") else a for a in argv]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DIGESTS[argv]
