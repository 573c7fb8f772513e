"""Every full-bound benchmark command prints its recorded output.

``perfbench/reference.json`` holds the sha256 of each command's stdout at
seed 1729.  The commands run here in-process, so output drift shows in
the test suite before the benchmark runs; the reference file is only
read.  The rational-Gram Sp11 document is written into ``tmp_path``
exactly as ``perfbench/run.py``'s ``prepare()`` writes it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tempiric import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
WORKLOADS = ("verify-ladder", "matrix-invert", "window-figure")


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert cli.main(list(argv)) == 0, argv
    return capsys.readouterr().out


def test_full_bound_commands_match_the_reference(capsys, tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert reference["seed"] == run.DEFAULT_SEED
    digests = reference["sha256"]

    def check(command, argv):
        out = _stdout(capsys, argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == digests[run.reference_key(command)], run.reference_key(command)
        return out

    document = json.loads(check(run.CATALOG_SP11, run.CATALOG_SP11))
    document["name"] = "Sp11-half-gram"
    document["gram"] = ["1/2", "0", "0", "1/2"]
    half_gram = tmp_path / "Sp11-half-gram.json"
    half_gram.write_text(json.dumps(document, indent=2) + "\n")
    for name in WORKLOADS:
        commands, _ = run.WORKLOADS[name]
        for command in commands:
            argv = [
                str(half_gram) if arg == run.HALF_GRAM_FILE else arg
                for arg in run.render(command, run.DEFAULT_SEED)
            ]
            check(command, argv)


# ck-matrix windows that perfbench/reference.json does not cover: Sp11 has
# equal-norm blocks and Blattner columns, which the benchmark's SL2R and
# SO31 windows lack.  Hashes recorded from the tree before the writer, the
# class sweep and the column index were rebuilt.
CK_MATRIX_PINS = {
    ("Sp11", "400", "json"): "fdc548f6fd1241860814b00aeaa1679367b4ee6417ae17361c8ab54c7b8d0a36",
    ("Sp11", "400", "csv"): "f20c587ffc460c0c365e3c2104b36b5c91c79eaac4c76bc28264885cdb272f98",
    ("Sp11-half-gram", "100", "json"): "143268df91dcade57fb96248611a785a06c12066981eca4d0c216e047733ddfb",
    ("Sp11-half-gram", "100", "csv"): "e7e9770693548ed8b049eedbd6ed951f14014d6a2c7e496047392e563ecdea06",
}


@pytest.mark.parametrize("group, bound, fmt", sorted(CK_MATRIX_PINS))
def test_ck_matrix_keeps_its_pinned_output(capsys, tmp_path, group, bound, fmt):
    if group == "Sp11":
        source = ["--group", "Sp11"]
    else:
        document = json.loads(_stdout(capsys, run.CATALOG_SP11))
        document["name"] = "Sp11-half-gram"
        document["gram"] = ["1/2", "0", "0", "1/2"]
        half_gram = tmp_path / "Sp11-half-gram.json"
        half_gram.write_text(json.dumps(document, indent=2) + "\n")
        source = ["--group-file", str(half_gram)]
    out = _stdout(capsys, ["ck-matrix", *source, "--bound", bound, "--format", fmt])
    assert hashlib.sha256(out.encode()).hexdigest() == CK_MATRIX_PINS[group, bound, fmt]


# tempiric-table windows far larger than the benchmark's: thousands of
# representatives, each sorted by its minimal K-type's row and printed with
# the norm it reads off its window.  Hashes recorded from the tree before
# the window's parts stopped validating its rows.
TEMPIRIC_TABLE_PINS = {
    ("SL2R", "1000000", "csv"): "2b8330e688997550ae0426b1d31b0378093df2c75cada8758bcef40523e7a0d8",
    ("SL2R", "1000000", "json"): "d6f79ae119088f20ff915a6db32f0f8731ce5f5c7ce05273ecf1ae61e722077c",
    ("SO31", "1000000", "csv"): "f50e263cad566e85010f0034c18aa198e59fa254e436d3f49e1eeea8d13d5491",
    ("SO31", "1000000", "json"): "4cf92562adc3c6ab0d203b77246c9fb65802f59585ec2c70830dc2551b1456c5",
    ("Sp11", "10000", "csv"): "614f040b6172d8222f58a88d967f920a51a98ffb9a91d5be47eaae215533c6d2",
    ("Sp11", "10000", "json"): "8ae60f34891c87368fe73af7d8be3e4d497eb2752171e996b4f7b8ca0445bccf",
}


@pytest.mark.parametrize("group, bound, fmt", sorted(TEMPIRIC_TABLE_PINS))
def test_tempiric_table_keeps_its_pinned_output(capsys, group, bound, fmt):
    argv = ["tempiric-table", "--group", group, "--bound", bound, "--format", fmt]
    out = _stdout(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == TEMPIRIC_TABLE_PINS[group, bound, fmt]
