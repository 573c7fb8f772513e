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
