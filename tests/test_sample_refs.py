"""Byte identity of ``sample`` outputs against the SHA-256 values pinned in ``bench/refs.json``.

The README promises that a ``sample`` batch reproduces byte for byte per
seed.  Each ``sample`` template of the pinned references is run in process
for seeds 0 and 1 and the hash of its ``--out`` file compared.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bellvar.cli import main

REFS = json.loads((Path(__file__).parents[1] / "bench" / "refs.json").read_text(encoding="utf-8"))
TEMPLATES = [t for t in REFS if t.startswith("sample ")]


def test_refs_pin_sample_templates():
    assert len(TEMPLATES) >= 3


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.rpartition("/")[2])
def test_sample_output_matches_pinned_sha256(tmp_path, capsys, template, seed):
    argv = [arg.format(seed=seed, out=tmp_path) for arg in template.split()]
    assert main(argv) == 0
    capsys.readouterr()
    out_path = Path(argv[argv.index("--out") + 1])
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == REFS[template][seed]
