"""End-to-end command line tests.

Most cases drive ``main(argv)`` in process (fast, capsys-friendly).  The
checks that only a fresh process can make start ``python -m bellvar.cli``
children: the module entry point, the chained cap under a 1 GiB address
space, BLAS threads, output bytes under two string hash seeds, and
``wait4`` peak RSS, measured through a launcher that holds no numpy.
"""

import argparse
import dataclasses
import functools
import json
import os
import re
import resource
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bellvar
from bellvar.avdecomp import DegenerateSpreadError, av_decompose, reconstruction_residual
from bellvar.bounds import (
    _report_document,
    chained_report,
    chsh_report,
    mk_report,
    pearson_chsh_report,
    report_to_json_dict,
    saturation_check,
)
from bellvar.linalg import haar_random_ket
from bellvar.cli import _COMMANDS, _build_parser, main
from bellvar.montecarlo import estimate, simulate_rounds
from bellvar.presets import preset
from bellvar.scenarios import (
    chained_family,
    chsh_family,
    from_bloch_table,
    mk_family,
    random_scenario,
    scenario_to_json_dict,
    uniform_bloch,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


@pytest.fixture()
def scenario_file(tmp_path):
    scen = from_bloch_table(
        [
            [[INV_SQRT2, 0, INV_SQRT2], [-INV_SQRT2, 0, INV_SQRT2]],
            [[0, 0, 1], [1, 0, 0]],
        ]
    )
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(scenario_to_json_dict(scen, chsh_family())), encoding="utf-8"
    )
    return path


# Every subcommand's stdout table, whole: argv (SCENARIO is the scenario_file
# fixture) -> the exact text printed.
_TABLES = {
    "report-chsh": (
        ["report", "--preset", "chsh-optimal"],
        """\
family             chsh (n=2)
bell_value          2.82842712475
local_part          0
nonlocal_amount     2.82842712475
rms_a               1.41421356237
rms_b               1.41421356237
bound_statistical   2.82842712475
bound_tsirelson     2.82842712475
bound_lhv           2
slack              -4.4408920985e-16
saturation         perp_alignment=True, ratio_condition=True, anticommutator_zero=True, \
operator_relation=True, overlap_orthogonal=True
pearson r_chsh      2.82842712475
pearson bound       2.82842712475
""",
    ),
    "report-chained": (
        ["report", "--preset", "chained-n", "--n", "4"],
        """\
family                   chained (n=4)
bell_value                7.39103626009
local_part                0
nonlocal_amount           7.39103626009
rms_a                     2
rms_b                     2
bound_statistical         7.39103626009
bound_tsirelson           7.39103626009
bound_lhv                 6
slack                     0
bound_statistical_loose   8
cos_lambda                0.707106781187  0.707106781187  0.707106781187  0.707106781187
""",
    ),
    "report-mk": (
        ["report", "--preset", "mk-ghz", "--n", "3"],
        """\
family             mk (n=3)
bell_value          8
local_part          0
nonlocal_amount     8
rms_a               1.41421356237
rms_b               4
bound_statistical   8
bound_tsirelson     8
bound_lhv           4
slack               0
""",
    ),
    "scan": (
        ["scan", "--family", "chsh", "--samples", "100"],
        """\
family      chsh (n=2)
samples     100
seed        0
min_slack    0.649869213266
mean_slack   2.20721613607
violations  0
""",
    ),
    "scan-empty": (
        ["scan", "--family", "chsh", "--samples", "0"],
        """\
family      chsh (n=2)
samples     0
seed        0
min_slack   undefined
mean_slack  undefined
violations  0
""",
    ),
    "sample-chsh": (
        ["sample", "--preset", "chsh-optimal", "--rounds", "10000"],
        """\
family           chsh (n=2)
rounds           10000
seed             0
bell_value_hat    2.88517106464  (se 2.771e-02)
rms_hats          1.41419903192  1.41412745334
empirical_check  pass  margin  0.0817463064647  z 5.0
""",
    ),
    "sample-mk": (
        ["sample", "--preset", "mk-ghz", "--n", "3", "--rounds", "10000"],
        """\
family          mk (n=3)
rounds          10000
seed            0
bell_value_hat   8  (se 0.000e+00)
rms_hats         1.4141451903  1.41415196868  1.41402766862
""",
    ),
    "lhv": (
        ["lhv", "--family", "chsh"],
        """\
family   chsh (n=2)
lhv_max   2
""",
    ),
    "decompose": (
        ["decompose", "--scenario", "SCENARIO"],
        """\
party 0 setting 0  mean  0  spread  1  residual 0.00e+00
party 0 setting 1  mean  0  spread  1  residual 0.00e+00
party 1 setting 0  mean  0  spread  1  residual 0.00e+00
party 1 setting 1  mean  0  spread  1  residual 0.00e+00
""",
    ),
}


@pytest.mark.parametrize("case", list(_TABLES))
def test_stdout_table_is_pinned(capsys, scenario_file, case):
    argv, want = _TABLES[case]
    assert main([str(scenario_file) if a == "SCENARIO" else a for a in argv]) == 0
    assert capsys.readouterr().out == want


def test_optimize_stdout_rows(capsys):
    # iteration counts move with the search, so only labels and formats are pinned
    assert main(["optimize", "--family", "mk", "--n", "3", "--seeds", "2", "--seed", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family  mk (n=3)"
    for seed, line in zip((4, 5), lines[1:3], strict=True):
        assert re.fullmatch(rf"seed {seed}  value  8  iters \d+  converged True", line)
    assert re.fullmatch(r"best    seed 4  value  8", lines[3])
    assert len(lines) == 4


def test_optimize_best_is_the_first_seed_within_the_convergence_step(monkeypatch, tmp_path):
    # 8 - 1e-11 is further below the top than CONVERGENCE_EPS * 8; 8 - 4e-15 is last-bit noise
    from bellvar import optimize

    values = {3: 8.0 - 1e-11, 4: 8.0 - 4e-15, 5: 8.0}
    real = optimize.seesaw_max

    def seesaw_max(family, seed, max_iters):
        return dataclasses.replace(real(family, seed, max_iters), value=values[seed])

    monkeypatch.setattr(optimize, "seesaw_max", seesaw_max)
    out = tmp_path / "o.json"
    argv = ["optimize", "--family", "mk", "--n", "3", "--seed", "3", "--seeds", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    best = json.loads(out.read_text(encoding="utf-8"))["best"]
    assert (best["seed"], best["value"]) == (4, values[4])


# subcommand argv -> the top-level keys of its --out JSON
_JSON_KEYS = {
    "report-chsh": (
        ["report", "--preset", "chsh-optimal"],
        {"saturation", "pearson", "report", "scenario", "tolerances"},
    ),
    "report-chained": (
        ["report", "--preset", "chained-n", "--n", "3"],
        {"cos_lambda", "report", "scenario", "tolerances"},
    ),
    "report-mk": (["report", "--preset", "mk-ghz", "--n", "3"], {"report", "scenario", "tolerances"}),
    "decompose": (["decompose", "--scenario", "SCENARIO"], {"scenario", "state", "decompositions"}),
    "optimize": (["optimize", "--family", "chsh"], {"family", "runs", "best"}),
    "scan": (
        ["scan", "--family", "chsh", "--samples", "10"],
        {"family", "n_samples", "min_slack", "mean_slack", "violations", "seed"},
    ),
    "sample-chsh": (
        ["sample", "--preset", "chsh-optimal", "--rounds", "2000"],
        {"family", "rounds", "seed", "counts", "estimates", "empirical_check"},
    ),
    "sample-mk": (
        ["sample", "--preset", "mk-ghz", "--n", "3", "--rounds", "2000"],
        {"family", "rounds", "seed", "counts", "estimates"},
    ),
    "lhv": (["lhv", "--family", "chsh"], {"family", "lhv_max"}),
}


@pytest.mark.parametrize("case", list(_JSON_KEYS))
def test_json_top_level_keys(tmp_path, capsys, scenario_file, case):
    argv, keys = _JSON_KEYS[case]
    out_path = tmp_path / "out.json"
    argv = [str(scenario_file) if a == "SCENARIO" else a for a in argv]
    assert main([*argv, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert set(json.loads(out_path.read_text(encoding="utf-8"))) == {"schema_version", *keys}


# every subcommand and --format: argv without --out, and the --format it takes (None: JSON only)
_OUT_CASES = {
    "decompose": (["decompose", "--scenario", "SCENARIO"], None),
    "report-json": (["report", "--preset", "chsh-optimal"], "json"),
    "report-csv": (["report", "--preset", "chsh-optimal"], "csv"),
    "optimize": (["optimize", "--family", "chsh"], None),
    "scan-json": (["scan", "--family", "chsh", "--samples", "300"], "json"),
    "scan-csv": (["scan", "--family", "chsh", "--samples", "300"], "csv"),
    "sample-json": (["sample", "--preset", "chsh-optimal", "--rounds", "2000"], "json"),
    "sample-csv": (["sample", "--preset", "chsh-optimal", "--rounds", "2000"], "csv"),
    "lhv": (["lhv", "--family", "chsh"], None),
}


def _out_argv(case, scenario_file, out_path) -> list[str]:
    argv, fmt = _OUT_CASES[case]
    argv = [str(scenario_file) if a == "SCENARIO" else a for a in argv]
    return [*argv, *(["--format", fmt] if fmt else []), "--out", str(out_path)]


@pytest.mark.parametrize("case", list(_OUT_CASES))
def test_unopenable_out_exits_2_before_any_table(tmp_path, capsys, scenario_file, case):
    # the file is written before the table is printed, so a path that cannot be opened
    # leaves stdout empty
    out_path = tmp_path / "missing" / "out"
    assert main(_out_argv(case, scenario_file, out_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err
    assert not out_path.parent.exists()


@pytest.mark.parametrize("case", list(_OUT_CASES))
def test_table_is_the_same_with_and_without_out(tmp_path, capsys, scenario_file, case):
    argv, _ = _OUT_CASES[case]
    assert main([str(scenario_file) if a == "SCENARIO" else a for a in argv]) == 0
    alone = capsys.readouterr().out
    out_path = tmp_path / "out"
    assert main(_out_argv(case, scenario_file, out_path)) == 0
    assert capsys.readouterr().out == alone
    assert out_path.stat().st_size > 0


def test_report_preset_stdout(capsys):
    assert main(["report", "--preset", "chsh-optimal"]) == 0
    out = capsys.readouterr().out
    assert "bell_value" in out
    assert "2.82842712475" in out
    assert "perp_alignment=True" in out
    assert "pearson r_chsh" in out


def test_report_writes_canonical_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["report", "--preset", "chsh-optimal", "--out", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["schema_version"] == 1
    assert doc["report"]["bell_value"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
    assert abs(doc["report"]["slack"]) <= 1e-10
    assert doc["saturation"]["overlap_orthogonal"] is True
    assert doc["tolerances"] == {"slack_floor": -1e-9, "saturation_atol": 1e-8}
    # the file is canonical: re-serializing reproduces it byte for byte
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


def test_report_pearson_block_matches_library(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    assert main(["report", "--preset", "chsh-optimal", "--out", str(out_path)]) == 0
    block = json.loads(out_path.read_text(encoding="utf-8"))["pearson"]
    assert set(block) == {"r_values", "r_chsh", "cos_lambda_b", "bound_geometric"}
    chosen = preset("chsh-optimal")
    want = pearson_chsh_report(chosen.scenario, chosen.state)
    assert block["r_values"] == [list(row) for row in want.r_values]
    assert block["r_chsh"] == want.r_chsh
    assert block["cos_lambda_b"] == want.cos_lambda_b
    assert block["bound_geometric"] == want.bound_geometric


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "chsh-optimal"],
        ["--preset", "chained-n", "--n", "4"],
        ["--preset", "mk-ghz", "--n", "5"],
    ],
    ids=["chsh", "chained", "mk"],
)
def test_report_runs_the_kernel_once(capsys, monkeypatch, argv):
    kernel = bellvar.bounds._columns
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(bellvar.bounds, "_columns", counted)
    assert main(["report", *argv]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pinned=st.sampled_from([(), (0,), (1,), (0, 1)]))
@example(seed=0, pinned=(0, 1))
def test_report_document_reads_as_the_public_chsh_functions(seed, pinned):
    rng = np.random.default_rng(seed)
    table = [[uniform_bloch(rng) for _ in range(2)] for _ in range(2)]
    psi = haar_random_ket(4, rng)
    if pinned:
        # each pinned party measures z in setting 0, and |00> gives that setting zero spread
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        for p in pinned:
            table[p][0] = [0.0, 0.0, 1.0]
    scen = from_bloch_table(table)
    doc = _report_document(chsh_family(), scen, psi)
    assert doc["report"] == report_to_json_dict(chsh_report(scen, psi))
    assert doc["saturation"] == dataclasses.asdict(saturation_check(scen, psi))
    try:
        want = dataclasses.asdict(pearson_chsh_report(scen, psi))
    except DegenerateSpreadError:
        want = None
    assert doc["pearson"] == want
    assert (want is None) == bool(pinned)


@pytest.mark.parametrize(
    "family",
    [chained_family(n) for n in range(2, 6)]
    + [mk_family(n, k) for n in range(2, 6) for k in range(1, n)],
    ids=lambda f: f"{f.name}-n{f.n}-k{f.split_k}",
)
def test_report_document_reads_as_the_family_reports(family):
    rng = np.random.default_rng(family.n * 10 + family.split_k)
    for _ in range(5):
        scen = random_scenario(family, rng)
        psi = haar_random_ket(2**scen.n_parties, rng)
        doc = _report_document(family, scen, psi)
        if family.name == "chained":
            report, geometry = chained_report(family.n, scen, psi)
            assert doc["cos_lambda"] == list(geometry.cos_lambda)
        else:
            report = mk_report(family.n, scen, psi, split_k=family.split_k)
            assert "cos_lambda" not in doc
        assert doc["report"] == report_to_json_dict(report)
        assert "saturation" not in doc and "pearson" not in doc


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "chsh-optimal"],
        ["--preset", "chained-n", "--n", "4"],
        ["--preset", "mk-ghz", "--n", "5"],
        ["--scenario", "SCENARIO", "--state", "0.3,0.1,-0.5,0.7"],
    ],
    ids=["chsh", "chained", "mk", "chsh-file"],
)
def test_report_csv_cells_are_plain_values(tmp_path, capsys, scenario_file, argv):
    argv = [str(scenario_file) if a == "SCENARIO" else a for a in argv]
    out_path = tmp_path / "report.csv"
    assert main(["report", *argv, "--format", "csv", "--out", str(out_path)]) == 0
    capsys.readouterr()
    comment, header, row, *rest = out_path.read_text(encoding="utf-8").splitlines()
    assert rest == []
    for key, cell in zip(header.split(","), row.split(","), strict=True):
        float(cell)


def test_report_chained_preset(tmp_path, capsys):
    out_path = tmp_path / "chained.json"
    code = main(
        ["report", "--preset", "chained-n", "--n", "4", "--out", str(out_path)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "tsirelson note" not in stdout
    assert "cos_lambda" in stdout
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(doc["cos_lambda"]) == 4
    assert "bound_statistical_loose" in doc["report"]
    assert "bound_tsirelson_note" not in doc["report"]
    assert "tsirelson_is_reference" not in doc["report"]
    budget = doc["report"]["local_part"] + doc["report"]["bound_statistical"]
    assert budget == pytest.approx(doc["report"]["bound_tsirelson"], abs=1e-9)
    want = 8.0 * np.cos(np.pi / 8.0)
    assert doc["report"]["bell_value"] == pytest.approx(want, abs=1e-9)


def test_report_from_scenario_file(scenario_file, capsys):
    assert main(["report", "--scenario", str(scenario_file), "--state", "bell"]) == 0
    out = capsys.readouterr().out
    assert "2.82842712475" in out


def test_report_inline_state_amplitudes(scenario_file, capsys):
    # unnormalized amplitudes are accepted and normalized
    code = main(
        ["report", "--scenario", str(scenario_file), "--state", "1,0,0,1"]
    )
    assert code == 0
    assert "2.82842712475" in capsys.readouterr().out


def test_report_csv_output(scenario_file, tmp_path):
    out_path = tmp_path / "report.csv"
    code = main(
        [
            "report",
            "--scenario",
            str(scenario_file),
            "--format",
            "csv",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "# schema_version: 1"
    header = lines[1].split(",")
    assert "bell_value" in header and "slack" in header
    values = lines[2].split(",")
    assert len(values) == len(header)


def test_report_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["report", "--scenario", str(bad)]) == 2
    assert "malformed scenario file" in capsys.readouterr().err


def test_report_rejects_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["report", "--scenario", str(missing)]) == 2
    assert "cannot read scenario file" in capsys.readouterr().err


def test_report_needs_preset_or_scenario(capsys):
    assert main(["report"]) == 2
    assert "either --preset or --scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--preset", "mk-ghz", "--n", "4", "--split-k", "2"],
        ["report", "--preset", "chsh-optimal", "--family", "mk"],
        ["report", "--preset", "chsh-optimal", "--family", "chsh"],
        ["sample", "--preset", "mk-ghz", "--split-k", "2", "--rounds", "100"],
        ["sample", "--preset", "chsh-optimal", "--family", "mk", "--rounds", "100"],
        ["report", "--preset", "chsh-optimal", "--scenario", "missing.json"],
        ["report", "--preset", "chsh-optimal", "--state", "ghz"],
        ["report", "--preset", "chsh-optimal", "--state", "bell"],
        ["report", "--preset", "mk-ghz", "--n", "3", "--state", "zero"],
        ["sample", "--preset", "chsh-optimal", "--rounds", "100", "--state", "zero"],
    ],
    ids=[
        "report-split",
        "report-family",
        "report-same-family",
        "sample-split",
        "sample-family",
        "report-scenario",
        "report-state",
        "report-same-state",
        "report-mk-state",
        "sample-state",
    ],
)
def test_preset_takes_no_family_split_or_scenario(tmp_path, capsys, argv):
    # a preset fixes its family, split, scenario and state; a second one would be dropped unread
    out_path = tmp_path / "out.json"
    assert main(argv + ["--out", str(out_path)]) == 2
    assert "--preset fixes the instance" in capsys.readouterr().err
    assert not out_path.exists()
    assert main(["report", "--preset", "mk-ghz", "--n", "4", "--split-k", "1"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["report", "sample", "decompose"])
def test_state_defaults_to_bell(capsys, scenario_file, command):
    extra = ["--rounds", "100"] if command == "sample" else []
    argv = [command, "--scenario", str(scenario_file), *extra]
    assert main(argv) == 0
    implicit = capsys.readouterr().out
    assert main([*argv, "--state", "bell"]) == 0
    assert capsys.readouterr().out == implicit
    assert main([command, "--help"]) == 0
    assert "(default: bell)" in capsys.readouterr().out


def test_explicit_split_k_one_must_match_an_mk_scenario_file(tmp_path, capsys):
    # --split-k 1 given is not --split-k left out: the file's split 2 would win unread
    rng = np.random.default_rng(4)
    path = tmp_path / "mk4.json"
    doc = scenario_to_json_dict(random_scenario(mk_family(4, 2), rng), mk_family(4, 2))
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = ["report", "--scenario", str(path), "--state", "ghz", "--split-k", "1"]
    assert main([*argv, "--out", str(out_path)]) == 2
    assert "--split-k 1 disagrees with the scenario file's split_k 2" in capsys.readouterr().err
    assert not out_path.exists()


def test_preset_takes_no_split_k_it_would_drop(tmp_path, capsys):
    # chsh has no block split, so the preset would drop even --split-k 1 unread
    out_path = tmp_path / "out.json"
    argv = ["report", "--preset", "chsh-optimal", "--split-k", "1", "--out", str(out_path)]
    assert main(argv) == 2
    assert "--preset fixes the instance" in capsys.readouterr().err
    assert not out_path.exists()
    # only mk reads a split, so an explicit 1 for a chsh or chained family is refused too
    assert main(["lhv", "--family", "chsh", "--split-k", "1"]) == 2
    assert main(["lhv", "--family", "chained", "--n", "4", "--split-k", "1"]) == 2
    assert capsys.readouterr().err.count("--split-k applies to mk only") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["lhv", "--family", "chained", "--n", "4", "--split-k", "3"],
        ["optimize", "--family", "chsh", "--split-k", "2", "--max-iters", "3"],
        ["scan", "--family", "chained", "--n", "4", "--split-k", "2", "--samples", "5"],
        ["report", "--scenario", "scenario.json", "--split-k", "2"],
        ["report", "--scenario", "scenario.json", "--family", "chained", "--n", "2", "--split-k", "2"],
    ],
    ids=["lhv", "optimize", "scan", "report-file-family", "report-given-family"],
)
def test_split_k_only_for_mk(tmp_path, capsys, scenario_file, argv):
    # chsh and chained have no block split: the value would be dropped unread
    out_path = tmp_path / "out.json"
    argv = [str(scenario_file) if a == "scenario.json" else a for a in argv]
    assert main(argv + ["--out", str(out_path)]) == 2
    assert "--split-k applies to mk only" in capsys.readouterr().err
    assert not out_path.exists()


def test_split_k_must_match_an_mk_scenario_file(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = tmp_path / "mk4.json"
    doc = scenario_to_json_dict(random_scenario(mk_family(4, 2), rng), mk_family(4, 2))
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["report", "--scenario", str(path), "--state", "ghz"]
    assert main(argv) == 0
    from_file = capsys.readouterr().out
    assert main([*argv, "--split-k", "2"]) == 0
    assert capsys.readouterr().out == from_file
    out_path = tmp_path / "out.json"
    assert main([*argv, "--split-k", "3", "--out", str(out_path)]) == 2
    assert "disagrees with the scenario file's split_k 2" in capsys.readouterr().err
    assert not out_path.exists()


# every subcommand on a valid instance: an empty --out would write nothing, unread
_EMPTY_OUT = {
    "decompose": ["decompose", "--scenario", "scenario.json"],
    "report": ["report", "--preset", "chsh-optimal", "--format", "csv"],
    "optimize": ["optimize", "--family", "chsh", "--max-iters", "3"],
    "scan": ["scan", "--family", "chsh", "--samples", "3"],
    "sample": ["sample", "--preset", "chsh-optimal", "--rounds", "100"],
    "lhv": ["lhv", "--family", "chsh"],
}


@pytest.mark.parametrize(
    "argv, error",
    [
        (["decompose"], "the following arguments are required: --scenario"),
        (["report", "--scenario", "scenario.json", "--n", "4"], "--n is read only with --family"),
        (
            ["sample", "--scenario", "scenario.json", "--rounds", "100", "--n", "3"],
            "--n is read only with --family",
        ),
        (["report", "--preset", "chsh-optimal", "--seed", "5"], "unrecognized arguments: --seed"),
        (["decompose", "--scenario", "scenario.json", "--seed", "5"], "unrecognized arguments: --seed"),
        (["lhv", "--family", "chsh", "--seed", "3"], "unrecognized arguments: --seed"),
        *(([*argv, "--out", ""], "--out needs a file path") for argv in _EMPTY_OUT.values()),
    ],
    ids=[
        *("decompose-no-scenario", "report-n", "sample-n", "report-seed", "decompose-seed"),
        *("lhv-seed", *(f"{command}-empty-out" for command in _EMPTY_OUT)),
    ],
)
def test_argument_the_instance_does_not_read_exits_two(tmp_path, capsys, scenario_file, argv, error):
    # --out goes right after the subcommand, so that an --out in argv wins
    out_path = tmp_path / "out.json"
    argv = [str(scenario_file) if a == "scenario.json" else a for a in argv]
    assert main([argv[0], "--out", str(out_path), *argv[1:]]) == 2
    assert error in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--preset", "chsh-optimal"],
        ["scan", "--family", "chsh", "--samples", "3"],
        ["sample", "--preset", "chsh-optimal", "--rounds", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_without_out_exits_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--format", "csv"]) == 2
    assert "--format applies only with --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# argv whose arguments alone show a conflict, naming an instance that a domain check
# would refuse with exit 3: the argument's refusal comes first
_REFUSED_BEFORE_THE_INSTANCE = {
    "preset-state": (
        ["report", "--preset", "mk-ghz", "--n", "99", "--state", "bell"],
        "--preset fixes the instance",
    ),
    "preset-family": (
        ["report", "--preset", "chained-n", "--n", "1", "--family", "chsh"],
        "--preset fixes the instance",
    ),
    "split-chained": (
        ["scan", "--family", "chained", "--n", "1", "--split-k", "2", "--samples", "3"],
        "--split-k applies to mk only",
    ),
    "split-chsh": (
        ["scan", "--family", "chsh", "--n", "7", "--split-k", "2", "--samples", "3"],
        "--split-k applies to mk only",
    ),
    "format": (
        ["report", "--preset", "chsh-optimal", "--n", "3", "--format", "csv"],
        "--format applies only with --out",
    ),
    "empty-out": (
        ["report", "--preset", "mk-ghz", "--n", "99", "--out="],
        "--out needs a file path",
    ),
}


@pytest.mark.parametrize(
    "argv, error",
    list(_REFUSED_BEFORE_THE_INSTANCE.values()),
    ids=list(_REFUSED_BEFORE_THE_INSTANCE),
)
def test_argument_conflict_is_refused_before_the_instance_is_built(
    tmp_path, capsys, monkeypatch, argv, error
):
    monkeypatch.chdir(tmp_path)
    # an --out added where it leaves the conflict standing must not be written either
    runs = [argv] if "--format" in argv or "--out=" in argv else [argv, [*argv, "--out", "o.json"]]
    for run in runs:
        assert main(run) == 2
        captured = capsys.readouterr()
        assert error in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, error",
    [
        (["report", "--preset", "chsh-optimal", "--state", "bell"], "--preset fixes the instance"),
        (["report", "--scenario", "missing.json", "--n", "3"], "--n is read only with --family"),
    ],
    ids=["preset-state", "scenario-n"],
)
def test_a_refusal_builds_no_preset_and_reads_no_file(capsys, monkeypatch, argv, error):
    def no_work(*args, **kwargs):
        raise AssertionError("an argument is refused before any work starts")

    monkeypatch.setattr("bellvar.presets.preset", no_work)
    monkeypatch.setattr("bellvar.cli.load_scenario_file", no_work)
    assert main(argv) == 2
    assert error in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["lhv"], ["optimize"], ["scan", "--samples", "3"]],
    ids=lambda argv: argv[0],
)
def test_chsh_takes_n_only_as_two(tmp_path, capsys, argv):
    out_path = tmp_path / "out.json"
    assert main(argv + ["--family", "chsh", "--n", "7", "--out", str(out_path)]) == 3
    assert "chsh is a 2-setting family" in capsys.readouterr().err
    assert not out_path.exists()
    assert main(argv + ["--family", "chsh", "--n", "2", "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text(encoding="utf-8"))["family"]["n"] == 2
    capsys.readouterr()


def test_report_bad_state_spec(scenario_file, capsys):
    assert main(["report", "--scenario", str(scenario_file), "--state", "a,b"]) == 2
    assert (
        main(["report", "--scenario", str(scenario_file), "--state", "1,0,0"]) == 2
    )
    assert (
        main(["report", "--scenario", str(scenario_file), "--state", "0,0,0,0"]) == 2
    )
    capsys.readouterr()


def _with_commands(values):
    """``(command, value)`` cases for both state-reading subcommands; report keeps the bare id."""
    return [pytest.param("report", v, id=str(v)) for v in values] + [
        pytest.param("decompose", v, id=f"decompose-{v}") for v in values
    ]


@pytest.mark.parametrize("command, bad", _with_commands(["nan", "inf", "-inf", "file"]))
def test_report_rejects_nonfinite_state(scenario_file, tmp_path, capsys, command, bad):
    out_path = tmp_path / "report.json"
    if bad == "file":
        state = tmp_path / "state.json"
        state.write_text(json.dumps([[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]]))
    else:
        state = f"1,{bad},0,0"
    argv = [command, "--scenario", str(scenario_file), "--state", str(state)]
    assert main(argv + ["--out", str(out_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e308])
@pytest.mark.parametrize("command, entry", _with_commands(["bloch", "matrix"]))
def test_report_rejects_nonfinite_scenario_file(tmp_path, capsys, bad, command, entry):
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    if entry == "bloch":
        doc["parties"][1]["observables"][0]["bloch"][2] = bad
    else:
        doc["parties"][1]["observables"][0] = {"matrix": [[[bad, 0], [0, 0]], [[0, 0], [-1, 0]]]}
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "report.json"
    argv = [command, "--scenario", str(scenario_path), "--out", str(out_path)]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["report", "decompose"])
def test_scenario_file_with_a_two_component_bloch_exits_2(tmp_path, capsys, command):
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    doc["parties"][1]["observables"][0]["bloch"] = [0.6, 0.8]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--scenario", str(scenario_path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: Bloch vector must have 3 components, got shape (2,)\n")


def test_report_state_file(scenario_file, tmp_path, capsys):
    state_path = tmp_path / "state.json"
    state_path.write_text(
        json.dumps([[INV_SQRT2, 0.0], [0.0, 0.0], [0.0, 0.0], [INV_SQRT2, 0.0]]),
        encoding="utf-8",
    )
    code = main(
        ["report", "--scenario", str(scenario_file), "--state", str(state_path)]
    )
    assert code == 0
    assert "2.82842712475" in capsys.readouterr().out
    broken = tmp_path / "broken_state.json"
    broken.write_text("[[1, 2", encoding="utf-8")
    assert (
        main(["report", "--scenario", str(scenario_file), "--state", str(broken)]) == 2
    )
    capsys.readouterr()


def test_decompose_table_and_json(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "dec.json"
    code = main(
        [
            "decompose",
            "--scenario",
            str(scenario_file),
            "--state",
            "bell",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "party 0 setting 0" in out
    assert "party 1 setting 1" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["schema_version"] == 1
    assert len(doc["decompositions"]) == 4
    for entry in doc["decompositions"]:
        assert entry["reconstruction_residual"] <= 1e-10
        assert not entry["degenerate"]
        assert len(entry["perp"]) == 4


def test_decompose_marks_degenerate_rows(scenario_file, capsys):
    assert main(["decompose", "--scenario", str(scenario_file), "--state", "zero"]) == 0
    out = capsys.readouterr().out
    assert "(degenerate)" in out  # B0 = sigma_z is sharp on |00>


# (family in the file, command line flags, exit code) for a table of two
# parties with three settings each: --family wins over the file's family
_FAMILY_FIT = {
    "file-chained4": ({"name": "chained", "n": 4}, [], 3),
    "flag-chained4": (None, ["--family", "chained", "--n", "4"], 3),
    "flag-over-file": ({"name": "chained", "n": 4}, ["--family", "chained", "--n", "3"], 0),
}


@pytest.mark.parametrize("command, case", _with_commands(list(_FAMILY_FIT)))
def test_scenario_must_fit_resolved_family(tmp_path, capsys, command, case):
    declared, flags, code = _FAMILY_FIT[case]
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]] * 2))
    if declared is not None:
        doc["family"] = declared
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [command, "--scenario", str(scenario_path), "--state", "bell", *flags]
    assert main(argv + ["--out", str(out_path)]) == code
    err = capsys.readouterr().err
    if code:
        assert "scenario shape (3, 3) does not match family chained (expected (4, 4))" in err
        assert not out_path.exists()
    else:
        assert out_path.exists()


def _lifted_decompositions(scenario, state):
    """Reference: each observable lifted to the joint space with kron, split by av_decompose."""
    n = scenario.n_parties
    out = []
    for p, row in enumerate(scenario.observables):
        for s, op in enumerate(row):
            lifted = functools.reduce(np.kron, [np.eye(2**p), op, np.eye(2 ** (n - 1 - p))])
            dec = av_decompose(lifted, state)
            out.append(
                {
                    "party": p,
                    "setting": s,
                    "mean": dec.mean,
                    "spread": dec.spread,
                    "degenerate": dec.degenerate,
                    "perp": dec.perp,
                    "reconstruction_residual": reconstruction_residual(lifted, state, dec),
                }
            )
    return out


@pytest.mark.parametrize("state_kind", ["haar", "zero"])
@pytest.mark.parametrize("n_parties", [1, 2, 3, 5])
def test_decompose_matches_lifted_reference(tmp_path, capsys, n_parties, state_kind):
    rng = np.random.default_rng(n_parties)
    # sigma_z first, so |0...0> has a degenerate row for every party; 2 or 3 settings a party
    table = [[[0, 0, 1]] + [uniform_bloch(rng) for _ in range(1 + p % 2)] for p in range(n_parties)]
    scen = from_bloch_table(table)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_json_dict(scen)), encoding="utf-8")
    state = "zero"
    if state_kind == "haar":
        ket = haar_random_ket(2**n_parties, rng)
        state = tmp_path / "state.json"
        state.write_text(json.dumps([[a.real, a.imag] for a in ket]), encoding="utf-8")
    out_path = tmp_path / "dec.json"
    argv = ["decompose", "--scenario", str(scenario_path), "--state", str(state)]
    assert main(argv + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    psi = np.array([complex(re, im) for re, im in doc["state"]])
    want = _lifted_decompositions(scen, psi)
    assert len(doc["decompositions"]) == len(want)
    assert any(e["degenerate"] for e in want) == (state_kind == "zero")
    for got, ref in zip(doc["decompositions"], want):
        assert set(got) == set(ref)
        for key in ("party", "setting", "degenerate"):
            assert got[key] == ref[key]
        for key in ("mean", "spread", "reconstruction_residual"):
            assert abs(got[key] - ref[key]) <= 1e-12
        if ref["perp"] is None:
            assert got["perp"] is None
        else:
            perp = np.array([complex(re, im) for re, im in got["perp"]])
            assert np.max(np.abs(perp - ref["perp"])) <= 1e-12


def test_optimize_multi_seed(tmp_path, capsys):
    out_path = tmp_path / "opt.json"
    code = main(
        [
            "optimize",
            "--family",
            "chsh",
            "--seeds",
            "2",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "seed 0" in out and "seed 1" in out and "best" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(doc["runs"]) == 2
    assert doc["best"]["value"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-7)
    assert doc["best"]["scenario"]["schema_version"] == 1
    hist = doc["best"]["history"]
    assert all(b - a >= -1e-12 for a, b in zip(hist, hist[1:]))


def test_optimize_requires_family_and_n(capsys):
    assert main(["optimize"]) == 2
    assert main(["optimize", "--family", "chained"]) == 2
    err = capsys.readouterr().err
    assert "--family is required" in err or "--n is required" in err


def test_scan_summary_and_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--family",
            "chsh",
            "--samples",
            "40",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "violations" in out
    assert "min_slack" in out
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "# schema_version: 1"
    assert lines[1].startswith("index,bell_value")
    assert len(lines) == 42
    slack_col = lines[1].split(",").index("slack")
    for line in lines[2:]:
        assert float(line.split(",")[slack_col]) >= -1e-9


def test_scan_requires_samples(capsys):
    assert main(["scan", "--family", "chsh"]) == 2
    capsys.readouterr()


def test_scan_csv_is_written_a_chunk_at_a_time(tmp_path, capsys):
    for n in (2**14, 2**15):
        peaks = {}
        for fmt in ("json", "json", "csv"):  # the first run fills first-call caches
            argv = ["scan", "--family", "chsh", "--samples", str(n), "--format", fmt]
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(tmp_path / f"scan.{fmt}")]) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        from bellvar._kernel import _SCAN_CHUNK

        lines = (tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == n + 2
        chunk = _SCAN_CHUNK // 4
        pass_text = max(sum(map(len, lines[lo : lo + chunk])) for lo in range(2, n + 2, chunk))
        # Streamed a kernel pass at a time, the CSV run peaks about 65 KiB (2**14
        # samples) and 110 KiB (2**15) above the JSON run, both keeping the slack
        # column whole; one pass's text is about 30 KiB.  Kept whole, the six
        # float64 columns and one 2**9-row chunk of Python values cost 0.6 MiB at
        # 2**14 samples, and one 2**14-row chunk about 11 MiB.
        # Bound: one pass's text plus 8 bytes per instance.
        extra = peaks["csv"] - peaks["json"]
        assert extra < pass_text + 8 * n, f"{n}: CSV run peaks {extra / 2**10:.1f} KiB more"


def _scan_csv_reference(family, n_samples, seed) -> str:
    """The scan CSV formatted one row at a time, every cell by ``repr``, from the columns of
    the scan's kernel passes."""
    from bellvar._kernel import _COLUMNS, _scan_passes

    lines = ["# schema_version: 1", ",".join(["index", *_COLUMNS])]
    for start, cols in _scan_passes(family, n_samples, seed):
        for i in range(len(cols["slack"])):
            cells = (repr(float(cols[name][i])) for name in _COLUMNS)
            lines.append(",".join([repr(start + i), *cells]))
    assert len(lines) == n_samples + 2
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "family, family_argv",
    [
        (chsh_family(), ["--family", "chsh"]),
        (chained_family(5), ["--family", "chained", "--n", "5"]),
        (chained_family(40), ["--family", "chained", "--n", "40"]),
        (mk_family(4), ["--family", "mk", "--n", "4"]),
        (mk_family(6, split_k=3), ["--family", "mk", "--n", "6", "--split-k", "3"]),
    ],
    ids=["chsh", "chained5", "chained40", "mk4", "mk6-k3"],
)
def test_scan_csv_matches_one_pass_reference(tmp_path, capsys, family, family_argv):
    from bellvar._kernel import _SCAN_CHUNK, _SCAN_CORRELATORS

    # sample counts on both sides of a kernel-pass boundary, and across three
    settings = family.settings_per_party[0]
    chunk = max(1, min(_SCAN_CHUNK // 2**family.n_parties, _SCAN_CORRELATORS // settings**2))
    for seed, n in enumerate((chunk - 1, chunk, chunk + 1, 3 * chunk + 5)):
        argv = ["scan", *family_argv, "--samples", str(n), "--seed", str(seed)]
        assert main([*argv, "--format", "csv", "--out", str(tmp_path / "scan.csv")]) == 0
        csv_table = capsys.readouterr().out
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "scan.json")]) == 0
        # the table printed after the CSV, whose rows filled its document, is the JSON run's
        assert csv_table == capsys.readouterr().out
        text = (tmp_path / "scan.csv").read_text(encoding="utf-8")
        assert text == _scan_csv_reference(family, n, seed)


def _nan_slack_columns(columns, last_pass=None):
    """``_columns`` with every other slack NaN, in every pass or only in pass ``last_pass``."""
    calls = []

    def patched(family, stacks, states):
        cols = columns(family, stacks, states)
        calls.append(len(states))
        if last_pass in (None, len(calls)):
            cols["slack"][1::2] = np.nan
        return cols

    return patched


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_non_finite_slack_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, fmt):
    import bellvar._kernel

    columns = bellvar._kernel._columns
    # NaN slacks in the one pass of 5 samples, then only in the last of three passes
    # (256 + 256 + 5 chsh instances), after the CSV rows of two passes were written
    for samples, last_pass, message in (("5", None, "2 of 5"), ("517", 3, "2 of 517")):
        monkeypatch.setattr(bellvar._kernel, "_columns", _nan_slack_columns(columns, last_pass))
        out_path = tmp_path / f"scan.{fmt}"
        argv = ["scan", "--family", "chsh", "--samples", samples, "--format", fmt]
        assert main([*argv, "--out", str(out_path)]) == 3
        captured = capsys.readouterr()
        assert f"{message} scan slacks are not finite" in captured.err
        assert captured.out == ""
        assert not out_path.exists()


# a chsh scan of 517 samples runs three kernel passes; NaN slacks in the last one fail its
# summary after every row was written
_FAILING_SCAN = ["scan", "--family", "chsh", "--samples", "517", "--format", "csv"]


def test_failed_csv_through_a_symlink_removes_the_target_only(tmp_path, capsys, monkeypatch):
    import bellvar._kernel

    columns = bellvar._kernel._columns
    monkeypatch.setattr(bellvar._kernel, "_columns", _nan_slack_columns(columns, last_pass=3))
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target)
    assert main([*_FAILING_SCAN, "--out", str(link)]) == 3
    assert "2 of 517 scan slacks are not finite" in capsys.readouterr().err
    # the partial rows go with the target; the link is left, dangling
    assert not target.exists()
    assert link.is_symlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_failed_csv_into_a_fifo_leaves_the_fifo(tmp_path, capsys, monkeypatch):
    import bellvar._kernel

    columns = bellvar._kernel._columns
    monkeypatch.setattr(bellvar._kernel, "_columns", _nan_slack_columns(columns, last_pass=3))
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    read = []
    # opening a FIFO to write blocks until a reader opens it
    reader = threading.Thread(target=lambda: read.append(fifo.read_text(encoding="utf-8")))
    reader.start()
    try:
        code = main([*_FAILING_SCAN, "--out", str(fifo)])
    finally:
        reader.join(timeout=60)
    assert code == 3
    assert "2 of 517 scan slacks are not finite" in capsys.readouterr().err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # the reader saw the header and every row before the failure
    assert read[0].count("\n") == 2 + 517


def test_interrupt_mid_csv_removes_the_file_and_propagates(tmp_path, capsys, monkeypatch):
    import bellvar._kernel

    columns = bellvar._kernel._columns
    out_path = tmp_path / "scan.csv"
    calls, written = [], []

    def interrupted(family, stacks, states):
        calls.append(len(states))
        if len(calls) < 2:
            return columns(family, stacks, states)
        # second pass: the first pass's rows are in the file
        written.append(out_path.stat().st_size)
        raise KeyboardInterrupt

    monkeypatch.setattr(bellvar._kernel, "_columns", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*_FAILING_SCAN, "--out", str(out_path)])
    assert capsys.readouterr().out == ""
    assert written[0] > 0
    assert not out_path.exists()


def test_json_output_rejects_non_finite_values(tmp_path, capsys, monkeypatch):
    import bellvar.bounds

    to_json = bellvar.bounds.report_to_json_dict

    def inf_bell_value(report):
        return {**to_json(report), "bell_value": float("inf")}

    monkeypatch.setattr(bellvar.bounds, "report_to_json_dict", inf_bell_value)
    out_path = tmp_path / "report.json"
    assert main(["report", "--preset", "chsh-optimal", "--out", str(out_path)]) == 3
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out_path.exists()


def test_sample_json_document(tmp_path, capsys):
    out_path = tmp_path / "sample.json"
    code = main(
        [
            "sample",
            "--preset",
            "chsh-optimal",
            "--rounds",
            "20000",
            "--seed",
            "3",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "empirical_check" in out and "pass" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert np.asarray(doc["counts"]).shape == (4, 4)
    assert int(np.asarray(doc["counts"]).sum()) == 20000
    assert doc["empirical_check"]["passed"] is True
    assert doc["estimates"]["schema_version"] == 1
    # the document mirrors the library calculation exactly
    p = preset("chsh-optimal")
    est = estimate(
        simulate_rounds(p.family, p.scenario, p.state, rounds=20000, seed=3)
    )
    assert doc["estimates"]["bell_value_hat"] == est.bell_value_hat


def test_sample_csv_matches_library(tmp_path, capsys):
    out_path = tmp_path / "rounds.csv"
    code = main(
        [
            "sample",
            "--preset",
            "chsh-optimal",
            "--rounds",
            "100",
            "--seed",
            "8",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 102
    assert lines[1] == "round,setting_0,setting_1,outcome_0,outcome_1"


def test_sample_undersampled_is_domain_error(capsys):
    assert main(["sample", "--preset", "chsh-optimal", "--rounds", "2"]) == 3
    assert "observed" in capsys.readouterr().err


def test_sample_more_than_256_settings(capsys):
    # a party's settings no longer fit one byte; 200000 rounds over 257**2
    # combinations still leave some combination undersampled
    p = preset("chained-n", 257)
    batch = simulate_rounds(p.family, p.scenario, p.state, rounds=200_000, seed=0)
    assert batch.counts.sum() == 200_000
    assert batch.round_settings.dtype == np.uint16
    assert batch.round_settings.max() == 256
    argv = ["sample", "--preset", "chained-n", "--n", "257", "--rounds", "200000"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: setting combination \(\d+, \d+\) observed [01] < 2 times\n", err)


@pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
def test_sample_rejects_nonfinite_z(tmp_path, capsys, z):
    out_path = tmp_path / "x.json"
    argv = ["sample", "--preset", "chsh-optimal", "--rounds", "2000", "--out", str(out_path)]
    assert main(argv + [f"--z={z}"]) == 3
    assert "z must be finite" in capsys.readouterr().err
    assert not out_path.exists()


_SAMPLE_PRESETS = [
    ["--preset", "chsh-optimal"],
    ["--preset", "chained-n", "--n", "3"],
    ["--preset", "mk-ghz", "--n", "3"],
]
# One tmp_path serves every example of a test; no example may leave a file in it.
_SAMPLE_EXAMPLES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SAMPLE_EXAMPLES
@given(instance=st.sampled_from(_SAMPLE_PRESETS), rounds=st.integers(max_value=0))
def test_sample_rejects_nonpositive_rounds(tmp_path, instance, rounds):
    out_path = tmp_path / "x.json"
    assert main(["sample", *instance, f"--rounds={rounds}", "--out", str(out_path)]) in (2, 3)
    assert not out_path.exists()


@_SAMPLE_EXAMPLES
@given(
    instance=st.sampled_from(_SAMPLE_PRESETS),
    z=st.sampled_from(["nan", "inf", "-inf", "-nan", "1e309"])
    | st.floats(max_value=-1e-300).map(repr),
    fmt=st.sampled_from(["json", "csv"]),
)
def test_sample_rejects_bad_z_for_every_family(tmp_path, instance, z, fmt):
    out_path = tmp_path / "x.out"
    argv = ["sample", *instance, "--rounds", "2000", f"--z={z}", "--format", fmt]
    assert main(argv + ["--out", str(out_path)]) in (2, 3)
    assert not out_path.exists()


# every cell of a Bloch entry and of a matrix entry (row, column, re/im)
_SCENARIO_CELLS = [("bloch", i) for i in range(3)] + [("matrix", *c) for c in np.ndindex(2, 2, 2)]


@_SAMPLE_EXAMPLES
@given(
    bad=st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308]),
    cell=st.sampled_from(_SCENARIO_CELLS),
    slot=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_sample_rejects_nonfinite_scenario_file(tmp_path, bad, cell, slot):
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    party, setting = slot
    kind, *index = cell
    if kind == "bloch":
        observable = {"bloch": [0.6, 0.0, 0.8]}
    else:
        observable = {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
    target = observable[kind]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = bad
    doc["parties"][party]["observables"][setting] = observable
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "rounds.csv"
    argv = ["sample", "--scenario", str(scenario_path), "--state", "bell", "--rounds", "2000"]
    with np.errstate(all="ignore"):
        assert main(argv + ["--format", "csv", "--out", str(out_path)]) in (2, 3)
    assert not out_path.exists()


# What one entry of a state file's [re, im] pair is replaced by: no JSON number, or no finite one.
_BAD_PAIR_ENTRIES = [
    True, False, "0.5", [0.5], float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400
]


@_SAMPLE_EXAMPLES
@given(
    command=st.sampled_from(["report", "decompose"]),
    pos=st.integers(0, 3),
    mutation=st.tuples(st.just("entry"), st.integers(0, 1), st.sampled_from(_BAD_PAIR_ENTRIES))
    | st.tuples(st.just("length"), st.sampled_from([1, 3]), st.just(None)),
)
@example(command="report", pos=3, mutation=("entry", 1, False))
@example(command="decompose", pos=0, mutation=("length", 3, None))
def test_state_file_rejects_malformed_pairs(scenario_file, tmp_path, command, pos, mutation):
    pairs = [[1, 0], [0.0, 0.0], [0.0, 0.0], [1.0, 0]]
    state_path = tmp_path / "state.json"
    out_path = tmp_path / "out.json"
    argv = [command, "--scenario", str(scenario_file), "--state", str(state_path)]
    state_path.write_text(json.dumps(pairs), encoding="utf-8")
    assert main(argv + ["--out", str(out_path)]) == 0
    out_path.unlink()
    kind, where, bad = mutation
    if kind == "entry":
        pairs[pos][where] = bad
    else:
        # one element short, or a third element that must not be dropped silently
        pairs[pos] = (pairs[pos] + [0.25])[:where]
    state_path.write_text(json.dumps(pairs), encoding="utf-8")
    with np.errstate(all="ignore"):
        assert main(argv + ["--out", str(out_path)]) in (2, 3)
    assert not out_path.exists()


@pytest.mark.parametrize("spec", ["file", "inline"])
@pytest.mark.parametrize("command", ["report", "decompose"])
def test_huge_state_amplitude_is_input_error(scenario_file, tmp_path, capsys, command, spec):
    if spec == "file":
        state = tmp_path / "big.json"
        state.write_text(json.dumps([[1e308, 0], [0, 0], [0, 0], [1, 0]]), encoding="utf-8")
    else:
        state = "1e308,0,0,1"
    out_path = tmp_path / "out.json"
    argv = [command, "--scenario", str(scenario_file), "--state", str(state), "--out", str(out_path)]
    # a numpy warning would surface as an exception, i.e. exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "norm overflows" in err
    assert "Warning" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("spec", ["file", "inline"])
@pytest.mark.parametrize("big, code", [(1e154, 0), (1.4e154, 2)])
def test_state_amplitude_limit_is_where_its_square_overflows(
    scenario_file, tmp_path, capsys, spec, big, code
):
    # the norm is taken unscaled, so the limit is sqrt(float max), about 1.34e154
    if spec == "file":
        state = tmp_path / "big.json"
        state.write_text(json.dumps([[big, 0], [0, 0], [0, 0], [1, 0]]), encoding="utf-8")
    else:
        state = f"{big!r},0,0,1"
    out_path = tmp_path / "out.json"
    argv = ["report", "--scenario", str(scenario_file), "--state", str(state), "--out", str(out_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    assert out_path.exists() == (code == 0)
    assert ("norm overflows" in capsys.readouterr().err) == (code == 2)


def _reject_constant(name):
    raise AssertionError(f"non-finite {name} in --out")


_SUBNORMAL = st.sampled_from([5e-324, -5e-324, 1e-310, -1e-310]) | st.floats(
    min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308, allow_subnormal=True
).filter(bool)


@_SAMPLE_EXAMPLES
@given(
    command=st.sampled_from(["report", "decompose"]),
    where=st.sampled_from(["state", "inline", "bloch", "matrix"]),
    pos=st.integers(0, 7),
    slot=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    value=_SUBNORMAL,
)
@example(command="report", where="bloch", pos=2, slot=(1, 0), value=5e-324)
@example(command="decompose", where="matrix", pos=1, slot=(0, 1), value=1e-310)
def test_subnormal_inputs_fail_closed_or_stay_finite(
    scenario_file, tmp_path, command, where, pos, slot, value
):
    """A subnormal at position ``pos`` of a state, or of party/setting ``slot``'s observable."""
    scenario_path, state = scenario_file, "bell"
    if where == "state":
        amplitudes = [[INV_SQRT2, 0.0], [0.0, 0.0], [0.0, 0.0], [INV_SQRT2, 0.0]]
        amplitudes[pos // 2][pos % 2] = value
        state = tmp_path / "state.json"
        state.write_text(json.dumps(amplitudes), encoding="utf-8")
    elif where == "inline":
        amplitudes = [INV_SQRT2, 0.0, 0.0, INV_SQRT2]
        amplitudes[pos % 4] = value
        state = ",".join(map(repr, amplitudes))
    else:
        doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
        if where == "bloch":
            observable = {"bloch": [0.0, 0.0, 1.0]}
            observable["bloch"][pos % 3] = value
        else:
            observable = {"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
            observable["matrix"][pos // 4][pos // 2 % 2][pos % 2] = value
        party, setting = slot
        doc["parties"][party]["observables"][setting] = observable
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [command, "--scenario", str(scenario_path), f"--state={state}", "--out", str(out_path)]
    # a numpy warning would surface as an exception, i.e. exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    if code == 0:
        json.loads(out_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        out_path.unlink()
    else:
        assert code in (2, 3)
        assert not out_path.exists()


_MALFORMED_OBSERVABLES = {
    "matrix-three": {"matrix": [[[1, 0, 9], [0, 0]], [[0, 0], [-1, 0]]]},
    "matrix-bool": {"matrix": [[[True, False], [0, 0]], [[0, 0], [-1, 0]]]},
    "matrix-number": {"matrix": 5},
    "bloch-bool": {"bloch": [False, False, True]},
    "bloch-string": {"bloch": ["0", "0", "1"]},
    # both keys: one of them would be dropped unread
    "bloch-and-matrix": {"bloch": [0, 0, 1], "matrix": [[[5, 0], [0, 0]], [[0, 0], [5, 0]]]},
    "bloch-and-same-matrix": {"bloch": [0, 0, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
    "matrix-3x3": {"matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0], [0, 0]], [[0, 0]] * 3]},
}
# the error message of a case, where the test pins it
_MALFORMED_MESSAGES = {"matrix-3x3": "matrix observable must be 2x2, got (3, 3)"}


@pytest.mark.parametrize("command, case", _with_commands(list(_MALFORMED_OBSERVABLES)))
def test_scenario_file_rejects_malformed_entries(tmp_path, capsys, command, case):
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    doc["parties"][1]["observables"][0] = _MALFORMED_OBSERVABLES[case]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    assert main([command, "--scenario", str(scenario_path), "--out", str(out_path)]) == 2
    assert f"error: {_MALFORMED_MESSAGES.get(case, '')}" in capsys.readouterr().err
    assert not out_path.exists()


# (settings per party, top-level fields): each document names its family
# with a value that is not a JSON integer, in a scenario whose shape fits
# what ``int()`` would read from it
_NON_INTEGER_FIELDS = {
    "n-null": (2, {"family": {"name": "chsh", "n": None}}),
    "split_k-list": (2, {"family": {"name": "mk", "n": 2, "split_k": [1]}}),
    "n-string": (4, {"family": {"name": "chained", "n": "4"}}),
    "n-float": (3, {"family": {"name": "chained", "n": 3.9}}),
    "split_k-true": (2, {"family": {"name": "mk", "n": 2, "split_k": True}}),
    "n-1e400": (2, {"family": {"name": "chsh", "n": "HUGE"}}),
    "schema_version-true": (2, {"schema_version": True, "family": {"name": "chsh"}}),
    "schema_version-float": (2, {"schema_version": 1.0, "family": {"name": "chsh"}}),
}


@pytest.mark.parametrize("command, case", _with_commands(list(_NON_INTEGER_FIELDS)))
def test_scenario_file_rejects_non_integer_fields(tmp_path, capsys, command, case):
    settings, fields = _NON_INTEGER_FIELDS[case]
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1]] * settings] * 2))
    doc.update(fields)
    scenario_path = tmp_path / "scenario.json"
    # 1e400 is valid JSON that json.dumps cannot write: it parses to inf
    scenario_path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [command, "--scenario", str(scenario_path), "--state", "bell", "--out", str(out_path)]
    assert main(argv) == 2
    assert "must be a JSON integer" in capsys.readouterr().err
    assert not out_path.exists()


# The scenario-reading subcommands, each with the arguments it needs beyond the file.
_SCENARIO_COMMANDS = {
    "report": ["report"],
    "decompose": ["decompose"],
    "sample": ["sample", "--rounds", "2000"],
}
# 3000 nested lists: json.load runs out of recursion depth before it sees a value.
_DEEP = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize("observables", [5, None], ids=["number", "null"])
@pytest.mark.parametrize("command", list(_SCENARIO_COMMANDS))
def test_scenario_party_observables_must_be_a_list(tmp_path, capsys, command, observables):
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    doc["parties"][1]["observables"] = observables
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [*_SCENARIO_COMMANDS[command], "--scenario", str(scenario_path), "--out", str(out_path)]
    assert main(argv) == 2
    assert "each party needs an 'observables' list" in capsys.readouterr().err
    assert not out_path.exists()


# a misspelled key in each object of a scenario file: (path to the object, key)
_UNKNOWN_KEYS = {
    "document": ((), "famly"),
    "party": (("parties", 0), "observable"),
    "entry": (("parties", 1, "observables", 0), "matrx"),
    "family": (("family",), "split"),
}


@pytest.mark.parametrize("where", list(_UNKNOWN_KEYS))
@pytest.mark.parametrize("command", list(_SCENARIO_COMMANDS))
def test_scenario_file_rejects_unknown_keys(tmp_path, capsys, command, where):
    # the reader would drop the key unread, and the value it misspells would take its default
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    path, key = _UNKNOWN_KEYS[where]
    functools.reduce(lambda node, k: node[k], path, doc)[key] = 2
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [*_SCENARIO_COMMANDS[command], "--scenario", str(scenario_path), "--out", str(out_path)]
    assert main(argv) == 2
    assert f"unknown keys ['{key}']" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", list(_SCENARIO_COMMANDS))
def test_scenario_file_split_k_only_for_mk(tmp_path, capsys, command):
    # chsh has no block split: the file's split_k would be dropped unread
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    doc["family"]["split_k"] = 7
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [*_SCENARIO_COMMANDS[command], "--scenario", str(scenario_path), "--out", str(out_path)]
    assert main(argv) == 2
    assert "split_k applies to mk only, not to chsh" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", list(_SCENARIO_COMMANDS))
def test_deeply_nested_scenario_file_is_input_error(tmp_path, capsys, command):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(_DEEP, encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [*_SCENARIO_COMMANDS[command], "--scenario", str(scenario_path), "--out", str(out_path)]
    assert main(argv) == 2
    assert "malformed scenario file" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["report", "decompose"])
def test_deeply_nested_state_file_is_input_error(scenario_file, tmp_path, capsys, command):
    state_path = tmp_path / "state.json"
    state_path.write_text(_DEEP, encoding="utf-8")
    out_path = tmp_path / "out.json"
    argv = [command, "--scenario", str(scenario_file), "--state", str(state_path)]
    assert main(argv + ["--out", str(out_path)]) == 2
    assert "cannot read state file" in capsys.readouterr().err
    assert not out_path.exists()


def _json_paths(node, path=()):
    """The path of every node of a JSON document, the root's ``()`` first."""
    yield path
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield from _json_paths(node[key], (*path, key))


def _json_kind(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else type(value).__name__


# Any JSON value, with NaN and Infinity tokens, huge integers, empty containers and
# (through the "DEEP" marker) nesting beyond the recursion limit.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), "DEEP"])
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
_MUTATION_EXAMPLES = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _replace_node(doc, data, path_file: Path) -> bool:
    """Write ``doc`` with one node, drawn by ``data``, replaced by an arbitrary JSON value.

    True when the new value cannot leave the document valid: nesting beyond the
    recursion limit, or a value of another JSON kind than the node it replaces.
    """
    paths = list(_json_paths(doc))
    path = data.draw(st.sampled_from(paths), label="path")
    value = data.draw(_JSON_VALUES, label="value")
    if path:
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        old, parent[path[-1]] = parent[path[-1]], value
    else:
        old, doc = doc, value
    path_file.write_text(json.dumps(doc).replace('"DEEP"', _DEEP), encoding="utf-8")
    return '"DEEP"' in json.dumps(value) or _json_kind(value) != _json_kind(old)


def _check_fails_closed(argv, out_path: Path, must_fail: bool) -> None:
    with np.errstate(all="ignore"):
        code = main([*argv, "--out", str(out_path)])
    if code == 0 and not must_fail:
        # the replacement left a valid document, e.g. a number swapped for another
        json.loads(out_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        out_path.unlink()
    else:
        assert code in (2, 3)
        assert not out_path.exists()


@_MUTATION_EXAMPLES
@given(command=st.sampled_from(list(_SCENARIO_COMMANDS)), data=st.data())
def test_scenario_file_with_any_node_replaced_fails_closed(tmp_path, capsys, command, data):
    scen = from_bloch_table([[[0, 0, 1], [1, 0, 0]], [[0, 0, 1], [0.6, 0, 0.8]]])
    doc = scenario_to_json_dict(scen, chsh_family())
    doc["parties"][1]["observables"][0] = {"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
    scenario_path = tmp_path / "scenario.json"
    must_fail = _replace_node(doc, data, scenario_path)
    argv = [*_SCENARIO_COMMANDS[command], "--scenario", str(scenario_path)]
    _check_fails_closed(argv, tmp_path / "out.json", must_fail)
    capsys.readouterr()


@_MUTATION_EXAMPLES
@given(command=st.sampled_from(["report", "decompose"]), data=st.data())
def test_state_file_with_any_node_replaced_fails_closed(
    scenario_file, tmp_path, capsys, command, data
):
    state_path = tmp_path / "state.json"
    must_fail = _replace_node([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]], data, state_path)
    argv = [command, "--scenario", str(scenario_file), "--state", str(state_path)]
    _check_fails_closed(argv, tmp_path / "out.json", must_fail)
    capsys.readouterr()


# The CLI grammar: each subcommand's instance sources, required arguments and other
# arguments, then the values every argument may take, valid and invalid.  Sizes stay
# small: the grammar test runs every argv in process.
_INSTANCE_ARGS = ("--state", "--family", "--n", "--split-k")
_GRAMMAR = {
    "decompose": (("--scenario",), (), _INSTANCE_ARGS),
    "report": (("--preset", "--scenario"), (), (*_INSTANCE_ARGS, "--format")),
    "optimize": (("--family",), (), ("--n", "--split-k", "--seed", "--seeds")),
    "scan": (("--family",), ("--samples",), ("--n", "--split-k", "--seed", "--format")),
    "sample": (
        ("--preset", "--scenario"),
        ("--rounds",),
        (*_INSTANCE_ARGS, "--seed", "--z", "--format"),
    ),
    "lhv": (("--family",), (), ("--n", "--split-k")),
}
# flag -> (valid values, invalid values)
_GRAMMAR_VALUES = {
    "--preset": (("chsh-optimal", "chained-n", "mk-ghz"), ("nope",)),
    "--scenario": (("chsh.json", "mk3.json", "bare.json"), ("bad.json", "missing.json")),
    "--state": (("bell", "ghz", "zero", "1,0,0,1", "state.json"), ("nan,0,0,0", "a,b")),
    "--family": (("chsh", "chained", "mk"), ("nope",)),
    "--n": (("2", "3", "4"), ("0", "-1", "x")),
    "--split-k": (("1", "2"), ("0", "x")),
    "--seed": (("0", "3"), ("-1", "x")),
    "--seeds": (("1", "2"), ("0",)),
    "--max-iters": (("1", "5"), ("0",)),
    "--samples": (("1", "20"), ("0", "-3")),
    "--rounds": (("100", "2000"), ("0", "x")),
    "--z": (("5", "0"), ("nan", "-1")),
    "--format": (("json", "csv"), ("xml",)),
}


@st.composite
def _cli_argv(draw) -> list[str]:
    """A subcommand with mostly one instance source and its required arguments,
    some of its other arguments, sometimes one argument of any subcommand, and
    maybe ``--out``; a value is seldom invalid.  ``optimize`` always gets
    ``--max-iters``, so that no run takes the default 300 iterations."""
    command = draw(st.sampled_from(list(_GRAMMAR)))
    sources, required, others = _GRAMMAR[command]
    flags = [draw(st.sampled_from([*sources, *sources, *sources, None]))]
    flags += [f for f in required if draw(st.sampled_from([True, True, True, False]))]
    flags += [f for f in others if draw(st.sampled_from([True, False, False]))]
    if draw(st.sampled_from([False, False, False, True])):
        flags.append(draw(st.sampled_from(list(_GRAMMAR_VALUES))))
    if command == "optimize":
        flags.append("--max-iters")
    argv = [command]
    for flag in filter(None, flags):
        valid, invalid = _GRAMMAR_VALUES[flag]
        argv += [flag, draw(st.sampled_from([*valid * 4, *invalid]))]
    return argv + draw(st.sampled_from([[], ["--out", "out"]]))


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    """The files the grammar's values name; ``missing.json`` is never written."""
    root = tmp_path_factory.mktemp("grammar")
    table = from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2)
    mk3 = mk_family(3, 2)
    docs = {
        "chsh.json": scenario_to_json_dict(table, chsh_family()),
        "mk3.json": scenario_to_json_dict(random_scenario(mk3, np.random.default_rng(3)), mk3),
        "bare.json": scenario_to_json_dict(table),
        "state.json": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]],
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc), encoding="utf-8")
    (root / "bad.json").write_text("{oops", encoding="utf-8")
    return root


def _argument_refusals(argv) -> set[str]:
    """The refusals that an argv the parser accepts shows in its arguments alone."""
    try:
        _build_parser(argv).parse_args(argv)
    except SystemExit:
        return set()  # a usage error, refused before these
    given = {a.split("=")[0] for a in argv if a.startswith("--")}
    value = dict(zip(argv, argv[1:]))  # a repeated flag's last value, as the parser reads it
    rules = {
        "--preset fixes the instance": "--preset" in given
        and bool(given & {"--family", "--scenario", "--state"}),
        "--n is read only with --family": {"--n", "--scenario"} <= given
        and "--family" not in given,
        "--split-k applies to mk only": "--split-k" in given
        and value.get("--family", "mk") != "mk",
        "--format applies only with --out": "--format" in given and "--out" not in given,
        "--out needs a file path": "--out=" in argv or value.get("--out") == "",
    }
    return {error for error, holds in rules.items() if holds}


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_cli_argv())
@example(argv=["decompose"])
@example(argv=["decompose", "--out", "out"])
@example(argv=["report", "--scenario", "missing.json", "--n", "3", "--format", "csv"])
@example(argv=["report", "--preset", "chsh-optimal", "--scenario", "bad.json"])
@example(argv=_REFUSED_BEFORE_THE_INSTANCE["preset-state"][0])
@example(argv=_REFUSED_BEFORE_THE_INSTANCE["preset-family"][0])
@example(argv=_REFUSED_BEFORE_THE_INSTANCE["split-chained"][0])
@example(argv=_REFUSED_BEFORE_THE_INSTANCE["split-chsh"][0])
@example(argv=_REFUSED_BEFORE_THE_INSTANCE["format"][0])
@example(argv=_REFUSED_BEFORE_THE_INSTANCE["empty-out"][0])
def test_any_cli_argv_exits_0_2_or_3_and_fails_closed(grammar_dir, capsys, argv):
    # an argv whose arguments alone conflict exits 2 with one of its refusals, whatever
    # instance, file or value it also names, and prints nothing
    refusals = _argument_refusals(argv)
    capsys.readouterr()
    out_path = grammar_dir / "out"
    code = main([str(grammar_dir / a) if a == "out" or a.endswith(".json") else a for a in argv])
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    if refusals:
        assert code == 2
        assert any(error in captured.err for error in refusals), (captured.err, refusals)
        assert captured.out == ""
    if code:
        assert not out_path.exists()
    out_path.unlink(missing_ok=True)


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_optimize_rejects_nonpositive_seeds(tmp_path, capsys, seeds):
    out_path = tmp_path / "opt.json"
    assert main(["optimize", "--family", "chsh", "--seeds", seeds, "--out", str(out_path)]) == 3
    assert f"seeds must be positive, got {seeds}" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "chsh", "--samples", "3"],
        ["optimize", "--family", "chsh"],
        ["sample", "--preset", "chsh-optimal", "--rounds", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_named_in_the_error(tmp_path, capsys, argv):
    out_path = tmp_path / "out.json"
    assert main(argv + ["--seed", "-1", "--out", str(out_path)]) == 3
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out_path.exists()


def test_sample_requires_rounds(capsys):
    assert main(["sample", "--preset", "chsh-optimal"]) == 2
    capsys.readouterr()


def test_lhv_values(capsys):
    assert main(["lhv", "--family", "chsh"]) == 0
    assert "2" in capsys.readouterr().out
    assert main(["lhv", "--family", "mk", "--n", "4"]) == 0
    assert "8" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, family, value",
    [
        (["--family", "chained", "--n", "12"], {"n": 12, "name": "chained"}, 22.0),
        (["--family", "mk", "--n", "8", "--split-k", "3"], {"n": 8, "name": "mk", "split_k": 3}, 128.0),
    ],
    ids=["chained12", "mk8-k3"],
)
def test_lhv_writes_canonical_json_at_the_largest_sizes(tmp_path, capsys, args, family, value):
    out_path = tmp_path / "lhv.json"
    assert main(["lhv", *args, "--out", str(out_path)]) == 0
    want = {"schema_version": 1, "family": family, "lhv_max": value}
    assert out_path.read_bytes() == (json.dumps(want, indent=2, sort_keys=True) + "\n").encode()
    assert capsys.readouterr().out.splitlines()[-1] == f"lhv_max   {value:.12g}"


def test_lhv_cap_is_domain_error(capsys):
    assert main(["lhv", "--family", "chained", "--n", "13"]) == 3
    assert "cap" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["report", "--preset", "unknown-preset"]) == 2
    capsys.readouterr()


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> subparser, as built into ``parser``."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_subcommand_help_matches_the_full_parser(capsys, command):
    full = _subcommands(_build_parser([]))[command]
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert text == full.format_help()
    assert ("--preset {chsh-optimal,chained-n,mk-ghz}" in text) == (command in ("report", "sample"))
    # the top-level help, whose usage line a usage error prints, lists it with its summary
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: bellvar [-h] {decompose,report,optimize,scan,sample,lhv} ...\n")
    assert re.search(rf"^ +{command} +[A-Za-z]", text, re.M)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "chsh", "--samples", "3", "--bogus"],
        ["lhv", "--family", "chsh", "--seed", "3"],
        ["scan"],
        ["report", "--preset", "nope"],
        ["frobnicate"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no-argument",
)
def test_usage_errors_match_the_full_parser(capsys, argv):
    # the usage line of an error names all six subcommands, however many were built
    with pytest.raises(SystemExit) as exc:
        _build_parser([]).parse_args(argv)
    want = capsys.readouterr()
    assert (main(argv), capsys.readouterr()) == (exc.value.code, want)


@pytest.mark.parametrize(
    "argv, built",
    [
        (["lhv", "--family", "chsh"], ["lhv"]),
        (["report", "--preset", "chsh-optimal"], ["report"]),
        (["scan", "--family", "chsh", "--samples", "3", "--bogus"], ["scan"]),
        ([], list(_COMMANDS)),
        (["--help"], list(_COMMANDS)),
        (["frobnicate"], list(_COMMANDS)),
    ],
)
def test_a_run_builds_only_its_subcommands_parser(capsys, monkeypatch, argv, built):
    parsers = []
    monkeypatch.setattr(
        "bellvar.cli._build_parser", lambda argv: parsers.append(_build_parser(argv)) or parsers[-1]
    )
    main(argv)
    capsys.readouterr()
    assert [list(_subcommands(p)) for p in parsers] == [built]


@pytest.mark.parametrize(
    "argv",
    [
        ["lhv", "--family", "chsh"],
        ["optimize", "--family", "chsh"],
        ["decompose", "--scenario", "scenario.json"],
    ],
)
def test_format_only_on_report_scan_sample(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    assert main(argv + ["--format", "csv", "--out", str(out_path)]) == 2
    assert "--format" in capsys.readouterr().err
    assert not out_path.exists()


def _child_env(**threads: str) -> dict:
    """This process's environment with no ``*_NUM_THREADS`` variable but ``threads``;
    the child imports bellvar from wherever this process found it."""
    src = str(Path(bellvar.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env | threads


def _run_child(argv: list[str], env: dict, cwd=None) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_module_entry_point():
    proc = _run_child(["-m", "bellvar.cli", "lhv", "--family", "chsh"], _child_env())
    assert "lhv_max" in proc.stdout


def _address_space_of_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


_ABOVE_THE_CHAINED_CAP = ["--family", "chained", "--n", "100000"]


@pytest.mark.parametrize(
    "argv",
    [
        ["lhv", *_ABOVE_THE_CHAINED_CAP],
        ["scan", *_ABOVE_THE_CHAINED_CAP, "--samples", "1"],
        ["optimize", *_ABOVE_THE_CHAINED_CAP, "--max-iters", "1"],
        ["decompose", "--scenario", "scenario.json", *_ABOVE_THE_CHAINED_CAP],
        ["report", "--preset", "chained-n", "--n", "100000"],
        ["sample", "--preset", "chained-n", "--n", "100000", "--rounds", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_chained_family_above_the_cap_exits_3_before_any_allocation(scenario_file, argv):
    # one n x n int64 table at n = 100000 takes 74.5 GiB: within a 1 GiB address space the
    # run must refuse the family before it builds any table
    from bellvar.scenarios import _CHAINED_MAX_SETTINGS

    argv = [str(scenario_file) if arg == "scenario.json" else arg for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "bellvar.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_address_space_of_1_gib,
    )
    error = f"error: chained supports 2..{_CHAINED_MAX_SETTINGS} settings, got 100000\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", error)


# every subcommand, each run in its own directory under the test's
_HASH_SEED_RUNS = {
    "scan": ["scan", "--family", "chained", "--n", "5", "--samples", "600", "--format", "csv"],
    "optimize": ["optimize", "--family", "mk", "--n", "4", "--seeds", "2"],
    "sample": ["sample", "--preset", "mk-ghz", "--n", "3", "--rounds", "20000", "--format", "csv"],
    "report": ["report", "--preset", "chsh-optimal"],
    "decompose": ["decompose", "--scenario", "../scenario.json"],
    "lhv": ["lhv", "--family", "chained", "--n", "4"],
}


@pytest.mark.parametrize("command", list(_HASH_SEED_RUNS))
def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, command):
    # a set of strings iterates in an order the string hash seed picks, and a test in
    # this process cannot vary that seed
    party = {"observables": [{"bloch": [0, 0, 1]}, {"bloch": [1, 0, 0]}]}
    doc = {"schema_version": 1, "parties": [party, party]}
    (tmp_path / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for seed in ("1", "2"):
        cwd = tmp_path / f"hash{seed}"
        cwd.mkdir()
        env = _child_env() | {"PYTHONHASHSEED": seed}
        proc = _run_child(["-m", "bellvar.cli", *_HASH_SEED_RUNS[command], "--out", "out"], env, cwd)
        outputs.append((proc.stdout, proc.stderr, (cwd / "out").read_bytes()))
    assert outputs[0] == outputs[1]


# Linux counts the resident set of the process that spawns a child in the child's
# ru_maxrss, so a job spawned from pytest, which holds numpy and every earlier test's
# data, would read pytest's peak.  A launcher importing only these modules spawns the
# jobs and prints their wait4 peaks in MB (ru_maxrss is in KiB on Linux).
_PEAKS = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, "-m", "bellvar.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if status:
        sys.exit(f"{' '.join(argv)} failed with wait status {status}")
    peaks.append(usage.ru_maxrss / 1024)
print(json.dumps(peaks))
"""

_SCAN = ["scan", "--family", "chsh", "--samples", "100000", "--format"]
_ROUNDS = ["sample", "--preset", "chsh-optimal", "--rounds", "1000000", "--format"]

# (baseline, run): the run may peak at most 3 MB above the baseline; each --out is
# relative to the working directory
_PEAK_PAIRS = {
    # the scan CSV is written a kernel pass at a time
    "scan-csv": ([*_SCAN, "json", "--out", "out.json"], [*_SCAN, "csv", "--out", "out.csv"]),
    # the rounds CSV is written a chunk of rounds at a time
    "sample-csv": ([*_ROUNDS, "json", "--out", "out.json"], [*_ROUNDS, "csv", "--out", "out.csv"]),
    # the mk-ghz preset is written in closed form: report on mk-ghz(8) builds no 256 x 256
    # operator and runs no eigh
    "report-mk-ghz-8": (
        ["lhv", "--family", "chsh"],
        ["report", "--preset", "mk-ghz", "--n", "8", "--out", "out.json"],
    ),
}


@pytest.mark.parametrize("case", list(_PEAK_PAIRS))
def test_fresh_run_peaks_within_3_mb_of_its_baseline(tmp_path, case):
    baseline, run = _PEAK_PAIRS[case]
    proc = _run_child(["-c", _PEAKS, json.dumps([baseline, run])], _child_env(), tmp_path)
    baseline_mb, run_mb = json.loads(proc.stdout)
    assert run_mb - baseline_mb <= 3, f"{case}: {run_mb:.1f} MB against {baseline_mb:.1f} MB"
    if run[-1] == "out.csv":  # a comment and a header line, then one line per row
        rows = int(run[4])  # --samples or --rounds
        assert (tmp_path / "out.csv").read_bytes().count(b"\n") == rows + 2


# 10**15 samples or rounds: their first array exceeds the address space, so no page is touched
_HUGE = "1000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "chsh", "--samples", _HUGE],
        ["scan", "--family", "chsh", "--samples", _HUGE, "--format", "csv"],
        ["sample", "--preset", "chsh-optimal", "--rounds", _HUGE],
    ],
    ids=["scan-json", "scan-csv", "sample"],
)
def test_a_size_too_large_to_allocate_exits_3_and_writes_nothing(tmp_path, capsys, argv):
    out_path = tmp_path / "out"
    assert main([*argv, "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")
    assert f"for an array with shape ({_HUGE},)" in captured.err
    assert not out_path.exists()


_THREADS_AFTER_MATMUL = """
import json, os
{imports}
import numpy as np
a = np.ones((256, 256))
a @ a
print(json.dumps({{
    "tasks": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "env": {{k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}},
}}))
"""


def _threads_after_matmul(imports: str, env: dict) -> dict:
    code = _THREADS_AFTER_MATMUL.format(imports=imports)
    return json.loads(_run_child(["-c", code], env).stdout)


def test_cli_runs_blas_on_one_thread():
    got = _threads_after_matmul("import bellvar.cli", _child_env())
    assert got["env"] == {"OMP_NUM_THREADS": "1"}
    if got["tasks"] is None:
        pytest.skip("no /proc/self/task to count threads")
    # a threaded BLAS would have started its workers for a 256 x 256 product
    assert got["tasks"] == 1


@pytest.mark.parametrize(
    "threads",
    [
        {"OMP_NUM_THREADS": "3"},
        {"OPENBLAS_NUM_THREADS": "2"},
        {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "2"},
    ],
)
def test_cli_keeps_the_callers_thread_settings(threads):
    got = _threads_after_matmul("import bellvar.cli", _child_env(**threads))
    want = threads if "OMP_NUM_THREADS" in threads else {"OMP_NUM_THREADS": "1", **threads}
    assert got["env"] == want


def test_import_bellvar_leaves_the_environment_alone():
    code = (
        "import os; before = dict(os.environ); import bellvar; "
        "assert dict(os.environ) == before; bellvar.preset; assert dict(os.environ) == before"
    )
    _run_child(["-c", code], _child_env())


def test_optimize_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # mk(7) works on 128 x 128 matrices, which a threaded BLAS splits across its
    # threads and so sums in another order
    argv = ["optimize", "--family", "mk", "--n", "7", "--seeds", "1", "--seed", "0"]
    outputs = []
    for name, env in (("default", _child_env()), ("one", _child_env(OPENBLAS_NUM_THREADS="1"))):
        out_path = tmp_path / f"{name}.json"
        _run_child(["-m", "bellvar.cli", *argv, "--out", str(out_path)], env)
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_sample_csv_is_written_as_it_is_made(tmp_path, capsys):
    out_path = tmp_path / "rounds.csv"
    argv = ["sample", "--preset", "chsh-optimal", "--format", "csv", "--out", str(out_path)]
    assert main([*argv, "--rounds", "2000"]) == 0  # first-call caches stay out
    tracemalloc.start()
    try:
        assert main([*argv, "--rounds", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    size = out_path.stat().st_size
    # the file is 2.9 MiB.  Streamed, the peak is about 1.0 MiB (0.98 MiB),
    # set by the per-round indices, the sampler's draw chunk of 2**14 rounds
    # and one CSV chunk of 10**4 rows; with draw chunks of 2**16 rounds it was
    # 2.04 MiB, and the whole text held in memory (with its encoded copy)
    # peaked at 6.4 MiB, 2.2x the file.
    # Bound: half the file's size, 0.5 MiB above the streamed peak.
    assert peak < size / 2, f"traced peak {peak / 2**20:.2f} MiB, file {size / 2**20:.2f} MiB"
