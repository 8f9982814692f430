"""End-to-end command line tests.

Most cases drive ``main(argv)`` in process (fast, capsys-friendly); one
smoke test goes through the interpreter to cover the module entry point.
"""

import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bellvar
from bellvar.avdecomp import av_decompose, reconstruction_residual
from bellvar.bounds import pearson_chsh_report
from bellvar.linalg import haar_random_ket
from bellvar.cli import main
from bellvar.montecarlo import estimate, simulate_rounds
from bellvar.presets import preset
from bellvar.scenarios import (
    chsh_family,
    from_bloch_table,
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


def test_report_chained_preset(tmp_path, capsys):
    out_path = tmp_path / "chained.json"
    code = main(
        ["report", "--preset", "chained-n", "--n", "4", "--out", str(out_path)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "tsirelson note" in stdout
    assert "cos_lambda" in stdout
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(doc["cos_lambda"]) == 4
    assert "bound_statistical_loose" in doc["report"]
    assert doc["report"]["bound_tsirelson_note"] == "reference value"
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


def test_scan_csv_is_written_a_chunk_at_a_time(tmp_path, capsys, monkeypatch):
    # 32 CSV chunks of 2**9 rows, so that one chunk costs little next to the table
    monkeypatch.setattr(bellvar.cli, "_CSV_CHUNK_ROWS", 2**9)
    monkeypatch.setattr(bellvar.scenarios, "_CSV_CHUNK_ROWS", 2**9)
    n = 2**14
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
    assert len((tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()) == n + 2
    # Chunked, the CSV run peaks 0.6 MiB above the JSON run (1.2 against
    # 0.6 MiB), which is the six kept float64 columns and one chunk.  With
    # every column turned into Python floats up front it peaked at 4.0 MiB.
    # Bound: 8 bytes for each of the 8 cells of every row.
    extra = peaks["csv"] - peaks["json"]
    assert extra < 8 * 8 * n, f"CSV run peaks {extra / 2**20:.2f} MiB above the JSON run"


def _nan_slack_columns(columns):
    def patched(family, stacks, states):
        cols = columns(family, stacks, states)
        cols["slack"][1::2] = np.nan
        return cols

    return patched


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_non_finite_slack_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, fmt):
    import bellvar.bounds

    monkeypatch.setattr(bellvar.bounds, "_columns", _nan_slack_columns(bellvar.bounds._columns))
    out_path = tmp_path / f"scan.{fmt}"
    argv = ["scan", "--family", "chsh", "--samples", "5", "--format", fmt, "--out", str(out_path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "2 of 5 scan slacks are not finite" in captured.err
    assert captured.out == ""
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
}


@pytest.mark.parametrize("command, case", _with_commands(list(_MALFORMED_OBSERVABLES)))
def test_scenario_file_rejects_malformed_entries(tmp_path, capsys, command, case):
    doc = scenario_to_json_dict(from_bloch_table([[[0, 0, 1], [1, 0, 0]]] * 2), chsh_family())
    doc["parties"][1]["observables"][0] = _MALFORMED_OBSERVABLES[case]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "out.json"
    assert main([command, "--scenario", str(scenario_path), "--out", str(out_path)]) == 2
    assert "error:" in capsys.readouterr().err
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


def _run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_module_entry_point():
    proc = _run_child(["-m", "bellvar.cli", "lhv", "--family", "chsh"], _child_env())
    assert "lhv_max" in proc.stdout


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
    # the file is 2.9 MiB.  Streamed, the peak is about 2.0 MiB, set by the
    # sampler's draw chunk and one CSV chunk of 2**14 rows; the whole text
    # held in memory (with its encoded copy) peaked at 6.4 MiB, 2.2x the file.
    # Bound: the file's size, 0.9 MiB above the streamed peak.
    assert peak < size, f"traced peak {peak / 2**20:.2f} MiB, file {size / 2**20:.2f} MiB"
