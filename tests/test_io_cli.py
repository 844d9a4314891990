"""Serialization round trips, config validation, and the command line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearfield
from nearfield import cli
from nearfield.amplitudes import Channel, ChannelSet, PartialWaveAmplitude
from nearfield.io import (
    AmplitudeDataError,
    ConfigError,
    DEFAULT_TOLERANCES,
    RunConfig,
    dumps_amplitude,
    load_amplitude,
    load_config,
    loads_amplitude,
    resolve_amplitude,
    save_amplitude,
)

from conftest import unitary_amplitude


def _valid_doc() -> dict:
    return {
        "channels": [
            {"label": "a", "k": 1.0, "v": 1.0},
            {"label": "b", "k": 0.8, "v": 0.64},
        ],
        "alpha": "a",
        "weight_mode": "momentum_ratio",
        "coefficients": [
            {"beta": "a", "l": 0, "m": 0, "re": 0.25, "im": -0.125},
            {"beta": "b", "l": 1, "m": -1, "re": 0.0, "im": 0.5},
        ],
    }


# ----------------------------------------------------------------------
# amplitude files
# ----------------------------------------------------------------------

def test_amplitude_round_trip_is_byte_identical():
    f, cs, _ = unitary_amplitude(2, 3, seed=7)
    text = dumps_amplitude(f, cs)
    f2, cs2 = loads_amplitude(text)
    assert dumps_amplitude(f2, cs2) == text
    assert f2.coefficients == f.coefficients
    assert cs2 == cs


def test_amplitude_round_trip_through_files(tmp_path):
    f, cs, _ = unitary_amplitude(3, 2, seed=1)
    path = tmp_path / "amp.json"
    save_amplitude(path, f, cs)
    f2, cs2 = load_amplitude(path)
    assert f2.coefficients == f.coefficients
    assert cs2.weight_mode == cs.weight_mode


def test_loads_amplitude_valid_document():
    f, cs = loads_amplitude(json.dumps(_valid_doc()))
    assert cs.labels == ("a", "b")
    assert cs.entrance == "a"
    assert f.coefficients[("a", 0, 0)] == 0.25 - 0.125j
    assert f.coefficients[("b", 1, -1)] == 0.5j
    # weight_mode defaults when omitted
    doc = _valid_doc()
    del doc["weight_mode"]
    _, cs = loads_amplitude(json.dumps(doc))
    assert cs.weight_mode == "momentum_ratio"


def _mut(mutator):
    doc = _valid_doc()
    mutator(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        "{",
        "[1, 2]",
        _mut(lambda d: d.update(extra=1)),
        _mut(lambda d: d.pop("alpha")),
        _mut(lambda d: d.update(channels=[])),
        _mut(lambda d: d.update(channels=[[1]])),
        _mut(lambda d: d["channels"][0].update(spin=0)),
        _mut(lambda d: d["channels"][0].update(label="")),
        _mut(lambda d: d["channels"][0].update(k="fast")),
        _mut(lambda d: d["channels"][0].update(k=0.0)),
        _mut(lambda d: d["channels"][0].update(k=float("inf"))),
        _mut(lambda d: d["channels"].append({"label": "a", "k": 2.0})),
        _mut(lambda d: d.update(alpha=3)),
        _mut(lambda d: d.update(alpha="zz")),
        _mut(lambda d: d.update(weight_mode="banana")),
        _mut(lambda d: d.update(coefficients={})),
        _mut(lambda d: d["coefficients"].append(7)),
        _mut(lambda d: d["coefficients"][0].pop("im")),
        _mut(lambda d: d["coefficients"][0].update(tag=1)),
        _mut(lambda d: d["coefficients"][0].update(beta="zz")),
        _mut(lambda d: d["coefficients"][0].update(l=-1)),
        _mut(lambda d: d["coefficients"][0].update(l=True)),
        _mut(lambda d: d["coefficients"][0].update(m=2, l=1)),
        _mut(lambda d: d["coefficients"][0].update(re="x")),
        _mut(lambda d: d["coefficients"].append(dict(d["coefficients"][0]))),
    ],
)
def test_loads_amplitude_rejects_bad_documents(text):
    with pytest.raises(AmplitudeDataError):
        loads_amplitude(text)


def test_load_amplitude_missing_file(tmp_path):
    with pytest.raises(AmplitudeDataError):
        load_amplitude(tmp_path / "nope.json")


# ----------------------------------------------------------------------
# run configuration
# ----------------------------------------------------------------------

def _write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_config_defaults(tmp_path):
    config = load_config(_write_config(tmp_path, {}))
    assert config.format == "csv"
    assert config.per_angle is False
    assert config.seed == 0
    assert config.r_values is None
    assert config.base_dir == tmp_path
    for name, value in DEFAULT_TOLERANCES.items():
        assert config.tolerance(name) == value


def test_load_config_schedules_and_overrides(tmp_path):
    config = load_config(
        _write_config(
            tmp_path,
            {
                "r_values": [0.5, 2.0, 9.0],
                "tolerances": {"greens": 1e-7},
                "seed": 11,
                "format": "json",
            },
        )
    )
    assert np.array_equal(config.r_values, [0.5, 2.0, 9.0])
    assert config.tolerance("greens") == 1e-7
    assert config.tolerance("optical") == DEFAULT_TOLERANCES["optical"]
    assert config.seed == 11

    config = load_config(
        _write_config(
            tmp_path, {"r_range": {"min": 1.0, "max": 100.0, "points": 5}}
        )
    )
    assert np.allclose(config.r_values, np.geomspace(1.0, 100.0, 5))

    config = load_config(
        _write_config(
            tmp_path,
            {"r_range": {"min": 1.0, "max": 3.0, "points": 3, "spacing": "linear"}},
        )
    )
    assert np.allclose(config.r_values, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "doc",
    [
        {"mystery": 1},
        {"r_values": [1.0], "r_range": {"min": 1, "max": 2, "points": 2}},
        {"r_values": []},
        {"r_values": [2.0, 1.0]},
        {"r_values": [-1.0]},
        {"r_values": ["x"]},
        {"r_values": [float("nan")]},
        {"r_values": [1.0, float("inf")]},
        {"r_range": {"min": 1, "max": float("inf"), "points": 3}},
        {"r_range": {"min": "1.0", "max": 2, "points": 3}},
        {"r_range": {"min": 1, "max": 2, "points": 3.9}},
        {"r_range": {"min": 1, "max": 2}},
        {"r_range": {"min": 1, "max": 2, "points": 2, "spacing": "cubic"}},
        {"r_range": {"min": 2, "max": 1, "points": 2}},
        {"r_range": {"min": 1, "max": 2, "points": 1}},
        {"r_range": {"min": 1, "max": 2, "points": 2, "shape": "x"}},
        {"grid_degree": 0},
        {"grid_degree": "fine"},
        {"grid_degree": True},
        {"format": "yaml"},
        {"out": 3},
        {"asymptotic_order": 4},  # not a config key
        {"per_angle": "yes"},
        {"weight_mode": "z"},
        {"tolerances": [1]},
        {"tolerances": {"mystery": 1e-3}},
        {"tolerances": {"greens": -1.0}},
        {"tolerances": {"greens": True}},
        {"tolerances": {"greens": float("inf")}},
        {"tolerances": {"greens": float("nan")}},
        {"seed": -1},
        {"seed": "x"},
        {"amplitude": "hard_sphere"},
    ],
)
def test_load_config_rejects_bad_documents(tmp_path, doc):
    with pytest.raises(ConfigError):
        load_config(_write_config(tmp_path, doc))


def test_load_config_bad_json_and_missing_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


# ----------------------------------------------------------------------
# amplitude sources
# ----------------------------------------------------------------------

def test_resolve_amplitude_requires_a_source():
    with pytest.raises(ConfigError):
        resolve_amplitude(RunConfig())
    with pytest.raises(ConfigError):
        resolve_amplitude(RunConfig(amplitude={"file": "a", "model": "hard_sphere"}))
    with pytest.raises(ConfigError):
        resolve_amplitude(RunConfig(amplitude={"model": "soft_sphere"}))


def test_resolve_hard_sphere_source():
    source = resolve_amplitude(
        RunConfig(amplitude={"model": "hard_sphere", "k": 2.0, "radius": 0.5, "l_max": 4})
    )
    assert source.channels.labels == ("elastic",)
    assert source.channels.k("elastic") == 2.0
    assert source.f.l_max == 4
    assert source.family is not None
    assert "hard_sphere" in source.description
    for bad in (
        {"k": -1.0},
        {"color": "red"},
        {"k": float("nan")},
        {"k": True},
        {"radius": float("inf")},
        {"l_max": 2.7},
        {"l_max": True},
    ):
        with pytest.raises(ConfigError):
            resolve_amplitude(RunConfig(amplitude={"model": "hard_sphere", **bad}))
    with pytest.raises(ConfigError):
        resolve_amplitude(
            RunConfig(
                amplitude={"model": "hard_sphere"}, weight_mode="velocity_ratio"
            )
        )


def test_resolve_random_unitary_source_is_deterministic():
    spec = {"model": "random_unitary", "n_channels": 3, "l_max": 2, "seed": 9}
    one = resolve_amplitude(RunConfig(amplitude=spec))
    two = resolve_amplitude(RunConfig(amplitude=spec))
    assert one.f.coefficients == two.f.coefficients
    assert one.channels.labels == ("ch0", "ch1", "ch2")
    assert one.family is not None

    explicit = resolve_amplitude(
        RunConfig(
            amplitude={
                "model": "random_unitary",
                "k": [1.0, 2.0],
                "labels": ["u", "d"],
                "alpha": "d",
                "kappa": [0.0, 1.0, 0.0],
            }
        )
    )
    assert explicit.channels.entrance == "d"
    assert explicit.channels.k("d") == 2.0


@pytest.mark.parametrize(
    "spec",
    [
        {"model": "random_unitary", "n_channels": 0},
        {"model": "random_unitary", "l_max": -1},
        {"model": "random_unitary", "labels": ["only"]},
        {"model": "random_unitary", "k": [1.0]},
        {"model": "random_unitary", "v": [1.0]},
        {"model": "random_unitary", "alpha": "zz"},
        {"model": "random_unitary", "kappa": [1.0, 0.0]},
        {"model": "random_unitary", "flavor": "x"},
        {"model": "random_unitary", "seed": -3},
        {"model": "random_unitary", "kappa": [0, 0, 0]},
        {"model": "random_unitary", "kappa": ["a", 0, 1]},
        {"model": "random_unitary", "kappa": [float("nan"), 0, 1]},
        {"model": "random_unitary", "l_max": -0.5},
        {"model": "random_unitary", "n_channels": "2"},
        {"model": "random_unitary", "k": ["1", 1.0]},
        {"model": "random_unitary", "v": ["1", 2.0]},
    ],
)
def test_resolve_random_unitary_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        resolve_amplitude(RunConfig(amplitude=spec))


def test_resolve_file_source_with_weight_override(tmp_path):
    f, cs, _ = unitary_amplitude(2, 2, seed=3)
    save_amplitude(tmp_path / "amp.json", f, cs)
    config = RunConfig(amplitude={"file": "amp.json"}, base_dir=tmp_path)
    source = resolve_amplitude(config)
    assert source.f.coefficients == f.coefficients
    assert source.family is None
    assert source.description == "file:amp.json"

    override = RunConfig(
        amplitude={"file": "amp.json"}, base_dir=tmp_path, weight_mode="velocity_ratio"
    )
    assert resolve_amplitude(override).channels.weight_mode == "velocity_ratio"

    # channels without velocities cannot take the velocity-ratio override
    bare = ChannelSet(channels=(Channel("a", 1.0), Channel("b", 0.5)), entrance="a")
    save_amplitude(tmp_path / "bare.json", PartialWaveAmplitude({("a", 0, 0): 1.0}), bare)
    with pytest.raises(ConfigError):
        resolve_amplitude(
            RunConfig(
                amplitude={"file": "bare.json"},
                base_dir=tmp_path,
                weight_mode="velocity_ratio",
            )
        )
    with pytest.raises(ConfigError):
        resolve_amplitude(
            RunConfig(amplitude={"file": "amp.json", "x": 1}, base_dir=tmp_path)
        )
    with pytest.raises(ConfigError):
        resolve_amplitude(RunConfig(amplitude={"file": 5}, base_dir=tmp_path))


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _flux_config(tmp_path, **extra):
    doc = {
        "amplitude": {"model": "random_unitary", "n_channels": 2, "l_max": 3, "seed": 5},
        "r_values": [1.0, 5.0, 20.0],
    }
    doc.update(extra)
    return _write_config(tmp_path, doc)


def test_cli_flux_csv_is_deterministic(tmp_path):
    cfg = _flux_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["flux", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["flux", "--config", str(cfg), "--out", str(out2)]) == 0
    text = out1.read_text(encoding="utf-8")
    assert text == out2.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0].startswith("# amplitude: random_unitary")
    header = "R,kR_ch0,kR_ch1,total_flux,differential_min,differential_max,within_validity"
    assert header in lines
    data = [ln for ln in lines if not ln.startswith("#") and ln != header]
    assert len(data) == 3
    first = data[0].split(",")
    assert float(first[0]) == 1.0
    assert first[-1] in ("0", "1")


def test_cli_flux_json_output(tmp_path, capsys):
    cfg = _flux_config(tmp_path, format="json")
    assert cli.main(["flux", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 3
    assert doc["grid_order"] >= 6
    assert doc["far_field_total"] == pytest.approx(doc["cross_section_total"], rel=1e-9)
    row = doc["rows"][1]
    assert row["R"] == 5.0
    assert set(row["kR"]) == {"ch0", "ch1"}
    assert row["differential_min"] <= row["differential_max"]


def test_cli_flux_format_flag_overrides_config(tmp_path, capsys):
    cfg = _flux_config(tmp_path, format="json")
    assert cli.main(["flux", "--config", str(cfg), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# amplitude:")


def test_cli_flux_per_angle_block(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "amplitude": {"model": "random_unitary", "l_max": 3, "seed": 2},
            "r_values": [2.0],
            "per_angle": True,
            "grid_degree": 12,
        },
    )
    assert cli.main(["flux", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert "# per-angle samples" in lines
    assert "R,theta,phi,flux" in lines
    n_nodes = 13 * 25
    samples = lines[lines.index("R,theta,phi,flux") + 1 :]
    assert len(samples) == n_nodes
    assert all(s.split(",")[0] == "2" for s in samples)


def test_cli_flux_error_exit_codes(tmp_path, capsys):
    assert cli.main(["flux", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err

    no_schedule = _write_config(
        tmp_path, {"amplitude": {"model": "hard_sphere"}}, name="nosched.json"
    )
    assert cli.main(["flux", "--config", str(no_schedule)]) == 2

    (tmp_path / "corrupt.json").write_text(
        json.dumps(
            {
                "channels": [{"label": "a", "k": 1.0}],
                "alpha": "a",
                "coefficients": [{"beta": "zz", "l": 0, "m": 0, "re": 1.0, "im": 0.0}],
            }
        ),
        encoding="utf-8",
    )
    bad_amp = _write_config(
        tmp_path,
        {"amplitude": {"file": "corrupt.json"}, "r_values": [1.0]},
        name="bad.json",
    )
    assert cli.main(["flux", "--config", str(bad_amp)]) == 3
    assert "amplitude data error" in capsys.readouterr().err


def test_cli_malformed_model_value_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"amplitude": {"model": "random_unitary", "kappa": [0, 0, 0]}})
    assert cli.main(["check", "all", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: random_unitary model: kappa")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_check_hard_sphere_past_the_overflow_of_y_l(tmp_path, capsys):
    # y_l overflows to -inf above l of about 150 at ka = 1: S_l = 1 there, so
    # the amplitude resolves and only the two-path expansion leaves float64
    cfg = _write_config(
        tmp_path, {"amplitude": {"model": "hard_sphere", "k": 1, "radius": 1, "l_max": 200}}
    )
    assert cli.main(["check", "all", "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "check greens", "check unitarity", "check optical", "check conservation"
    ]
    assert all(line.endswith("PASS") for line in lines)
    assert captured.err.startswith("domain error:")


def test_cli_flux_domain_error_exit_code(tmp_path, capsys):
    # degree 40 at kR = 1e-3: the pair factors leave the float64 range
    (tmp_path / "high.json").write_text(
        json.dumps(
            {
                "channels": [{"label": "a", "k": 1.0}],
                "alpha": "a",
                "coefficients": [{"beta": "a", "l": 40, "m": 0, "re": 1.0, "im": 0.0}],
            }
        ),
        encoding="utf-8",
    )
    cfg = _write_config(tmp_path, {"amplitude": {"file": "high.json"}, "r_values": [1e-3]})
    assert cli.main(["flux", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "domain error" in err and "l_max=40" in err


def test_cli_coeffs_reference_values(capsys):
    assert cli.main(["coeffs", "--l", "3", "--j", "0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# l=3 j=0 delta=-12"
    assert lines[1] == "n,numerator,denominator"
    assert lines[2:] == ["0,1,1", "1,-12,1", "2,60,1", "3,-120,1"]


def test_cli_coeffs_diagonal_note(capsys):
    assert cli.main(["coeffs", "--l", "2", "--j", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "# l=2 j=2 delta=0"
    assert "diagonal pair" in lines[1]
    assert len(lines) == 2


def test_cli_coeffs_table_and_json(capsys):
    assert cli.main(["coeffs", "--table", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("# l=2 j=") == 3

    assert cli.main(["coeffs", "--table"]) == 0
    assert capsys.readouterr().out.count("# l=3 j=") == 4

    assert cli.main(["coeffs", "--l", "3", "--j", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = doc["tables"][0]
    assert table["delta"] == -10
    assert [row["numerator"] for row in table["rows"]] == [1, -10, 36, 0, -240]
    assert all(row["denominator"] == 1 for row in table["rows"])


def test_cli_coeffs_argument_errors(capsys):
    assert cli.main(["coeffs"]) == 2
    capsys.readouterr()
    assert cli.main(["coeffs", "--l", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["coeffs", "--l", "-1", "--j", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["coeffs", "--table", "-2"]) == 2


def test_cli_coeffs_out_file(tmp_path):
    out = tmp_path / "table.csv"
    assert cli.main(["coeffs", "--l", "1", "--j", "0", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("# l=1 j=0 delta=-2")


def test_cli_check_single_battery(capsys):
    assert cli.main(["check", "optical"]) == 0
    out = capsys.readouterr().out
    assert "check optical: defect=" in out
    assert "PASS" in out
    assert "# amplitude: random_unitary" in out


def test_cli_check_all_passes(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"amplitude": {"model": "random_unitary", "l_max": 2, "seed": 4}},
    )
    assert cli.main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    for name in ("greens", "unitarity", "optical", "conservation", "two-path"):
        assert f"check {name}:" in out
    assert "FAIL" not in out


def test_cli_check_all_on_amplitude_file(tmp_path, capsys):
    # a file carries no amplitude family: unitarity samples only the diagonal
    source = resolve_amplitude(
        RunConfig(amplitude={"model": "random_unitary", "n_channels": 2, "l_max": 2, "seed": 5})
    )
    save_amplitude(tmp_path / "amp.json", source.f, source.channels)
    cfg = _write_config(tmp_path, {"amplitude": {"file": "amp.json"}})
    assert cli.main(["check", "all", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if line.startswith("check ")]
    assert len(checks) == 5
    assert all(line.endswith("PASS") for line in checks)
    assert not any(line.startswith("# two-path:") for line in lines)
    assert lines[-1] == "# amplitude: file:amp.json"


def test_cli_check_all_passes_at_degree_twelve(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "amplitude": {"model": "random_unitary", "n_channels": 3, "l_max": 12, "seed": 5},
            "seed": 5,
        },
    )
    assert cli.main(["check", "all", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if line.startswith("check ")]
    assert len(checks) == 5
    assert all(line.endswith("PASS") for line in checks)
    # two-path runs on the configured amplitude, with no note on a substitute
    assert not any(line.startswith("# two-path:") for line in lines)


def test_cli_check_conservation_fails_on_nan_total(monkeypatch, capsys):
    real_total = cli.total_flux
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        return float("nan") if len(calls) == 3 else real_total(*args, **kwargs)

    monkeypatch.setattr(cli, "total_flux", flaky)
    assert cli.main(["check", "conservation"]) == 1
    out = capsys.readouterr().out
    assert "check conservation: defect=nan" in out
    assert "FAIL" in out


def test_cli_check_lines_survive_a_later_crash(monkeypatch, capsys):
    def boom(config, source):
        raise RuntimeError("conservation crashed")

    monkeypatch.setattr(cli, "_check_conservation", boom)
    with pytest.raises(RuntimeError):
        cli.main(["check", "all"])
    out = capsys.readouterr().out
    for name in ("greens", "unitarity", "optical"):
        assert f"check {name}: defect=" in out


def test_cli_check_failure_sets_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"tolerances": {"greens": 1e-30}})
    assert cli.main(["check", "greens", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_check_out_file(tmp_path):
    out = tmp_path / "report.txt"
    assert cli.main(["check", "optical", "--out", str(out)]) == 0
    assert "check optical:" in out.read_text(encoding="utf-8")


def test_cli_parser_level_exits(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["not-a-command"]) == 2
    capsys.readouterr()
    assert cli.main(["check", "bogus"]) == 2


def test_cli_import_loads_no_scipy():
    src = str(Path(nearfield.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nearfield.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
