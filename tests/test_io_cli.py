"""Serialization round trips, config validation, and the command line."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearfield
from nearfield import cli, greens
from nearfield import io as nf_io
from nearfield.amplitudes import Channel, ChannelSet, PartialWaveAmplitude, SMatrixModel
from nearfield.flux import differential_flux_asymptotic, differential_flux_exact
from nearfield.special import _MAX_DEGREE, gauss_legendre_sphere, unit_from_angles
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

from conftest import series_product_oracle, unitary_amplitude


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: _resolved({"model": "hard_sphere", "k": 1.3, "radius": 6.0, "l_max": 20}),
        lambda: _resolved(
            {
                "model": "random_unitary",
                "n_channels": 3,
                "l_max": 7,
                "seed": 11,
                "kappa": [0.3, -0.5, 0.2],
                "labels": ["z", "b", "a"],
                "alpha": "b",
            }
        ),
        lambda: _combined(),
    ],
    ids=["hard_sphere_l20", "random_unitary_kappa", "sum_and_scaled"],
)
def test_save_load_save_is_byte_identical(tmp_path, build):
    f, cs = build()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_amplitude(first, f, cs)
    f2, cs2 = load_amplitude(first)
    save_amplitude(second, f2, cs2)
    assert first.read_bytes() == second.read_bytes()
    assert f2 == f


def _resolved(spec: dict):
    source = resolve_amplitude(RunConfig(amplitude=spec))
    return source.f, source.channels


def _combined():
    f, cs, family = unitary_amplitude(3, 4, seed=8)
    return f + family("c2", (0.6, 0.0, 0.8)).scaled(0.25 - 1.5j), cs


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


def test_integer_fields_share_the_integer_rule_of_calls(tmp_path):
    # files and configs read integers by special._integer, naming the field
    for index, field, value, message in (
        (0, "l", 2.0, "coefficient[0]: l must be an integer, got 2.0"),
        (1, "m", -2, "coefficient[1]: m must be at least -1, got -2"),
        (0, "l", -1, "coefficient[0]: l must be non-negative, got -1"),
    ):
        doc = _valid_doc()
        doc["coefficients"][index][field] = value
        with pytest.raises(AmplitudeDataError, match=re.escape(message)):
            loads_amplitude(json.dumps(doc))
    for doc, message in (
        ({"grid_degree": 0}, "grid_degree must be at least 1, got 0"),
        ({"grid_degree": True}, "grid_degree must be an integer, got True"),
        ({"r_range": {"min": 1, "max": 2, "points": 1}},
         "r_range: points must be at least 2, got 1"),
        ({"amplitude": {"model": "random_unitary", "n_channels": 0}},
         "random_unitary model: n_channels must be at least 1, got 0"),
        ({"amplitude": {"model": "hard_sphere", "l_max": 2.7}},
         "hard_sphere model: l_max must be an integer, got 2.7"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolve_amplitude(load_config(_write_config(tmp_path, doc)))


def _past_the_bound(name: str) -> str:
    return (
        f"{name} must be at most {_MAX_DEGREE}, the largest degree whose spherical harmonics "
        f"are finite in float64, got {_MAX_DEGREE + 1}"
    )


def test_amplitude_files_hold_degrees_up_to_the_harmonic_bound(tmp_path, capsys):
    # a file's degree reaches every harmonic table; past the bound none is finite
    doc = _valid_doc()
    doc["coefficients"][0].update(l=_MAX_DEGREE, m=-_MAX_DEGREE)
    f, _ = loads_amplitude(json.dumps(doc))
    assert f.l_max == _MAX_DEGREE
    assert f.coefficient("a", _MAX_DEGREE, -_MAX_DEGREE) == 0.25 - 0.125j
    doc["coefficients"][0]["l"] = _MAX_DEGREE + 1
    message = f"coefficient[0]: {_past_the_bound('l')}"
    with pytest.raises(AmplitudeDataError, match=re.escape(message)):
        loads_amplitude(json.dumps(doc))
    (tmp_path / "amp.json").write_text(json.dumps(doc), encoding="utf-8")
    cfg = _write_config(tmp_path, {"amplitude": {"file": "amp.json"}})
    assert cli.main(["check", "optical", "--config", str(cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"amplitude data error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("model", ["hard_sphere", "random_unitary"])
def test_model_degrees_past_the_harmonic_bound_are_config_errors(
    model, tmp_path, capsys, monkeypatch
):
    # refused before any model or table is built
    def forbidden(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(nf_io, "hard_sphere_model", forbidden)
    monkeypatch.setattr(nf_io, "random_unitary_smatrix", forbidden)
    cfg = _write_config(tmp_path, {"amplitude": {"model": model, "l_max": _MAX_DEGREE + 1}})
    assert cli.main(["check", "optical", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {model} model: {_past_the_bound('l_max')}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"amplitude": {"model": "hard_sphere", "label": ""}},
         "hard_sphere model: label must be a non-empty string"),
        ({"weight_mode": "velocity_ratio", "amplitude": {"model": "random_unitary"}},
         "random_unitary model: velocity_ratio weighting needs velocities"),
    ],
)
def test_resolve_amplitude_names_the_model_in_its_config_error(tmp_path, doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_amplitude(load_config(_write_config(tmp_path, doc)))


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
        [1, 2],
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
        {"r_range": [1, 2]},
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
        {"k": 1e200, "radius": 1e200},
        {"k": 1e-200, "radius": 1e-200},
    ):
        with pytest.raises(ConfigError):
            resolve_amplitude(RunConfig(amplitude={"model": "hard_sphere", **bad}))
    with pytest.raises(ConfigError, match=r"k\*radius"):
        resolve_amplitude(
            RunConfig(amplitude={"model": "hard_sphere", "k": 1e200, "radius": 1e200})
        )
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
    # the amplitude is zonal, contracted once per polar ring; every node is listed
    grid = gauss_legendre_sphere(12)
    angles = np.array([[float(v) for v in s.split(",")[1:3]] for s in samples])
    np.testing.assert_allclose(angles, np.column_stack([grid.theta, grid.phi]), rtol=1e-15)


def test_cli_flux_raises_grid_degree_to_l_max_only(tmp_path, capsys, caplog):
    # flux._least_order: a grid of order l_max resolves every mode pair
    amplitude = {"model": "random_unitary", "l_max": 6, "seed": 3}
    for degree, order in ((4, 6), (6, 6), (8, 8)):
        cfg = _write_config(
            tmp_path, {"amplitude": amplitude, "r_values": [3.0], "grid_degree": degree}
        )
        caplog.clear()
        assert cli.main(["flux", "--config", str(cfg)]) == 0
        assert f"# grid_order: {order}" in capsys.readouterr().out.split("\n")
        raised = [rec.message for rec in caplog.records if "raising to" in rec.message]
        assert len(raised) == (degree < 6)


def test_cli_flux_per_angle_json_lists_every_node(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "amplitude": {"model": "hard_sphere", "l_max": 4},
            "r_values": [2.0, 7.0],
            "per_angle": True,
            "grid_degree": 10,
            "format": "json",
        },
    )
    assert cli.main(["flux", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    grid = gauss_legendre_sphere(10)
    assert [block["R"] for block in doc["angles"]] == [2.0, 7.0]
    for block, row in zip(doc["angles"], doc["rows"]):
        samples = block["samples"]
        assert [(s["theta"], s["phi"]) for s in samples] == list(
            zip(grid.theta.tolist(), grid.phi.tolist())
        )
        flux = np.array([s["flux"] for s in samples])
        assert flux.min() == row["differential_min"] and flux.max() == row["differential_max"]
        # one value per polar ring, repeated over its azimuths
        rings = flux.reshape(grid.order + 1, -1)
        assert np.array_equal(rings, np.repeat(rings[:, :1], rings.shape[1], axis=1))


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


def test_cli_checks_refuse_a_cross_section_that_underflows(tmp_path, capsys):
    # coefficients near 1e-307 square to 0.0: optical, conservation and
    # two-path would divide by a zero cross section and pass untested
    cfg = _write_config(
        tmp_path,
        {"amplitude": {"model": "random_unitary", "n_channels": 2, "l_max": 3, "k": [1e308, 1e308]}},
    )
    assert cli.main(["check", "all", "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["check greens", "check unitarity"]
    assert all(line.endswith("PASS") for line in lines)
    assert captured.err.startswith("domain error:") and "underflows" in captured.err
    for name in ("optical", "conservation", "two-path"):
        assert cli.main(["check", name, "--config", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("domain error: summed cross section underflows")


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


def test_cli_flux_past_degree_75(tmp_path, capsys):
    # l_max = 100 has pair factors whose exact Laurent coefficients leave
    # float64; the flux rows do not need them
    cfg = _write_config(
        tmp_path,
        {
            "amplitude": {"model": "hard_sphere", "k": 1.0, "radius": 60.0, "l_max": 100},
            "r_values": [70.0],
            "format": "json",
        },
    )
    assert cli.main(["flux", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["amplitude"].endswith("l_max=100)")
    (row,) = doc["rows"]
    assert row["total_flux"] == doc["cross_section_total"]
    assert 0 < row["differential_min"] <= row["differential_max"]


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


def _oracle_tables(pairs) -> list[dict]:
    """``nearfield coeffs`` tables from the plain series product of conftest."""
    return [
        {
            "l": l,
            "j": j,
            "delta": j * (j + 1) - l * (l + 1),
            "rows": [
                {"n": n, "numerator": a, "denominator": 1}
                for n, a in enumerate(series_product_oracle(l, j) if j != l else ())
            ],
        }
        for l, j in pairs
    ]


def _oracle_csv(tables: list[dict]) -> str:
    lines = []
    for table in tables:
        lines.append(f"# l={table['l']} j={table['j']} delta={table['delta']}")
        if not table["delta"]:
            lines.append("# diagonal pair: series is identically 1, no correction rows")
            continue
        lines.append("n,numerator,denominator")
        lines += [f"{r['n']},{r['numerator']},{r['denominator']}" for r in table["rows"]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["--table", "12"], [(12, j) for j in range(13)]),
        (["--table", "12", "--format", "json"], [(12, j) for j in range(13)]),
        (["--l", "3", "--j", "120"], [(3, 120)]),
        (["--l", "61", "--j", "60", "--format", "json"], [(61, 60)]),
    ],
)
def test_cli_coeffs_equal_the_oracle(capsys, argv, pairs):
    assert cli.main(["coeffs", *argv]) == 0
    tables = _oracle_tables(pairs)
    if "json" in argv:
        expect = json.dumps({"tables": tables}, indent=2) + "\n"
    else:
        expect = _oracle_csv(tables)
    assert capsys.readouterr().out == expect


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


@pytest.mark.parametrize("seed", [1, 3])
def test_greens_battery_is_the_scalar_loop_draw(seed):
    # the draw as one scalar call per number, in the same stream order
    rng = np.random.default_rng(seed + 17)
    expect = []
    for _ in range(24):
        k = rng.uniform(0.3, 4.0)
        big = rng.uniform(2.0, 100.0) / k
        small = big * rng.uniform(0.02, 0.5)
        r_vec = big * unit_from_angles(
            np.arccos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * np.pi)
        )
        x_vec = small * unit_from_angles(
            np.arccos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * np.pi)
        )
        expect += [(k, r_vec, x_vec, sign) for sign in (1, -1)]
    record = cli._greens_battery(seed)
    assert record.k.shape == record.sign.shape == (48,)
    assert record.R_vec.shape == record.x_vec.shape == (48, 3)
    for i, (k, r_vec, x_vec, sign) in enumerate(expect):
        assert record.k[i] == k
        assert np.array_equal(record.R_vec[i], r_vec)
        assert np.array_equal(record.x_vec[i], x_vec)
        assert record.sign[i] == sign


def test_cli_check_greens_builds_one_query_record(monkeypatch):
    built = []
    post_init = greens.GreensQuery.__post_init__
    monkeypatch.setattr(
        greens.GreensQuery, "__post_init__", lambda q: built.append(1) or post_init(q)
    )
    assemble = greens._assemble
    cutoffs = []

    def spy(k, R_vec, x_vec, sign, cuts, s_max):
        cutoffs.append(cuts)
        return assemble(k, R_vec, x_vec, sign, cuts, s_max)

    monkeypatch.setattr(greens, "_assemble", spy)
    for seed in range(1, 6):
        built.clear()
        cutoffs.clear()
        config = RunConfig(seed=seed)
        cli._check_greens(config)
        assert len(built) <= 1
        record = cli._greens_battery(seed)
        expect = [
            greens.auto_l_max(float(k), float(np.linalg.norm(x)))
            for k, x in zip(record.k, record.x_vec)
        ]
        assert len(cutoffs) == 1 and cutoffs[0].tolist() == expect


# the five configs of the benchmark's `check all` workload, at fixed numbers
_CHECK_CONFIGS = (
    {"seed": 1},
    {"amplitude": {"model": "hard_sphere", "l_max": 8}, "seed": 2},
    {
        "amplitude": {
            "model": "random_unitary",
            "n_channels": 3,
            "l_max": 6,
            "seed": 86784151,
            "k": [0.71, 1.93, 1.2],
        },
        "seed": 3,
    },
    {"amplitude": {"file": "amp.json"}, "seed": 4},
    {"amplitude": {"model": "random_unitary", "n_channels": 3, "l_max": 12, "seed": 5}, "seed": 5},
)


def test_check_two_path_is_the_four_call_form(tmp_path):
    source = resolve_amplitude(
        RunConfig(
            amplitude={
                "model": "random_unitary",
                "n_channels": 2,
                "l_max": 4,
                "seed": 7,
                "k": [0.6, 1.7],
            }
        )
    )
    save_amplitude(tmp_path / "amp.json", source.f, source.channels)
    for doc in _CHECK_CONFIGS:
        config = load_config(_write_config(tmp_path, doc))
        source = cli._source_for_check(config)
        f, cs = source.f, source.channels
        directions = unit_from_angles(np.array([0.0, 1.1, 2.0, 2.9]), np.array([0.0, 0.7, 3.9, 5.2]))
        r_values = np.array([0.7, 2.0, 9.0, 120.0]) / min(cs.k(label) for label in cs.labels)
        exact = differential_flux_exact(f, cs, r_values, directions)
        series = [
            differential_flux_asymptotic(f, cs, r, directions, 2 * f.l_max) for r in r_values
        ]
        expect = float(np.max(np.abs(exact - series) / np.maximum(np.abs(exact), 1e-300)))
        assert cli._check_two_path(config, source) == expect


def test_resolve_amplitude_runs_the_unitarity_gate_once(monkeypatch):
    calls = []
    gate = SMatrixModel.unitarity_defect
    monkeypatch.setattr(SMatrixModel, "unitarity_defect", lambda m: calls.append(1) or gate(m))
    for spec in (
        {"model": "hard_sphere", "l_max": 8},
        {"model": "random_unitary", "n_channels": 3, "l_max": 6, "seed": 2, "kappa": [0.6, 0, 0.8]},
    ):
        calls.clear()
        source = resolve_amplitude(RunConfig(amplitude=spec))
        assert len(calls) == 1
        # the amplitude is the family's at the configured incident direction
        assert source.f == source.family(source.channels.entrance, source.kappa_hat)


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


def test_cli_check_conservation_of_a_zero_amplitude(tmp_path, capsys):
    # no scattering: the cross section is 0, and so is the defect
    cs = ChannelSet(channels=(Channel("a", 1.0), Channel("b", 0.8)), entrance="a")
    save_amplitude(tmp_path / "amp.json", PartialWaveAmplitude(), cs)
    cfg = _write_config(tmp_path, {"amplitude": {"file": "amp.json"}})
    assert cli.main(["check", "conservation", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "check conservation: defect=0.000e+00 tol=1.000e-09 PASS"
    )


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


def test_cli_check_optical_at_the_configured_incident_direction(tmp_path, capsys):
    # the forward amplitude is taken along kappa, the direction the
    # amplitude was built for, not along +z
    spec = {
        "model": "random_unitary", "n_channels": 2, "l_max": 4, "seed": 3, "kappa": [0.6, 0, 0.8]
    }
    assert resolve_amplitude(RunConfig(amplitude=spec)).kappa_hat == (0.6, 0.0, 0.8)
    hard_sphere = resolve_amplitude(RunConfig(amplitude={"model": "hard_sphere"}))
    assert hard_sphere.kappa_hat == (0.0, 0.0, 1.0)
    cfg = _write_config(tmp_path, {"amplitude": spec})
    assert cli.main(["check", "optical", "--config", str(cfg)]) == 0
    assert "check optical: " in capsys.readouterr().out


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


def test_cli_import_loads_no_argparse():
    # the command line is parsed by cli._parse, so the import pays for none
    # of argparse, gettext or the locale module gettext pulls in
    src = str(Path(nearfield.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nearfield.cli; "
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


_OPTION_CASES = [
    (["flux"], "--config", "run.json", "run.json"),
    (["flux", "--config", "run.json"], "--format", "json", "json"),
    (["flux", "--config", "run.json"], "--out", "rows.csv", "rows.csv"),
    (["coeffs"], "--l", "4", 4),
    (["coeffs"], "--j", "-2", -2),
    (["coeffs"], "--table", "5", 5),
    (["coeffs"], "--format", "csv", "csv"),
    (["coeffs"], "--out", "table.csv", "table.csv"),
    (["check"], "--config", "run.json", "run.json"),
    (["check", "greens"], "--out", "report.txt", "report.txt"),
]


@pytest.mark.parametrize("head,option,text,value", _OPTION_CASES)
def test_cli_parse_option_forms(head, option, text, value):
    spaced = cli._parse([*head, option, text])
    joined = cli._parse([*head, f"{option}={text}"])
    assert spaced == joined
    assert getattr(spaced, option.lstrip("-")) == value
    assert spaced.command == head[0]


def test_cli_parse_defaults_and_positional():
    args = cli._parse(["check"])
    assert (args.command, args.which, args.config, args.out) == ("check", "all", None, None)
    assert cli._parse(["check", "--config", "run.json", "two-path"]).which == "two-path"
    args = cli._parse(["coeffs", "--l", "1", "--j", "0"])
    assert (args.table, args.format, args.out) == (None, None, None)


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["flux", "-h"], ["coeffs", "--help"], ["check", "-h", "--l"]]
)
def test_cli_help_prints_the_usage_lines(argv, capsys):
    # help returns before any later token of the line is checked
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    for usage in ("nearfield flux --config", "nearfield coeffs --l L", "nearfield check [which]"):
        assert usage in out


@pytest.mark.parametrize(
    "argv,token",
    [
        ([], "command"),
        (["fluxes"], "'fluxes'"),
        (["flux", "--config", "run.json", "--bogus"], "'--bogus'"),
        (["flux", "--config", "run.json", "--l", "3"], "'--l'"),
        (["flux", "--conf", "run.json"], "'--conf'"),
        (["flux", "--config"], "--config"),
        (["coeffs", "--l", "--j", "0"], "--l"),
        (["flux", "--config", "run.json", "--format", "xml"], "'xml'"),
        (["coeffs", "--l", "1", "--j", "0", "--format=tsv"], "'tsv'"),
        (["check", "bogus"], "'bogus'"),
        (["check", "greens", "optical"], "'optical'"),
        (["coeffs", "--l", "x", "--j", "0"], "'x'"),
        (["coeffs", "--table=2.5"], "'2.5'"),
        (["flux"], "--config"),
        (["flux", "--format", "json"], "--config"),
    ],
)
def test_cli_usage_errors(argv, token, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("usage error: ")
    assert token in line


def test_cli_bare_table_means_three():
    assert cli._parse(["coeffs", "--table"]).table == 3
    args = cli._parse(["coeffs", "--table", "--format", "json"])
    assert (args.table, args.format) == (3, "json")
    assert cli._parse(["coeffs", "--out", "t.csv", "--table"]).table == 3


def test_cli_negative_degree_reaches_the_config_error(capsys):
    assert cli._parse(["coeffs", "--l", "-1", "--j", "0"]).l == -1
    assert cli.main(["coeffs", "--l", "-1", "--j", "0"]) == 2
    assert capsys.readouterr().err == "config error: coeffs: --l must be non-negative, got -1\n"
    assert cli.main(["coeffs", "--l", "1", "--j", "-3"]) == 2
    assert capsys.readouterr().err == "config error: coeffs: --j must be non-negative, got -3\n"
    assert cli.main(["coeffs", "--table", "-2"]) == 2
    assert capsys.readouterr().err == "config error: coeffs: --table must be non-negative, got -2\n"


def test_cli_repeated_option_takes_its_last_value():
    argv = ["coeffs", "--l", "1", "--j", "0", "--l=4", "--format=json", "--format", "csv"]
    args = cli._parse(argv)
    assert (args.l, args.j, args.format) == (4, 0, "csv")


def test_cli_main_reads_sys_argv(monkeypatch, capsys):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["nearfield", "coeffs", "--l", "1", "--j", "0"])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("# l=1 j=0 delta=-2")


@pytest.mark.parametrize("command", ["flux", "coeffs", "check"])
def test_cli_unwritable_out(command, tmp_path, capsys):
    # an output that cannot be opened is a usage fault (2), not a failed check (1)
    cfg = str(_write_config(
        tmp_path, {"amplitude": {"model": "hard_sphere", "l_max": 2}, "r_values": [5.0]}
    ))
    head = {
        "flux": ["flux", "--config", cfg],
        "coeffs": ["coeffs", "--l", "1", "--j", "0"],
        "check": ["check", "optical", "--config", cfg],
    }[command]
    path = str(tmp_path / "absent" / "out.txt")
    assert cli.main([*head, "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"config error: cannot write output {path}: ")
