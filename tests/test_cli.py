"""Command-line interface: exit codes, artifacts, and file formats."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lplab import cli
from lplab.cli import CSV_HEADER, load_field, main, save_field
from lplab.errors import IoError
from lplab.fields import GridSpec, SampledField, TestFunctionSpec, sample_family
from lplab.quasinorms import SpaceParams, default_quadrature, quasinorm


def run(tmp_path, *argv):
    """Invoke the CLI with artifacts under tmp_path; return (code, out_dir)."""
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_summary(out_dir, name):
    with open(out_dir / f"{name}_summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def assert_one_config_error(code, capsys):
    """Exit 2 with a single `configuration error:` line on stderr."""
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines


def read_rows(out_dir, name):
    with open(out_dir / f"{name}.csv", "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    return lines[1:]


class TestFieldFiles:
    def test_complex_roundtrip(self, tmp_path, grid1d):
        rng = np.random.default_rng(7)
        data = rng.normal(size=256) + 1j * rng.normal(size=256)
        field = SampledField(grid1d, data)
        path = str(tmp_path / "f.bin")
        save_field(path, field)
        back = load_field(path, grid1d)
        assert np.array_equal(back.data, data)

    def test_real_file_loads_as_complex(self, tmp_path, grid1d):
        values = np.linspace(0.0, 1.0, 256)
        path = str(tmp_path / "f.bin")
        values.tofile(path)
        back = load_field(path, grid1d)
        assert back.data.dtype == np.complex128
        assert np.array_equal(back.data.real, values)

    def test_wrong_size_rejected(self, tmp_path, grid1d):
        path = str(tmp_path / "f.bin")
        np.zeros(100).tofile(path)
        with pytest.raises(IoError):
            load_field(path, grid1d)

    def test_missing_file_rejected(self, tmp_path, grid1d):
        with pytest.raises(IoError):
            load_field(str(tmp_path / "absent.bin"), grid1d)


class TestFileErrors:
    """Unreadable inputs and unwritable outputs are configuration errors."""

    def test_directory_as_input(self, tmp_path, capsys):
        code, _ = run(tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
                      "--in", str(tmp_path))
        assert_one_config_error(code, capsys)

    def test_output_below_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["bands", "--grid-dim", "1", "--grid-n", "256", "--function", "gauss_mid",
                     "--out", str(blocker / "x")])
        assert_one_config_error(code, capsys)


class TestNormCommand:
    def test_json_payload_and_artifacts(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "band_mid", "--s", "0.5",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"value", "per_scale", "truncation_report", "flag"}
        assert payload["value"] > 0.0
        assert payload["flag"] == "OK"
        rows = read_rows(out, "norm")
        assert len(rows) == 1
        cells = rows[0].split(",")
        assert cells[0] == "band_mid"
        assert cells[1] == "lp"
        assert cells[-1] == "OK"
        assert math.isclose(float(cells[-2]), payload["value"], rel_tol=1e-15)

    def test_point_difference_alias(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "norm", "--grid-dim", "2", "--grid-n", "32",
            "--function", "gauss_mid", "--characterization", "max:D",
            "--sphere-nodes", "8", "--tau-per-octave", "4", "--tau-octaves", "3",
        )
        assert code == 0
        json.loads(capsys.readouterr().out)
        assert read_rows(out, "norm")[0].split(",")[1] == "max:D_SUP"

    def test_input_file_path(self, tmp_path, capsys, grid1d):
        rng = np.random.default_rng(3)
        spectrum = np.zeros(256, dtype=np.complex128)
        spectrum[12:25] = rng.normal(size=13)
        field = SampledField(grid1d, np.fft.ifft(spectrum))
        path = str(tmp_path / "field.bin")
        save_field(path, field)
        code, _ = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--in", path, "--characterization", "diff",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] > 0.0


class TestExitCodes:
    def test_zero_p_config_is_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"space": {"p": 0}}))
        code, _ = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "gauss_mid", "--config", str(cfg),
        )
        assert code == 2

    def test_malformed_config_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _ = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "gauss_mid", "--config", str(cfg),
        )
        assert code == 2

    def test_missing_input_file(self, tmp_path):
        code, _ = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--in", str(tmp_path / "absent.bin"),
        )
        assert code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["norm", "--badflag"])
        assert err.value.code == 2

    def test_computation_error_serialized(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "maximal", "--grid-dim", "1", "--grid-n", "256",
            "--function", "gauss_mid",
        )
        assert code == 1
        with open(out / "error_summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["error"]["type"] == "DimensionTooLow"

    def test_unwritable_error_summary_is_reported(self, tmp_path, capsys):
        # an --out below a regular file used to turn the typed error into a
        # NotADirectoryError traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["maximal", "--grid-dim", "1", "--grid-n", "64", "--function",
                     "gauss_mid", "--out", str(blocker / "x")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2, lines
        assert lines[0].startswith("computation error: DimensionTooLow")
        assert lines[1].startswith("cannot write ") and "error_summary.json" in lines[1]

    def test_internal_error_serialized(self, tmp_path, capsys, monkeypatch):
        # an exception that is not an LplabError, here a MemoryError raised
        # inside a handler, ends in one line, error_summary.json and exit 1
        def out_of_memory(opts):
            raise MemoryError("cannot allocate 16.0 GiB")

        monkeypatch.setitem(cli._HANDLERS, "maximal", out_of_memory)
        code, out = run(tmp_path, "maximal", "--grid-dim", "2", "--grid-n", "32",
                        "--function", "gauss_mid")
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["internal error: MemoryError: cannot allocate 16.0 GiB"]
        with open(out / "error_summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["command"] == "maximal"
        assert summary["error"] == {"type": "MemoryError", "message": "cannot allocate 16.0 GiB"}
        assert summary["traceback"][0].startswith("Traceback")
        assert summary["traceback"][-1] == "MemoryError: cannot allocate 16.0 GiB\n"

    def test_keyboard_interrupt_ends_the_run(self, tmp_path, monkeypatch):
        def interrupted(opts):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._HANDLERS, "maximal", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path, "maximal", "--grid-dim", "2", "--grid-n", "32",
                "--function", "gauss_mid")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cid", ["axis:x", "axis:", "axis:1.5"])
    def test_non_integer_axis_is_config_error(self, tmp_path, capsys, cid):
        code, out = run(tmp_path, "norm", "--characterization", cid, "--grid-dim", "1",
                        "--grid-n", "64", "--function", "gauss_mid")
        assert_one_config_error(code, capsys)
        assert not out.exists()

    def test_axis_outside_grid_is_config_error(self, tmp_path, capsys):
        # the library's InvalidAxis, like a non-integer J, names a bad request
        code, out = run(tmp_path, "norm", "--characterization", "axis:3", "--grid-dim", "2",
                        "--grid-n", "32", "--function", "gauss_mid")
        assert_one_config_error(code, capsys)
        assert not out.exists()

    def test_unknown_theorem_is_config_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", "equivalence", "--grid-dim", "1", "--grid-n", "256",
                        "--theorem", "T99")
        assert_one_config_error(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("cid,q", [("diff", "2"), ("diff", "1"), ("lp", "2")])
    def test_overflowing_aggregate_is_computation_error(self, tmp_path, capsys, cid, q):
        # finite samples near 1e160 used to give `value inf`, flag OK, exit 0
        path = tmp_path / "big.bin"
        data = np.random.default_rng(8).standard_normal((32, 32))
        if cid == "lp":
            # white noise has energy outside the bands, which decompose
            # rejects at any scale; a band field reaches the aggregate
            band = TestFunctionSpec(family="random_band", band_index=2, seed=4)
            data = sample_family(band, GridSpec(2, 32)).data.real
        (1e160 * data).tofile(path)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run(
                tmp_path, "norm", "--characterization", cid, "--grid-dim", "2",
                "--grid-n", "32", "--q", q, "--in", str(path),
            )
        assert code == 1
        assert not (out / "norm.csv").exists()
        with open(out / "error_summary.json", "r", encoding="utf-8") as fh:
            assert json.load(fh)["error"]["type"] == "NonFiniteSample"

    @pytest.mark.parametrize("scale,n,argv", [
        (1e160, 32, ("--characterization", "lp")),
        (1e160, 32, ("--characterization", "diff")),
        (1e160, 32, ("--characterization", "diff", "--q", "1")),
        (1e160, 32, ("--characterization", "max:V")),
        (1e160, 32, ("--characterization", "max:V", "--space", "B", "--p", "1", "--q", "2")),
        (1e153, 32, ("--characterization", "diff", "--q", "1")),
        (1e100, 32, ("--characterization", "diff", "--space", "B", "--q", "4")),
        (1e160, 128, ("--characterization", "diff", "--q", "1")),
    ], ids=["lp", "diff", "diff-q1", "max:V", "max:V-B-p1", "diff-q1-1e153", "diff-B-q4-1e100",
            "diff-q1-n128"])
    def test_overflow_prints_only_the_error_line(self, tmp_path, scale, n, argv):
        # overflowing samples used to print numpy RuntimeWarnings, or raise a
        # raw OverflowError from a float power or math.fsum, before or
        # instead of the typed error
        path = tmp_path / "big.bin"
        (scale * np.random.default_rng(8).standard_normal((n, n))).tofile(path)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-m", "lplab.cli", "norm", *argv, "--grid-dim", "2",
             "--grid-n", str(n), "--in", str(path), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("computation error: "), done.stderr
        assert (tmp_path / "out" / "error_summary.json").exists()


class TestEquivalenceCommand:
    def test_corpus_rows_and_spread(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "equivalence", "--grid-dim", "1",
            "--grid-n", "256", "--pair", "lp,diff", "--theorem", "T2i",
            "--s", "0.5",
        )
        assert code == 0
        rows = read_rows(out, "verify_equivalence")
        assert len(rows) == 12
        for row in rows:
            cells = row.split(",")
            assert cells[1] == "lp/diff"
            assert cells[-1] in ("OK", "TRUNCATION-WARN", "DIVERGENT")
        summary = read_summary(out, "verify_equivalence")
        assert summary["verdict"] == "PASS"
        assert summary["spread"] == pytest.approx(1.363903, rel=1e-4)

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "verify", "equivalence", "--grid-dim", "1", "--grid-n", "256",
            "--pair", "lp,diff", "--theorem", "T2i", "--s", "0.5",
        ]
        paths = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(argv + ["--out", str(out)]) == 0
            paths.append(out)
        for name in ("verify_equivalence.csv", "verify_equivalence_summary.json"):
            first = (paths[0] / name).read_bytes()
            second = (paths[1] / name).read_bytes()
            assert first == second

    def test_unsatisfied_window_exits_zero(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "equivalence", "--grid-dim", "1",
            "--grid-n", "256", "--pair", "lp,diff", "--theorem", "T2i",
            "--s", "1.5", "--L", "1",
        )
        assert code == 0
        assert read_summary(out, "verify_equivalence")["verdict"] == "NO-VERDICT"


class TestVerifyCommands:
    def test_scaling_pass(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "scaling", "--grid-dim", "1", "--grid-n", "256",
            "--function", "gauss_mid", "--characterization", "lp", "--s", "0.5",
        )
        assert code == 0
        summary = read_summary(out, "verify_scaling")
        assert summary["verdict"] == "PASS"
        assert summary["max_deviation"] <= summary["tolerance"]

    def test_ppn_pass_and_rows(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "ppn", "--grid-dim", "1", "--grid-n", "512",
            "--alpha", "1", "--p", "2", "--q", "2",
        )
        assert code == 0
        summary = read_summary(out, "verify_ppn")
        assert summary["verdict"] == "PASS"
        assert summary["max_over_min"] <= 1.5
        assert len(read_rows(out, "verify_ppn")) == 3

    @pytest.mark.parametrize("alpha,label", [(None, "1"), (2, "2"), ([1], "[1]")],
                             ids=["null", "int", "list"])
    def test_ppn_rows_name_the_alpha_run(self, tmp_path, alpha, label):
        # config "alpha": null runs the default alpha 1, and the rows used
        # to print it as alpha=None
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": alpha}))
        code, out = run(tmp_path, "verify", "ppn", "--grid-dim", "1", "--grid-n", "256",
                        "--config", str(cfg))
        summary = read_summary(out, "verify_ppn")
        assert code == (0 if summary["verdict"] == "PASS" else 1)
        assert summary["alpha"] == [int(label.strip("[]"))]
        assert [r.split(",")[1] for r in read_rows(out, "verify_ppn")] == [
            f"ppn:alpha={label}@t={t}" for t in (8, 16, 32)]

    def test_divergence_classification(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "divergence", "--grid-dim", "1",
            "--grid-n", "256", "--function", "gauss_narrow",
            "--s", "2", "--L", "1",
        )
        assert code == 0
        summary = read_summary(out, "verify_divergence")
        assert summary["classification"] == "DIVERGENT"
        assert all(1.4 <= g <= 2.8 for g in summary["growth_factors"])

    def test_slice_support_pass(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "slice-support", "--grid-dim", "2",
            "--grid-n", "64", "--axis", "1",
        )
        assert code == 0
        assert read_summary(out, "verify_slice_support")["verdict"] == "PASS"


class TestCorpusCommand:
    def test_materializes_twelve_members(self, tmp_path, grid1d):
        code, out = run(tmp_path, "corpus", "--grid-dim", "1", "--grid-n", "256")
        assert code == 0
        summary = read_summary(out, "corpus")
        assert len(summary["members"]) == 12
        for member in summary["members"]:
            field = load_field(str(out / member["file"]), grid1d)
            assert np.all(np.isfinite(field.data))
        assert len(read_rows(out, "corpus")) == 12


class TestConfigOverride:
    def test_config_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"space": {"s": 0.9, "p": 4.0}, "function": "band_mid"}
        ))
        code, out = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "gauss_mid", "--s", "0.5", "--config", str(cfg),
        )
        assert code == 0
        params = read_summary(out, "norm")["params"]
        assert params["s"] == 0.9
        assert params["p"] == 4.0
        assert read_rows(out, "norm")[0].split(",")[0] == "band_mid"

    def test_infinite_q_spelled_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"q": "inf"}}))
        code, out = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "band_mid", "--config", str(cfg),
        )
        assert code == 0
        assert read_summary(out, "norm")["params"]["q"] == "inf"


class TestBandsCommand:
    def test_band_rows_cover_decomposition(self, tmp_path):
        code, out = run(
            tmp_path, "bands", "--grid-dim", "1", "--grid-n", "256",
            "--function", "band_mid",
        )
        assert code == 0
        summary = read_summary(out, "bands")
        rows = read_rows(out, "bands")
        assert len(rows) == summary["bands"]
        assert summary["j_min"] <= summary["j_max"]


class TestMaximalCommand:
    def test_variant_rows(self, tmp_path):
        code, out = run(
            tmp_path, "maximal", "--grid-dim", "2", "--grid-n", "32",
            "--function", "gauss_mid", "--variants", "S,V",
            "--sphere-nodes", "8", "--tau-per-octave", "4", "--tau-octaves", "3",
        )
        assert code == 0
        rows = read_rows(out, "maximal")
        assert [r.split(",")[1] for r in rows] == ["max:S", "max:V"]

    def test_unknown_variant_rejected(self, tmp_path):
        code, _ = run(
            tmp_path, "maximal", "--grid-dim", "2", "--grid-n", "32",
            "--function", "gauss_mid", "--variants", "S,BOGUS",
        )
        assert code == 2

    def test_unknown_variant_rejected_below_dim_two(self, tmp_path, capsys):
        # the name check comes before the dimension check
        code, out = run(
            tmp_path, "maximal", "--grid-dim", "1", "--grid-n", "64",
            "--function", "gauss_mid", "--variants", "S,BOGUS",
        )
        assert_one_config_error(code, capsys)
        assert not out.exists()


class TestNameLists:
    """Names and lists from a config: JSON lists are read as lists, and
    empty or non-numeric values are rejected with exit 2 instead of
    replaced by a default or raised as a traceback."""

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("maximal", "--grid-dim", "2", "--grid-n", "32"), {"variants": ""}),
            (("maximal", "--grid-dim", "2", "--grid-n", "32"), {"variants": []}),
            (("verify", "equivalence", "--grid-dim", "1", "--grid-n", "256"), {"pair": ""}),
            (("verify", "equivalence", "--grid-dim", "1", "--grid-n", "256"), {"theorem": ""}),
            (("norm", "--grid-dim", "1", "--grid-n", "64"), {"characterization": ""}),
        ],
        ids=["empty-variants", "empty-variants-list", "empty-pair", "empty-theorem",
             "empty-characterization"],
    )
    def test_empty_value_rejected(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run(tmp_path, *argv, "--function", "gauss_mid", "--config", str(cfg))
        assert code == 2
        assert next(iter(config)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("verify", "ppn", "--grid-dim", "1", "--grid-n", "256"), {"t_list": "a,b"}),
            (("verify", "ppn", "--grid-dim", "1", "--grid-n", "256"), {"alpha": "x"}),
            (("verify", "scaling", "--grid-dim", "1", "--grid-n", "256"), {"m_values": [1, "z"]}),
            (("verify", "kernel-decay", "--grid-dim", "2", "--grid-n", "32"),
             {"tau_list": "a,b"}),
            (("norm", "--grid-dim", "1", "--grid-n", "64"), {"function": ""}),
            (("norm", "--grid-dim", "1", "--grid-n", "64"), {"io": {"input": ""}}),
        ],
        ids=["t_list", "alpha", "m_values", "tau_list", "empty-function", "empty-input"],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run(tmp_path, *argv, "--config", str(cfg))
        assert_one_config_error(code, capsys)
        assert not out.exists()

    def test_variants_json_list_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variants": ["S", "V"], "quad": {"sphere_nodes": 8}}))
        code, out = run(
            tmp_path, "maximal", "--grid-dim", "2", "--grid-n", "32",
            "--function", "gauss_mid", "--config", str(cfg),
        )
        assert code == 0
        assert [r.split(",")[1] for r in read_rows(out, "maximal")] == ["max:S", "max:V"]


class TestExplicitZeros:
    """Explicit zeros and false strings are honoured or rejected, never
    silently replaced by a default."""

    def test_zero_divergence_levels_rejected(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "verify", "divergence", "--grid-dim", "1", "--grid-n", "64",
            "--function", "gauss_mid", "--levels", "0",
        )
        assert code == 2
        assert "levels" in capsys.readouterr().err
        assert not (out / "verify_divergence.csv").exists()

    def test_divergence_levels_honoured(self, tmp_path):
        code, out = run(
            tmp_path, "verify", "divergence", "--grid-dim", "1", "--grid-n", "64",
            "--function", "gauss_mid", "--levels", "1",
        )
        assert code == 0
        assert len(read_rows(out, "verify_divergence")) == 2

    def test_zero_spread_limit_rejected(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "verify", "equivalence", "--grid-dim", "1",
            "--grid-n", "256", "--pair", "lp,diff", "--theorem", "T2i",
            "--s", "0.5", "--spread-limit", "0",
        )
        assert code == 2
        assert "spread_limit" in capsys.readouterr().err
        assert not (out / "verify_equivalence_summary.json").exists()

    def test_zero_axis_rejected(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "verify", "slice-support", "--grid-dim", "2",
            "--grid-n", "64", "--axis", "0",
        )
        assert code == 2
        assert "axis" in capsys.readouterr().err
        assert not (out / "verify_slice_support.csv").exists()

    def test_band_zero_kept_where_valid(self, tmp_path):
        # a box-2 grid resolves bands from 0 up
        code, out = run(
            tmp_path, "verify", "slice-support", "--grid-dim", "2",
            "--grid-n", "64", "--grid-box", "2", "--band", "0",
        )
        assert code == 0
        assert read_summary(out, "verify_slice_support")["band"] == 0

    def test_band_outside_range_rejected(self, tmp_path):
        code, _ = run(
            tmp_path, "verify", "slice-support", "--grid-dim", "2",
            "--grid-n", "64", "--band", "0",
        )
        assert code == 2

    def test_false_string_homogeneous_reads_false(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"homogeneous": "false"}}))
        code, out = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "band_mid", "--config", str(cfg),
        )
        assert code == 0
        assert read_summary(out, "norm")["params"]["homogeneous"] is False

    def test_non_boolean_homogeneous_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": {"homogeneous": "no"}}))
        code, _ = run(
            tmp_path, "norm", "--grid-dim", "1", "--grid-n", "256",
            "--function", "band_mid", "--config", str(cfg),
        )
        assert code == 2


class TestLibraryParity:
    """CLI `norm` against the library's `quasinorm` on the same file and
    quadrature, over random valid parameters; p = 2 with B or q = 2 takes
    the step-energy path, any other p the magnitude path."""

    @given(
        grid=st.sampled_from([GridSpec(1, 16), GridSpec(1, 64), GridSpec(2, 16),
                              GridSpec(2, 32), GridSpec(2, 64)]),
        cid=st.sampled_from(["diff", "axis"]),
        s=st.floats(0.1, 1.9),
        p=st.sampled_from(["0.5", "1", "1.5", "2", "3"]),
        q=st.sampled_from(["0.5", "1", "2", "4", "inf"]),
        scale=st.sampled_from(["F", "B"]),
        order=st.integers(1, 3),
        complex_field=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    # one call on each path at the largest grid, whatever is drawn
    @example(grid=GridSpec(2, 64), cid="diff", s=0.5, p="2", q="2", scale="F", order=1,
             complex_field=False, seed=0)
    @example(grid=GridSpec(2, 64), cid="diff", s=0.5, p="1", q="inf", scale="B", order=2,
             complex_field=False, seed=1)
    @settings(max_examples=40, deadline=None)
    def test_norm_matches_quasinorm(self, tmp_path_factory, grid, cid, s, p, q, scale, order,
                                    complex_field, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(grid.shape)
        if complex_field:
            data = data + 1j * rng.standard_normal(grid.shape)
        tmp = tmp_path_factory.mktemp("parity")
        save_field(str(tmp / "f.bin"), SampledField(grid, data))
        code = main(["norm", "--characterization", cid, "--grid-dim", str(grid.dim),
                     "--grid-n", str(grid.n), "--in", str(tmp / "f.bin"), "--s", repr(s),
                     "--p", p, "--q", q, "--space", scale, "--L", str(order),
                     "--radial-per-octave", "2", "--sphere-nodes", "4", "--out", str(tmp)])
        assert code == 0
        params = SpaceParams(s=s, p=float(p), q=float(q), L=order, scale=scale)
        quad = default_quadrature(grid, radial_nodes_per_octave=2, sphere_nodes=4)
        want = quasinorm(load_field(str(tmp / "f.bin"), grid), cid, params, quad)
        [row] = read_rows(tmp, "norm")
        assert float(row.split(",")[6]) == pytest.approx(want.value, rel=1e-12)
        assert row.split(",")[7] == want.flag


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_import_keeps_blas_to_one_thread(preset, want):
    # in a fresh interpreter, importing lplab before numpy sets one OpenBLAS
    # thread, and keeps a count the environment already gives
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c",
         "import os, lplab, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == want
