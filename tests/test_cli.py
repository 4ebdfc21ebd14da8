"""Command-line interface: exit codes, artifacts, and file formats."""

import argparse
import io
import json
import math
import os
import pathlib
import re
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
from lplab.verify import default_corpus


def run(tmp_path, *argv):
    """Invoke the CLI with artifacts under tmp_path; return (code, out_dir)."""
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def run_fresh(tmp_path, *argv):
    """Invoke the CLI in a fresh interpreter, so stderr holds every warning,
    with artifacts under tmp_path / "out"; return the finished process."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-m", "lplab.cli", *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )


def read_summary(out_dir, name):
    with open(out_dir / f"{name}_summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def assert_one_config_error(code, capsys):
    """Exit 2 with a single `configuration error:` line on stderr."""
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: "), lines


def without_sources(summary):
    """summary with each inputs entry's value alone, for runs that give
    the same options in different places."""
    return {**summary, "inputs": {k: v["value"] for k, v in summary["inputs"].items()}}


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
        done = run_fresh(tmp_path, "norm", *argv, "--grid-dim", "2", "--grid-n", str(n),
                         "--in", str(path))
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("computation error: "), done.stderr
        assert (tmp_path / "out" / "error_summary.json").exists()

    def test_bands_overflow_prints_only_the_error_line(self, tmp_path):
        # the bands of samples near 1e160 are finite and their L^2 norms are
        # not: this used to print a numpy RuntimeWarning, write `inf,OK`
        # rows and exit 0
        path = tmp_path / "big.bin"
        band = TestFunctionSpec(family="random_band", band_index=2, seed=4)
        (1e160 * sample_family(band, GridSpec(2, 32)).data.real).tofile(path)
        done = run_fresh(tmp_path, "bands", "--grid-dim", "2", "--grid-n", "32", "--in", str(path))
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith("computation error: NonFiniteSample: ")
        assert not (tmp_path / "out" / "bands.csv").exists()
        with open(tmp_path / "out" / "error_summary.json", "r", encoding="utf-8") as fh:
            assert json.load(fh)["error"]["type"] == "NonFiniteSample"

    @pytest.mark.parametrize("argv", [
        ("bands",),
        ("norm", "--characterization", "lp"),
        ("norm", "--characterization", "diff"),
        ("maximal", "--variants", "S,V"),
    ], ids=["bands", "lp", "diff", "maximal"])
    def test_overflowing_spectrum_prints_only_the_error_line(self, tmp_path, argv):
        # finite samples whose DFT overflows used to print numpy's "overflow"
        # and "invalid value encountered in fft" warnings before the error
        path = tmp_path / "big.bin"
        band = TestFunctionSpec(family="random_band", band_index=2, seed=4)
        (1e307 * sample_family(band, GridSpec(2, 32)).data.real).tofile(path)
        done = run_fresh(tmp_path, *argv, "--grid-dim", "2", "--grid-n", "32", "--in", str(path))
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("computation error: "), done.stderr


class TestFastExit:
    """`python -m lplab.cli` flushes stdout and stderr and ends with
    os._exit once main returns: the output, the artifacts and the exit
    code are those of main, and no atexit handler runs."""

    def test_payload_reaches_a_pipe(self, tmp_path, monkeypatch):
        # a block-buffered stdout holds the payload until the flush
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        done = run_fresh(tmp_path, *NORM)
        assert (done.returncode, done.stderr) == (0, "")
        payload = json.loads(done.stdout)
        summary = read_summary(tmp_path / "out", "norm")
        assert payload == {key: summary[key] for key in payload}

    def test_verify_equivalence_artifacts_complete(self, tmp_path):
        done = run_fresh(tmp_path, *EQUIVALENCE)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        summary = read_summary(tmp_path / "out", "verify_equivalence")
        assert summary["verdict"] == "PASS"
        rows = read_rows(tmp_path / "out", "verify_equivalence")
        assert len(rows) == len(default_corpus(GridSpec(1, 64)))

    def test_config_error_exits_2(self, tmp_path):
        done = run_fresh(tmp_path, *NORM, "--s", "x")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "configuration error: s must be a number, got 'x'\n"
        assert not (tmp_path / "out").exists()

    def test_computation_error_exits_1(self, tmp_path):
        done = run_fresh(tmp_path, "maximal", "--grid-dim", "1", "--grid-n", "64",
                         "--function", "gauss_mid")
        assert done.returncode == 1
        assert done.stderr.startswith("computation error: DimensionTooLow: ")
        assert len(done.stderr.splitlines()) == 1
        with open(tmp_path / "out" / "error_summary.json", "r", encoding="utf-8") as fh:
            assert json.load(fh)["error"]["type"] == "DimensionTooLow"

    def test_no_teardown(self, tmp_path):
        # the atexit handler would print after the payload on a normal exit
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = "import atexit; from lplab import cli; atexit.register(print, 'torn down'); cli.entry()"
        done = subprocess.run(
            [sys.executable, "-c", code, *NORM, "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0 and "torn down" not in done.stdout
        assert json.loads(done.stdout)["flag"] == "OK"

    def test_failed_flush_exits_through_sys_exit(self, monkeypatch):
        # a closed pipe: the normal exit, which reports what it cannot flush
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        def no_fast_exit(code):
            raise AssertionError(f"os._exit({code})")

        monkeypatch.setattr(cli, "main", lambda: 1)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(os, "_exit", no_fast_exit)
        with pytest.raises(SystemExit) as done:
            cli.entry()
        assert done.value.code == 1


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

    def test_failing_member_exit_and_summary(self, tmp_path, capsys):
        # a member that cannot be sampled, after five that can: exit 1, one
        # typed line and the summary the one-member-at-a-time loop wrote
        corpus = [{"family": "gaussian", "width": 0.05, "label": f"g{i}"} for i in range(5)]
        corpus.append({"family": "gaussian", "width": 0.001, "label": "too_narrow"})
        cfg = tmp_path / "corpus.json"
        cfg.write_text(json.dumps({"corpus": corpus}))
        code, out = run(tmp_path, "verify", "equivalence", "--grid-dim", "1", "--grid-n", "256",
                        "--pair", "lp,diff", "--theorem", "T2i", "--config", str(cfg))
        message = "width 0.001 outside grid capability [0.015625, 0.125]"
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"computation error: UnresolvableSpec: {message}"]
        assert json.loads((out / "error_summary.json").read_text()) == {
            "command": "verify", "error": {"type": "UnresolvableSpec", "message": message}}
        assert not (out / "verify_equivalence.csv").exists()


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

    @pytest.mark.parametrize("alpha,label,grid", [
        (2, "2", ("1", "256")), ([1], "[1]", ("1", "256")), ([1, 2], "[1;2]", ("2", "32")),
    ], ids=["int", "list", "multi-index"])
    def test_ppn_rows_name_the_alpha_run(self, tmp_path, alpha, label, grid):
        # a multi-index label holds no comma, so each row keeps the header's
        # 8 cells
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": alpha}))
        code, out = run(tmp_path, "verify", "ppn", "--grid-dim", grid[0], "--grid-n", grid[1],
                        "--config", str(cfg))
        summary = read_summary(out, "verify_ppn")
        assert code == (0 if summary["verdict"] == "PASS" else 1)
        assert summary["alpha"] == ([alpha] if isinstance(alpha, int) else alpha)
        rows = [r.split(",") for r in read_rows(out, "verify_ppn")]
        assert [r[1] for r in rows] == [f"ppn:alpha={label}@t={t}" for t in (8, 16, 32)]
        assert all(len(r) == len(CSV_HEADER.split(",")) == 8 for r in rows)

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

    @pytest.mark.parametrize("section, key, value, named", [
        ("grid", "n", 64.7, "grid_n must be an integer"),
        ("space", "L", 1.9, "L must be an integer"),
        ("quad", "sphere_nodes", 7.5, "sphere_nodes must be an integer"),
        ("quad", "radial_nodes_per_octave", 2.5, "radial_per_octave must be an integer"),
        ("quad", "tau_octaves", True, "tau_octaves must be an integer"),
        ("quad", "h_min", "0.01", "h_min must be a number"),
        ("grid", "box", True, "grid_box must be a number"),
        ("space", "s", True, "s must be a number"),
        ("space", "s", "nan", "s must be a number"),
        ("space", "s", math.nan, "s must be finite"),
        ("space", "p", True, "p must be a number or inf"),
        ("space", "q", False, "q must be a number or inf"),
        ("space", "r", True, "r must be a number"),
        ("thresholds", "spread_limit", True, "spread_limit must be a number"),
        ("thresholds", "drift_limit", True, "drift_limit must be a number"),
        ("space", "smoothness", 2, "unknown key 'smoothness' in config section 'space'"),
        ("spacee", "s", 2, "unknown config key 'spacee'"),
        ("io", "output", None, "key 'output' in config section 'io' is null"),
        ("io", "output", "", "out_dir must be"),
        ("io", "output", 5, "out_dir must be"),
        ("quad", "h_min", None, "key 'h_min' in config section 'quad' is null"),
        ("space", "q", None, "key 'q' in config section 'space' is null"),
        (None, "space", None, "config key 'space' is null"),
        (None, "alpha", None, "config key 'alpha' is null"),
        (None, "homogeneous", False, "unknown config key 'homogeneous'"),
        (None, "spread_limit", 2, "unknown config key 'spread_limit'"),
        (None, "drift_limit", 0.1, "unknown config key 'drift_limit'"),
    ])
    def test_non_integral_or_non_numeric_config_rejected(self, tmp_path, capsys, monkeypatch,
                                                         section, key, value, named):
        # these ran truncated (n = 64, L = 1, 8 sphere nodes), were accepted
        # as given (true as 1.0), ran on defaults (unknown keys and nulls,
        # the null or blank output on ./lplab-artifacts, the output 5 in a
        # directory ./5), failed on a comparison of str and int or as a
        # computation error (s = nan), or overrode their section's key
        # (top-level homogeneous and limits); a section of None puts the
        # key at the top level
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
        # only the equivalence experiment reads the thresholds, and it reads
        # no --function
        command = (("verify", "equivalence") if section == "thresholds"
                   else ("norm", "--characterization", "diff", "--function", "gauss_mid"))
        code, out = run(tmp_path, *command, "--grid-dim", "2", "--grid-n", "32",
                        "--config", str(cfg))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ") and named in err, err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_non_finite_s_flag_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "norm", "--grid-dim", "1", "--grid-n", "64", "--s", "nan",
                        "--function", "gauss_mid")
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("configuration error: ") and "s must be finite" in err
        assert not out.exists()

    def test_integral_floats_in_config_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"dim": 2.0, "n": 32.0}, "space": {"L": 2.0},
                                   "quad": {"sphere_nodes": 8.0, "tau_octaves": 3.0}}))
        code, out = run(tmp_path / "config", "norm", "--characterization", "diff",
                        "--function", "gauss_mid", "--config", str(cfg))
        assert code == 0
        code, flags = run(tmp_path / "flags", "norm", "--characterization", "diff",
                          "--grid-dim", "2", "--grid-n", "32", "--L", "2", "--sphere-nodes", "8",
                          "--tau-octaves", "3", "--function", "gauss_mid")
        assert code == 0
        assert without_sources(read_summary(out, "norm")) == without_sources(
            read_summary(flags, "norm"))


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

    def test_repeated_variant_rejected(self, tmp_path, capsys):
        # it wrote two identical max:S rows
        code, out = run(
            tmp_path, "maximal", "--grid-dim", "2", "--grid-n", "32",
            "--function", "gauss_mid", "--variants", "S,V,S",
        )
        err = capsys.readouterr().err
        assert code == 2 and err == "configuration error: variants names 'S' twice\n"
        assert not out.exists()

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


COMMON_DEFAULTS = {
    "config": None, "grid_dim": 1, "grid_n": 256, "grid_box": 1.0, "space": "F", "s": 0.5,
    "p": 2.0, "q": 2.0, "L": 1, "r": 1.0, "homogeneous": True, "h_min": None, "h_max": None,
    "radial_per_octave": None, "sphere_nodes": None, "t_per_octave": None,
    "tau_per_octave": None, "tau_octaves": None, "allow_subgrid": None, "in_path": None,
    "out_dir": "lplab-artifacts", "function": "band_mid", "corpus": None,
}


# argv lists covering every command and experiment, with what each
# resolves to besides the COMMON_DEFAULTS of the options it reads, or the
# message that rejects it: argparse's for a flag the command does not read
PARSED = [
    (["bands"], {}),
    (["diff", "--grid-dim", "2", "--L", "2", "--space", "B", "--inhomogeneous"],
     {"grid_dim": 2, "space": "B", "L": 2, "homogeneous": False}),
    (["norm"], {"characterization": "lp"}),
    (["norm", "--characterization", "axis:1", "--p", "inf", "--allow-subgrid"],
     {"p": math.inf, "allow_subgrid": True, "characterization": "axis:1"}),
    (["maximal"], {"variants": ("S", "V")}),
    (["maximal", "--variants", "S,V_SUP", "--sphere-nodes", "8", "--tau-octaves", "3"],
     {"sphere_nodes": 8, "tau_octaves": 3, "variants": ("S", "V_SUP")}),
    (["corpus", "--out", "x", "--function", "gauss"], "unrecognized arguments: --function gauss"),
    (["corpus", "--out", "x"], {"out_dir": "x"}),
    (["verify", "scaling", "--m-values=-1,0"], {"characterization": "lp", "m_values": (-1, 0)}),
    (["verify", "equivalence", "--pair", "lp,max:V", "--spread-limit", "0.5"],
     "spread_limit must be a number >= 1, got '0.5'"),
    (["verify", "ppn", "--alpha", "2"], {"alpha": 2, "t_list": (8.0, 16.0, 32.0)}),
    (["verify", "kernel-decay", "--order", "3", "--tau-list", "1,2"],
     {"order": 3, "target_exponent": 4, "tau_list": (1.0, 2.0), "directions": 8}),
    (["verify", "divergence", "--levels", "3", "--h-min", "0.01"], {"h_min": 0.01, "levels": 3}),
    (["verify", "slice-support", "--band", "2", "--axis", "2", "--in", "f.bin",
      "--config", "c.json"],
     {"config": "c.json", "in_path": "f.bin", "band": 2, "axis": 2}),
]


COMMAND_NAMES = [*cli._HANDLERS, *(f"verify {name}" for name in cli._VERIFY_HANDLERS)]


def command_flags(parser, path=()):
    """{command path: the option flags of its parser, -h/--help aside} for
    the parser and every command and experiment under it."""
    flags = {path: {flag for action in parser._actions for flag in action.option_strings}
             - {"-h", "--help"}}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags.update(command_flags(sub, (*path, name)))
    return flags


class TestParser:
    """Every command and experiment resolves the shared options and its own,
    each flag to its converted value and each unset option to its
    default."""

    @pytest.mark.parametrize("argv, parsed", PARSED, ids=[" ".join(a) for a, _ in PARSED])
    def test_parsed_namespace(self, tmp_path, monkeypatch, capsys, argv, parsed):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text("{}")
        if isinstance(parsed, str) and parsed.startswith("unrecognized arguments"):
            with pytest.raises(SystemExit) as done:
                cli.build_parser(argv).parse_args(argv)
            assert done.value.code == 2 and parsed in capsys.readouterr().err
            return
        args = vars(cli.build_parser(argv).parse_args(argv))
        command = args.get("experiment") or args["command"]
        if isinstance(parsed, str):
            with pytest.raises(cli.ConfigParseError, match=re.escape(parsed)):
                cli._Options(command, args)
            return
        opts = cli._Options(command, args)
        assert opts.values == {**{name: value for name, value in COMMON_DEFAULTS.items()
                                  if ROWS[name].reads(command)}, **parsed}
        flagged = {row.name for row in cli._OPTIONS
                   if any(arg.split("=")[0] == row.flag for arg in argv)}
        assert {name for name, source in opts.sources.items() if source == "flag"} == flagged

    def test_every_command_and_experiment_covered(self):
        covered = {" ".join(argv[:2]) if argv[0] == "verify" else argv[0] for argv, _ in PARSED}
        assert covered == set(cli._HANDLERS) | {f"verify {name}" for name in cli._VERIFY_HANDLERS}

    @pytest.mark.parametrize("argv, named", [
        *(([*name.split(), "--grid-n", "64"], name) for name in COMMAND_NAMES),
        ([], None), (["--help"], None), (["verify"], None), (["verify", "--help"], None),
    ], ids=[*COMMAND_NAMES, "empty", "help", "verify", "verify-help"])
    def test_flags_only_on_the_named_command(self, argv, named):
        # the other commands parse none of argv, so they carry no flags
        flags = command_flags(cli.build_parser(argv))
        assert set(flags) == {(), ("verify",)} | {tuple(name.split()) for name in COMMAND_NAMES}
        want = {row.flag for row in cli._OPTIONS
                if named and row.flag and row.reads(named.split()[-1])}
        assert flags == {path: want if path == tuple((named or "").split()) else set()
                         for path in flags}


NORM = ("norm", "--grid-n", "64", "--function", "gauss_mid")
DIFF = ("diff", "--grid-n", "64", "--function", "gauss_mid")
EQUIVALENCE = ("verify", "equivalence", "--grid-n", "64")
KERNEL = ("verify", "kernel-decay", "--grid-dim", "2", "--grid-n", "64", "--grid-box", "16",
          "--directions", "1")
SLICE = ("verify", "slice-support", "--grid-dim", "2", "--grid-n", "32")

# per option: a command line that reads it, a valid flag text and the same
# value as a config's JSON value, where "{dir}" stands for a scratch
# directory; None where the option has no such spelling (the config path
# has no config key, the corpus no flag) or its flag takes no value
EXAMPLES = {
    "config": (NORM, None, None),
    "grid_dim": (("norm", "--grid-n", "32", "--function", "gauss_mid"), "2", 2),
    "grid_n": (("norm", "--function", "gauss_mid"), "64.0", 64.0),
    "grid_box": (NORM, "2", 2),
    "space": (NORM, "B", "B"),
    "s": (NORM, "0.75", 0.75),
    "p": (NORM, "1.5", 1.5),
    "q": (NORM, "inf", "inf"),
    "L": ((*NORM, "--characterization", "diff"), "2", 2),
    "r": (NORM, "1.5", 1.5),
    "homogeneous": (NORM, None, False),
    "h_min": (DIFF, "0.02", 0.02),
    "h_max": (DIFF, "0.2", 0.2),
    "radial_per_octave": (DIFF, "3", 3),
    "sphere_nodes": (("diff", "--grid-dim", "2", "--grid-n", "32", "--function", "gauss_mid"),
                     "8", 8),
    "t_per_octave": (DIFF, "3", 3),
    "tau_per_octave": (DIFF, "8", 8),
    "tau_octaves": (DIFF, "3", 3),
    "allow_subgrid": ((*DIFF, "--h-min", "0.01"), None, True),
    "in_path": (("norm", "--grid-n", "64", "--characterization", "diff"), "{dir}/field.bin",
                "{dir}/field.bin"),
    "out_dir": (NORM, "{dir}/elsewhere", "{dir}/elsewhere"),
    "function": (("norm", "--grid-n", "64"), "gauss_mid", "gauss_mid"),
    "corpus": (EQUIVALENCE, None, None),
    "characterization": (NORM, "diff", "diff"),
    "variants": (("maximal", "--grid-dim", "2", "--grid-n", "32", "--function", "gauss_mid",
                  "--sphere-nodes", "8", "--tau-octaves", "3"), "S", ["S"]),
    "m_values": (("verify", "scaling", "--grid-n", "64", "--function", "gauss_mid"), "-1,1",
                 [-1, 1]),
    "pair": (EQUIVALENCE, "diff,lp", ["diff", "lp"]),
    "theorem": (EQUIVALENCE, "T2i", "T2i"),
    "spread_limit": (EQUIVALENCE, "40", 40),
    "drift_limit": (EQUIVALENCE, "0.1", 0.1),
    "alpha": (("verify", "ppn", "--grid-dim", "2", "--grid-n", "32"), "1,2", [1, 2]),
    "t_list": (("verify", "ppn", "--grid-n", "64"), "8,16", [8, 16]),
    "order": (KERNEL, "2", 2),
    "target_exponent": (KERNEL, "5", 5),
    "tau_list": (KERNEL, "1,2", [1, 2]),
    "directions": (KERNEL, "2", 2),
    "levels": (("verify", "divergence", "--grid-n", "64", "--function", "gauss_mid"), "1", 1),
    "band": (SLICE, "2", 2),
    "axis": (SLICE, "2", 2),
}
ROWS = {row.name: row for row in cli._OPTIONS}
# each handler's command line
COMMANDS = {**{name: (name,) for name in cli._HANDLERS},
            **{name: ("verify", name) for name in cli._VERIFY_HANDLERS}}


def config_body(row, value):
    """A config holding value at the option's key, in its section if it has one."""
    section, _, key = row.config.rpartition(".")
    return {section: {key: value}} if section else {key: value}


class TestOptionTable:
    """Generated from cli._OPTIONS: every option rejects a null, a boolean
    where a number is due and a value of the wrong type, as a flag and as a
    config key, and a flag and a config key give the same run."""

    def test_examples_cover_the_table(self):
        assert list(EXAMPLES) == list(ROWS)

    def run_with(self, tmp_path, row, argv, spelling, value):
        """The exit code of argv with value given to the option by its flag
        (as text, which a flag without a value ignores) or by its config
        key; artifacts land in tmp_path / "out" unless the option names
        another directory."""
        tail = ["--out", str(tmp_path / "out")]
        if spelling == "flag":
            text = (value or "").replace("{dir}", str(tmp_path))
            tail += [row.flag] if row.const is not None else [f"{row.flag}={text}"]
        else:
            body = json.dumps(config_body(row, value)).replace("{dir}", str(tmp_path))
            (tmp_path / "cfg.json").write_text(body)
            tail += ["--config", str(tmp_path / "cfg.json")]
        return main([*argv, *tail])

    @pytest.mark.parametrize("name", list(EXAMPLES))
    def test_bad_values_named(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        row = ROWS[name]
        argv, flag_text, json_value = EXAMPLES[name]
        # a blank flag stands for a null; a number's flag also refuses true and x
        bad_flags = []
        if row.flag is not None and row.const is None:
            numeric = re.fullmatch(r"(-?[\d.]+|inf)(,-?[\d.]+)*", flag_text or "")
            bad_flags = ["", "true", "x"] if numeric else [""]
        bad_configs = []
        if row.config is not None:
            bad_configs = [None, {}] + ([] if isinstance(json_value, bool) else [True])
        for text in bad_flags:
            code = self.run_with(tmp_path, row, argv, "flag", text)
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("configuration error: "), (text, err)
            assert f"{name} must be" in err, (text, err)
        for value in bad_configs:
            code = self.run_with(tmp_path, row, argv, "config", value)
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("configuration error: "), (value, err)
            key = row.config.rpartition(".")[2]
            assert (f"key {key!r}" in err) if value is None else (f"{name} must be" in err), err
        assert sorted(os.listdir(tmp_path)) == (["cfg.json"] if bad_configs else [])

    @pytest.mark.parametrize("name", [n for n in EXAMPLES if ROWS[n].flag and ROWS[n].config])
    def test_flag_and_config_agree(self, tmp_path, name):
        row = ROWS[name]
        argv, flag_text, json_value = EXAMPLES[name]
        np.random.default_rng(2).standard_normal(64).tofile(tmp_path / "field.bin")
        artifact = argv[0] if argv[0] != "verify" else "verify_" + argv[1].replace("-", "_")
        out = tmp_path / ("elsewhere" if name == "out_dir" else "out")
        runs = []
        for spelling in ("flag", "config"):
            value = flag_text if spelling == "flag" else json_value
            code = self.run_with(tmp_path, row, argv, spelling, value)
            summary = read_summary(out, artifact)
            runs.append((code, read_rows(out, artifact), without_sources(summary)))
            if name != "out_dir":
                assert summary["inputs"][name]["source"] == spelling
        assert runs[0][0] in (0, 1)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", [n for n in EXAMPLES if ROWS[n].commands])
    def test_unread_option_rejected(self, tmp_path, capsys, monkeypatch, name):
        # a command that does not read the option refuses its flag, as
        # argparse does any unknown flag, and its config key by name; both
        # exit 2 and write nothing
        monkeypatch.chdir(tmp_path)
        row = ROWS[name]
        _, flag_text, json_value = EXAMPLES[name]
        command = next(c for c in COMMANDS if not row.reads(c))
        if row.flag is not None:
            with pytest.raises(SystemExit) as done:
                main([*COMMANDS[command], row.flag, *([] if row.const else [flag_text])])
            assert done.value.code == 2
            assert f"unrecognized arguments: {row.flag}" in capsys.readouterr().err
        (tmp_path / "cfg.json").write_text(json.dumps(config_body(
            row, [{}] if json_value is None else json_value)))
        assert_one_config_error(main([*COMMANDS[command], "--config", "cfg.json"]), capsys)
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestHelp:
    """Each command's --help lists exactly the options the table declares
    for it, each with its requirement and its default."""

    @pytest.mark.parametrize("command", [*cli._HANDLERS, *(f"verify {n}" for n in
                                                           cli._VERIFY_HANDLERS)])
    def test_help_matches_the_table(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "400")  # no line breaks inside a help text
        with pytest.raises(SystemExit) as done:
            main([*command.split(), "--help"])
        assert done.value.code == 0
        text = capsys.readouterr().out
        rows = [row for row in cli._OPTIONS if row.flag and row.reads(command.split()[-1])]
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", text, re.M)
        assert sorted(listed) == sorted([row.flag for row in rows] + ["--help"])
        flat = " ".join(text.split())
        for row in rows:
            default = row.derived or json.dumps(cli._jsonable(row.default))
            if row.const is None:
                want = f"{row.flag} {row.name.upper()} {row.requirement} (default: {default})"
            else:
                want = f"{row.flag} sets {row.name} to {json.dumps(row.const)} (default: {default})"
            assert want in flat, want


class TestNameLists:
    """Names and lists from a config: JSON lists are read as lists, and
    empty or non-numeric values are rejected with exit 2 instead of
    replaced by a default or raised as a traceback."""

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("maximal", "--grid-dim", "2", "--grid-n", "32", "--function", "gauss_mid"),
             {"variants": ""}),
            (("maximal", "--grid-dim", "2", "--grid-n", "32", "--function", "gauss_mid"),
             {"variants": []}),
            (("verify", "equivalence", "--grid-dim", "1", "--grid-n", "256"), {"pair": ""}),
            (("verify", "equivalence", "--grid-dim", "1", "--grid-n", "256"), {"theorem": ""}),
            (("norm", "--grid-dim", "1", "--grid-n", "64", "--function", "gauss_mid"),
             {"characterization": ""}),
        ],
        ids=["empty-variants", "empty-variants-list", "empty-pair", "empty-theorem",
             "empty-characterization"],
    )
    def test_empty_value_rejected(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run(tmp_path, *argv, "--config", str(cfg))
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
            (("norm", "--grid-dim", "1", "--grid-n", "64", "--out", ""), None),
            (("norm", "--grid-dim", "1", "--grid-n", "64"), {"io": {"output": ""}}),
            (("norm", "--grid-dim", "1", "--grid-n", "64"), {"io": {"output": 5}}),
            (("norm", "--grid-dim", "1", "--grid-n", "64", "--config", ""), None),
            (("verify", "equivalence", "--grid-dim", "1", "--grid-n", "256"), {"corpus": []}),
        ],
        ids=["t_list", "alpha", "m_values", "tau_list", "empty-function", "empty-input",
             "blank-out-flag", "blank-output", "numeric-output", "blank-config-flag",
             "empty-corpus"],
    )
    def test_bad_value_rejected(self, tmp_path, capsys, monkeypatch, argv, config):
        # a blank or numeric output once wrote into ./lplab-artifacts or ./5,
        # a blank --config was skipped, and an empty corpus was a
        # computation error with an error_summary.json
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = (*argv, "--config", "cfg.json")
        assert_one_config_error(main(list(argv)), capsys)
        assert os.listdir(tmp_path) == ([] if config is None else ["cfg.json"])

    @pytest.mark.parametrize("argv", [
        ("verify", "scaling", "--grid-dim", "1", "--grid-n", "256", "--characterization",
         "diff", "--m-values", "0"),
        ("verify", "scaling", "--grid-dim", "1", "--grid-n", "256", "--m-values", "0,0"),
        ("verify", "ppn", "--grid-dim", "1", "--grid-n", "256", "--t-list", "8"),
    ], ids=["m_values-zero", "m_values-zeros", "t_list-one"])
    def test_nothing_to_measure_rejected(self, tmp_path, capsys, argv):
        # m = 0 alone reads back the expected exponent, and one radius a
        # spread of 1: either would PASS without measuring anything
        code, out = run(tmp_path, *argv)
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

    @pytest.mark.parametrize("command", ["maximal", "diff"])
    @pytest.mark.parametrize("nodes", ["0", "3"])
    def test_too_few_sphere_nodes_rejected(self, tmp_path, capsys, command, nodes):
        # 0 once fell back to the default 32 nodes, 3 ended in a computation
        # error; both are bad configuration on a 2-D grid
        code, out = run(tmp_path, command, "--grid-dim", "2", "--grid-n", "32",
                        "--sphere-nodes", nodes)
        assert_one_config_error(code, capsys)
        assert not (out / "error_summary.json").exists()

    def test_sphere_nodes_ignored_in_one_dimension(self, tmp_path):
        # the 1-D sphere is the two points +1 and -1 whatever the count
        code, out = run(tmp_path, "diff", "--grid-dim", "1", "--grid-n", "64",
                        "--function", "gauss_mid", "--sphere-nodes", "0")
        assert code == 0
        assert len(read_rows(out, "diff")) == 1

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
