"""Command-line interface: configuration parsing and CSV/JSON artifacts.

Subcommands: bands, diff, maximal, norm, corpus, and verify
{scaling, equivalence, ppn, kernel-decay, divergence, slice-support}.
Each option is declared once, in `_OPTIONS`; `lplab <command> --help`
lists its defaults.  A flag accepts what its config key accepts, and
`--config file.json` overrides every flag; a blank or mistyped value,
output and config paths included, is a configuration error.  Field
files are raw float64 binary: either one value per sample (real data) or
interleaved real/imaginary pairs.  Every run emits a CSV table with the
fixed header (function_id, characterization, s, p, q, L, value, flag)
plus a JSON summary whose `inputs` block gives each option read, its
value and its source; verify runs exit 0 on PASS or NO-VERDICT, 1 on
FAIL, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import asdict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .bands import band_project, build_band_system, decompose
from .errors import ConfigParseError, InvalidAxis, IoError, LplabError, UnknownTheoremId
from .fields import GridSpec, SampledField, TestFunctionSpec, lp_norm, sample_family
from .quasinorms import (
    CHARACTERIZATION_IDS,
    MAXIMAL_VARIANTS,
    QuadratureSpec,
    QuasinormResult,
    SpaceParams,
    default_quadrature,
    maximal_quasinorm_set,
    quasinorm,
)
from .verify import (
    band_limited_profile,
    default_corpus,
    directional_window,
    divergence_probe,
    equivalence_experiment,
    kernel_decay_probe,
    ppn_probe,
    scaling_experiment,
    slice_support_check,
)

CSV_HEADER = "function_id,characterization,s,p,q,L,value,flag"
# the row flags, mildest first
_FLAGS = ("OK", "TRUNCATION-WARN", "DIVERGENT")

# spec'd shorthand for the point-difference maximal form
_CHARACTERIZATION_ALIASES = {"max:D": "max:D_SUP"}
# errors in the request itself: exit 2, with no error_summary.json; the
# library raises the last two on an axis or theorem id it does not know
_CONFIG_ERRORS = (ConfigParseError, IoError, InvalidAxis, UnknownTheoremId)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _jsonable(obj):
    """Recursively convert to JSON-safe values; infinities become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# field files: raw float64, real or interleaved complex


def load_field(path: str, grid: GridSpec) -> SampledField:
    try:
        raw = np.fromfile(path, dtype=np.float64)
    except OSError as exc:
        raise IoError(f"cannot read field file {path}: {exc}") from exc
    n = grid.num_points
    if raw.size == 2 * n:
        data = raw.view(np.complex128).reshape(grid.shape)
    elif raw.size == n:
        data = raw.reshape(grid.shape).astype(np.complex128)
    else:
        raise IoError(
            f"field file holds {raw.size} float64 values; grid needs {n} (real) "
            f"or {2 * n} (interleaved complex)"
        )
    return SampledField(grid, data)


def save_field(path: str, field: SampledField) -> None:
    try:
        field.data.astype(np.complex128).view(np.float64).tofile(path)
    except OSError as exc:
        raise IoError(f"cannot write field file {path}: {exc}") from exc


def _make_dirs(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# converters: each reads a flag's text or a config's JSON value, and raises
# TypeError or ValueError on anything else


class _FlagText(str):
    """A flag's text, which _number reads where it refuses a JSON string."""


def _number(raw) -> float:
    """A JSON number or a flag's text that float() reads, not a boolean."""
    if isinstance(raw, bool) or (isinstance(raw, str) and not isinstance(raw, _FlagText)):
        raise ValueError(f"not a number: {raw!r}")
    return float(raw)


def _integer(raw) -> int:
    value = _number(raw)
    if not value.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return int(value)


def _exponent(raw) -> float:
    """A _number that may also be a JSON string, such as "inf"."""
    return _number(_FlagText(raw) if isinstance(raw, str) else raw)


def _boolean(raw) -> bool:
    """JSON booleans and the strings true/false; bool() would read "false" as True."""
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"not a boolean: {raw!r}")


def _text(raw) -> str:
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError(f"not a nonblank string: {raw!r}")
    return str(raw)


def _cid(raw) -> str:
    """A characterization id, its alias resolved."""
    return _CHARACTERIZATION_ALIASES.get(_text(raw), str(raw))


def _object(raw) -> dict:
    """A JSON object; _spec reads it as a test-function spec."""
    if not isinstance(raw, dict):
        raise TypeError(f"not an object: {raw!r}")
    return raw


def _list(item: Callable) -> Callable:
    """A converter of a JSON list, or of a comma list as text, whose
    nonblank items each convert by item."""
    def convert(raw) -> tuple:
        if isinstance(raw, str):
            raw = [_FlagText(piece.strip()) for piece in raw.split(",") if piece.strip()]
        if not isinstance(raw, list):
            raise TypeError(f"not a list: {raw!r}")
        return tuple(map(item, raw))
    return convert


def _alpha(raw) -> int | tuple[int, ...]:
    """One derivative order, or a multi-index as a comma list or a JSON list."""
    if isinstance(raw, list) or (isinstance(raw, str) and "," in raw):
        return _list(_integer)(raw)
    return _integer(raw)


# ---------------------------------------------------------------------------
# the options: one record each drives argparse, the config keys, the
# defaults, the checks and the summary's inputs echo


class _Option(NamedTuple):
    name: str  # the key of its value, in messages and in the inputs echo
    flag: str | None  # None: config only
    config: str | None  # "section.key", or a top-level key; None: flag only
    convert: Callable
    default: object
    requirement: str  # what a valid value is, in messages and --help
    commands: tuple[str, ...] | None = None  # the handlers that read it; None: all
    valid: Callable | None = None  # a check of the converted value
    const: bool | None = None  # the value its flag sets, when the flag takes none
    derived: str | None = None  # how a handler derives the default from other inputs

    def reads(self, command: str) -> bool:
        return self.commands is None or command in self.commands

    def resolve(self, raw):
        """raw converted and checked, else ConfigParseError naming the option."""
        try:
            value = self.convert(raw)
            ok = self.valid is None or self.valid(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigParseError(f"{self.name} must be {self.requirement}, got {raw!r}")
        return value

    def help(self) -> str:
        default = self.derived or json.dumps(_jsonable(self.default))
        if self.const is not None:
            return f"sets {self.name} to {json.dumps(self.const)} (default: {default})"
        return f"{self.requirement} (default: {default})"


# the handlers that read a field (--in, else a corpus member) or a quadrature
_FIELD = ("bands", "diff", "norm", "maximal", "scaling", "divergence")
_QUAD = ("diff", "norm", "maximal", "scaling", "equivalence", "divergence")
_OPTIONS = (
    _Option("config", "--config", None, _text, None,
            "a JSON config file path; its values override every flag"),
    _Option("grid_dim", "--grid-dim", "grid.dim", _integer, 1, "an integer"),
    _Option("grid_n", "--grid-n", "grid.n", _integer, 256, "an integer"),
    _Option("grid_box", "--grid-box", "grid.box", _number, 1.0, "a number"),
    _Option("space", "--space", "space.scale", _text, "F", "F or B",
            valid=lambda v: v in ("F", "B")),
    _Option("s", "--s", "space.s", _number, 0.5, "a number"),
    _Option("p", "--p", "space.p", _exponent, 2.0, "a number or inf"),
    _Option("q", "--q", "space.q", _exponent, 2.0, "a number or inf"),
    _Option("L", "--L", "space.L", _integer, 1, "an integer"),
    _Option("r", "--r", "space.r", _number, 1.0, "a number"),
    _Option("homogeneous", "--inhomogeneous", "space.homogeneous", _boolean, True,
            "true or false", const=False),
    # the quadrature: an unset value keeps the grid's default quadrature's
    _Option("h_min", "--h-min", "quad.h_min", _number, None, "a number", _QUAD),
    _Option("h_max", "--h-max", "quad.h_max", _number, None, "a number", _QUAD),
    _Option("radial_per_octave", "--radial-per-octave", "quad.radial_nodes_per_octave",
            _integer, None, "an integer", _QUAD),
    _Option("sphere_nodes", "--sphere-nodes", "quad.sphere_nodes", _integer, None,
            "an integer", _QUAD),
    _Option("t_per_octave", "--t-per-octave", "quad.t_nodes_per_octave", _integer, None,
            "an integer", _QUAD),
    _Option("tau_per_octave", "--tau-per-octave", "quad.tau_nodes_per_octave", _integer,
            None, "an integer", _QUAD),
    _Option("tau_octaves", "--tau-octaves", "quad.tau_octaves", _integer, None,
            "an integer", _QUAD),
    _Option("allow_subgrid", "--allow-subgrid", "quad.allow_subgrid", _boolean, None,
            "true or false", _QUAD, const=True),
    _Option("in_path", "--in", "io.input", _text, None, "a raw float64 field file path",
            (*_FIELD, "slice-support")),
    _Option("out_dir", "--out", "io.output", _text, "lplab-artifacts",
            "an artifact directory path"),
    _Option("function", "--function", "function", _text, "band_mid",
            "the corpus member label used when --in is absent", _FIELD),
    _Option("corpus", None, "corpus", _list(_object), None,
            "a nonempty list of test-function objects", (*_FIELD, "equivalence", "corpus"),
            bool),
    _Option("characterization", "--characterization", "characterization", _cid, "lp",
            "a characterization id: " + " | ".join(
                (*CHARACTERIZATION_IDS, "axis:J", *_CHARACTERIZATION_ALIASES)),
            ("norm", "scaling")),
    _Option("variants", "--variants", "variants", _list(_text), ("S", "V"),
            "a comma list or a list of strings from " + ",".join(MAXIMAL_VARIANTS),
            ("maximal",), bool),
    _Option("m_values", "--m-values", "m_values", _list(_integer), (-1, 0, 1),
            "a list of integers with a nonzero entry", ("scaling",), any),
    _Option("pair", "--pair", "pair", _list(_cid), ("lp", "diff"),
            "two characterization ids, as a comma list or a list of strings",
            ("equivalence",), lambda v: len(v) == 2),
    _Option("theorem", "--theorem", "theorem", lambda raw: _text(raw).strip(), "T2i",
            "a theorem id", ("equivalence",)),
    # a spread is max/min of the ratios, never below 1
    _Option("spread_limit", "--spread-limit", "thresholds.spread_limit", _number, 50.0,
            "a number >= 1", ("equivalence",), lambda v: v >= 1.0),
    _Option("drift_limit", "--drift-limit", "thresholds.drift_limit", _number, 0.05,
            "a number >= 0", ("equivalence",), lambda v: v >= 0.0),
    _Option("alpha", "--alpha", "alpha", _alpha, 1, "an integer or a list of integers",
            ("ppn",)),
    _Option("t_list", "--t-list", "t_list", _list(_number), (8.0, 16.0, 32.0),
            "a list of at least two numbers", ("ppn",), lambda v: len(v) >= 2),
    _Option("order", "--order", "order", _integer, None, "an integer >= 1",
            ("kernel-decay",), lambda v: v >= 1, derived="the --L value"),
    _Option("target_exponent", "--target-exponent", "target_exponent", _integer, 4,
            "an integer >= 1", ("kernel-decay",), lambda v: v >= 1),
    _Option("tau_list", "--tau-list", "tau_list", _list(_number), (1.0, 1.5, 2.0),
            "a nonempty list of numbers", ("kernel-decay",), bool),
    _Option("directions", "--directions", "directions", _integer, 8, "an integer >= 1",
            ("kernel-decay",), lambda v: v >= 1),
    _Option("levels", "--levels", "levels", _integer, 4, "an integer >= 1",
            ("divergence",), lambda v: v >= 1),
    _Option("band", "--band", "band", _integer, None, "a band index of the grid",
            ("slice-support",), derived="the middle of the grid's band range"),
    _Option("axis", "--axis", "axis", _integer, 1, "an axis of the grid", ("slice-support",)),
)

_CONFIG_KEYS = {row.config: row for row in _OPTIONS if row.config}
_SECTIONS = {key.split(".")[0] for key in _CONFIG_KEYS if "." in key}


def _read_config(path: str, command: str) -> dict:
    """("config", value) of each option a JSON config file gives, by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParseError("config root must be a JSON object")
    # a misspelled key or a null would otherwise leave the default, or a
    # flag's value, in place unsaid
    values = {}
    for key, body in cfg.items():
        if key in _SECTIONS and body is not None:
            if not isinstance(body, dict):
                raise ConfigParseError(f"config section {key!r} must be an object")
            entries = [(f"{key}.{inner}", value, f"key {inner!r} in config section {key!r}")
                       for inner, value in body.items()]
        else:
            entries = [(key, body, f"config key {key!r}")]
        for dotted, value, where in entries:
            if value is None:
                raise ConfigParseError(f"{where} is null")
            if dotted not in _CONFIG_KEYS:
                raise ConfigParseError(f"unknown {where}")
            if not _CONFIG_KEYS[dotted].reads(command):
                raise ConfigParseError(f"{where} is not read by {command}")
            values[_CONFIG_KEYS[dotted].name] = ("config", value)
    return values


class _Options:
    """The options one command reads, each converted and checked up front
    from its config value, else its flag, else its default.  Handlers read
    them by name; the summary echoes each one read with its source."""

    def __init__(self, command: str, parsed: dict):
        self.rows = {row.name: row for row in _OPTIONS if row.reads(command)}
        given = {name: ("flag", _FlagText(raw) if isinstance(raw, str) else raw)
                 for name in self.rows if (raw := parsed.get(name)) is not None}
        if "config" in given:
            path = self.rows["config"].resolve(given["config"][1])
            given.update(_read_config(path, command))
        self.values, self.sources, self.read = {}, {}, set()
        for name, row in self.rows.items():
            self.sources[name], raw = given.get(name, ("default", None))
            self.values[name] = row.default if raw is None else row.resolve(raw)

    def build(self) -> _Options:
        """Build the grid and the space parameters, which every command
        reads, so that their errors come before any other."""
        self.grid = _built("grid", GridSpec, self["grid_dim"], self["grid_n"], self["grid_box"])
        self.space = _built("space parameters", SpaceParams, s=self["s"], p=self["p"],
                            q=self["q"], L=self["L"], r=self["r"], scale=self["space"],
                            homogeneous=self["homogeneous"])
        return self

    def __getitem__(self, name: str):
        self.read.add(name)
        return self.values[name]

    def get(self, name: str, derived=None, span: tuple[int, int] | None = None):
        """The option's value, or derived when it is unset and derived is
        given; with span = (low, high), a ConfigParseError naming the
        option unless low <= value <= high, the values the grid allows."""
        if derived is not None and self.sources[name] == "default":
            self.values[name] = derived
        value = self[name]
        if span is not None and not span[0] <= value <= span[1]:
            raise ConfigParseError(f"{name} must be {self.rows[name].requirement}, "
                                   f"here in [{span[0]}, {span[1]}], got {value!r}")
        return value

    def echo(self) -> dict:
        """Value and source of every option read but the output directory,
        which differs between runs that must match byte for byte."""
        return {name: {"source": self.sources[name], "value": self.values[name]}
                for name in sorted(self.read - {"out_dir"})}


def _built(what: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs), its errors a ConfigParseError on an invalid what."""
    try:
        return build(*args, **kwargs)
    except (LplabError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"invalid {what}: {exc}") from exc


def _build_quad(opts: _Options) -> QuadratureSpec | None:
    # the quad section's keys are default_quadrature's keywords
    overrides = {row.config[len("quad."):]: opts[row.name]
                 for row in _OPTIONS if row.config and row.config.startswith("quad.")}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if not overrides:
        return None
    quad = _built("quadrature", default_quadrature, opts.grid, **overrides)
    _built("quadrature", quad.validate_for, opts.grid)
    return quad


def _spec(entry: dict) -> TestFunctionSpec:
    """The test function of a corpus entry, its center and modulation as tuples."""
    vectors = {key: tuple(entry[key]) for key in ("center", "modulation")
               if entry.get(key) is not None}
    return TestFunctionSpec(**{**entry, **vectors})


def _build_corpus(opts: _Options) -> tuple[TestFunctionSpec, ...]:
    raw = opts["corpus"]
    if raw is None:
        return default_corpus(opts.grid)
    return tuple(_built("corpus entry", _spec, entry) for entry in raw)


def _input_field(opts: _Options) -> tuple[str, SampledField]:
    """The field named by --in, else the named corpus member, with the
    function id of its rows ("field" for the default member)."""
    path = opts["in_path"]
    if path is not None:
        return os.path.basename(path), load_field(path, opts.grid)
    label = opts["function"]
    for spec in _build_corpus(opts):
        if spec.function_id() == label:
            fid = "field" if opts.sources["function"] == "default" else label
            return fid, sample_family(spec, opts.grid)
    raise ConfigParseError(f"no --in file and no corpus member labeled {label!r}")


# ---------------------------------------------------------------------------
# artifact emission


def _write(opts: _Options, name: str, rows: list[tuple], summary: dict,
           verdict: str | None = None) -> int:
    """Write name.csv, one line per (function_id, characterization, value,
    flag) row under the run's s, p, q and L, and name_summary.json:
    summary plus the command, the space parameters, the verdict if any and
    the inputs echo.  Returns the exit status, 1 on a FAIL verdict and 0
    otherwise."""
    out_dir = opts["out_dir"]
    space = opts.space
    exponents = ["inf" if x == math.inf else _fmt(x) for x in (space.p, space.q)]
    lines = [CSV_HEADER] + [
        ",".join((fid, cid, _fmt(space.s), *exponents, str(space.L), _fmt(value), flag))
        for fid, cid, value, flag in rows
    ]
    summary = {**summary, "command": name, "params": asdict(space), "inputs": opts.echo()}
    if verdict is not None:
        summary["verdict"] = verdict
    texts = {f"{name}.csv": "".join(line + "\n" for line in lines),
             f"{name}_summary.json": _dump_json(summary)}
    _make_dirs(out_dir)
    try:
        for file_name, text in texts.items():
            with open(os.path.join(out_dir, file_name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write artifacts to {out_dir}: {exc}") from exc
    return 1 if verdict == "FAIL" else 0


def _fields(report, *names: str) -> dict:
    """The named fields of a report, as summary entries of the same names."""
    return {name: getattr(report, name) for name in names}


def _result_payload(result: QuasinormResult) -> dict:
    return _fields(result, "value", "per_scale", "truncation_report", "flag")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the exit status)


def _cmd_bands(opts: _Options) -> int:
    fid, field = _input_field(opts)
    system = build_band_system(opts.grid)
    decomp = decompose(field, system, homogeneous=opts.space.homogeneous)
    rows = [(fid, f"band:{j}", lp_norm(part, 2.0), "OK") for j, part in decomp.bands]
    if decomp.lowpass is not None:
        rows.append((fid, "lowpass", lp_norm(decomp.lowpass, 2.0), "OK"))
    summary = _fields(system, "j_min", "j_max")
    summary.update(bands=len(decomp.bands), homogeneous=decomp.homogeneous)
    return _write(opts, "bands", rows, summary)


def _cmd_norm(opts: _Options, name: str, cid: str) -> int:
    quad = _build_quad(opts)
    fid, field = _input_field(opts)
    result = quasinorm(field, cid, opts.space, quad)
    payload = _result_payload(result)
    print(_dump_json(payload), end="")
    return _write(opts, name, [(fid, cid, result.value, result.flag)], payload)


def _cmd_maximal(opts: _Options) -> int:
    quad = _build_quad(opts)
    fid, field = _input_field(opts)
    variants = opts["variants"]
    for i, variant in enumerate(variants):
        if variant in variants[:i]:
            raise ConfigParseError(f"variants names {variant!r} twice")
    results = maximal_quasinorm_set(field, opts.space, variants,
                                    quad or default_quadrature(opts.grid))
    rows = [(fid, f"max:{v}", results[v].value, results[v].flag) for v in variants]
    return _write(opts, "maximal", rows, {
        "results": {variant: _result_payload(results[variant]) for variant in variants},
    })


def _cmd_corpus(opts: _Options) -> int:
    grid = opts.grid
    out_dir = opts["out_dir"]
    _make_dirs(out_dir)
    rows, manifest = [], []
    for spec in _build_corpus(opts):
        field = sample_family(spec, grid)
        fid = spec.function_id()
        save_field(os.path.join(out_dir, f"{fid}.bin"), field)
        rows.append((fid, "sample", lp_norm(field, 2.0), "OK"))
        manifest.append({"function_id": fid, "file": f"{fid}.bin"})
    return _write(opts, "corpus", rows, {
        "grid": {"dim": grid.dim, "n": grid.n, "box": grid.box},
        "members": manifest,
    })


def _cmd_verify_scaling(opts: _Options) -> int:
    quad = _build_quad(opts)
    fid, field = _input_field(opts)
    cid = opts["characterization"]
    rep = scaling_experiment(field, cid, opts.space, opts["m_values"], quad)
    rows = [(fid, f"{cid}@m={m}", ratio, "OK") for m, ratio in zip(rep.m_values, rep.ratios)]
    summary = _fields(rep, "characterization", "expected_exponent", "measured_exponents",
                      "max_deviation", "tolerance")
    return _write(opts, "verify_scaling", rows, summary, "PASS" if rep.passed else "FAIL")


def _cmd_verify_equivalence(opts: _Options) -> int:
    quad = _build_quad(opts)
    corpus = _build_corpus(opts)
    pair = opts["pair"]
    rep = equivalence_experiment(
        corpus, pair, opts.space, opts.grid, opts["theorem"], quad,
        spread_limit=opts["spread_limit"], drift_limit=opts["drift_limit"],
    )
    rows = [(entry.label, f"{pair[0]}/{pair[1]}", entry.ratio, max(entry.flags, key=_FLAGS.index))
            for entry in rep.per_function]
    summary = _fields(rep, "pair", "theorem", "spread", "dilation_drift", "spread_limit",
                      "drift_limit")
    summary["hypothesis"] = _fields(rep.hypothesis, "satisfied", "window")
    return _write(opts, "verify_equivalence", rows, summary, rep.verdict)


def _cmd_verify_ppn(opts: _Options) -> int:
    t_list = opts["t_list"]
    alpha = opts["alpha"]
    # a multi-index as a list without commas, which would split the CSV cell
    label = alpha if isinstance(alpha, int) else "[" + ";".join(map(str, alpha)) + "]"
    u = band_limited_profile(opts.grid, t_list[0])
    rep = ppn_probe(u, alpha, opts.space.p, opts.space.q, t_list)
    rows = [("profile", f"ppn:alpha={label}@t={t:g}", ratio, "OK")
            for t, ratio in zip(rep.t_values, rep.ratios)]
    summary = _fields(rep, "alpha", "ratios", "max_over_min", "limit")
    return _write(opts, "verify_ppn", rows, summary, "PASS" if rep.passed else "FAIL")


def _cmd_verify_kernel_decay(opts: _Options) -> int:
    grid = opts.grid
    order = opts.get("order", opts.space.L)
    target = opts["target_exponent"]
    directions = opts["directions"]
    if grid.dim < 2:
        raise ConfigParseError("kernel decay probe needs a grid of dimension >= 2")
    reps = []
    for k in range(directions):
        angle = math.pi * k / directions
        theta = [math.cos(angle), math.sin(angle)] + [0.0] * (grid.dim - 2)
        reps.append(kernel_decay_probe(
            directional_window(theta, smoothness=target), order, target,
            opts["tau_list"], theta, grid,
        ))
    rows = [(f"theta{k}", f"kernel:N={target},L={order}@tau={tau:g}", slope, "OK")
            for k, rep in enumerate(reps) for tau, slope in zip(rep.tau_values, rep.slopes)]
    slopes = [slope for rep in reps for slope in rep.slopes]
    amplitudes = [amplitude for rep in reps for amplitude in rep.amplitudes]
    amp_spread = max(amplitudes) / min(amplitudes)
    passed = all(rep.passed for rep in reps) and amp_spread <= 2.0
    return _write(opts, "verify_kernel_decay", rows, {
        "order": order,
        "target_exponent": target,
        "slope_limit": -(target - 0.5),
        "slope_range": [min(slopes), max(slopes)],
        "amplitude_spread": amp_spread,
        "amplitude_limit": 2.0,
    }, "PASS" if passed else "FAIL")


def _cmd_verify_divergence(opts: _Options) -> int:
    quad = _build_quad(opts)
    fid, field = _input_field(opts)
    rep = divergence_probe(field, opts.space, refinement_levels=opts["levels"], quad=quad)
    rows = [(fid, f"diff@level={level}", value, "OK") for level, value in enumerate(rep.values)]
    summary = _fields(rep, "growth_factors", "classification")
    return _write(opts, "verify_divergence", rows, summary)


def _cmd_verify_slice_support(opts: _Options) -> int:
    system = build_band_system(opts.grid)
    span = (system.j_min, system.j_max)
    j = opts.get("band", sum(span) // 2, span)
    axis = opts.get("axis", span=(1, opts.grid.dim))
    path = opts["in_path"]
    if path is not None:
        field = load_field(path, opts.grid)
    else:
        raw = sample_family(
            TestFunctionSpec(family="random_band", band_index=j, seed=5), opts.grid
        )
        field = band_project(raw, system, j)
    rep = slice_support_check(field, system, j, axis)
    fid = os.path.basename(path or f"band{j}")
    rows = [(fid, f"slice:j={j},axis={axis}", rep.max_violation,
             "OK" if rep.passed else "DIVERGENT")]
    summary = _fields(rep, "band", "axis", "max_violation")
    return _write(opts, "verify_slice_support", rows, summary, "PASS" if rep.passed else "FAIL")


_VERIFY_HANDLERS = {
    "scaling": _cmd_verify_scaling,
    "equivalence": _cmd_verify_equivalence,
    "ppn": _cmd_verify_ppn,
    "kernel-decay": _cmd_verify_kernel_decay,
    "divergence": _cmd_verify_divergence,
    "slice-support": _cmd_verify_slice_support,
}

_HANDLERS = {
    "bands": _cmd_bands,
    "diff": lambda opts: _cmd_norm(opts, "diff", "diff"),
    "maximal": _cmd_maximal,
    "norm": lambda opts: _cmd_norm(opts, "norm", opts["characterization"]),
    "corpus": _cmd_corpus,
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Smoothness-space quasinorms of sampled fields and "
                    "their verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: --in would pass for --inhomogeneous where no --in is read
    commands = [(sub.add_parser(name, help=text, allow_abbrev=False), (name,)) for name, text in (
        ("bands", "decompose a field into dyadic frequency bands"),
        ("diff", "difference-quasinorm of a field"),
        ("norm", "any quasinorm characterization of a field"),
        ("maximal", "maximal-function quasinorms of a field"),
        ("corpus", "materialize the standard test functions"),
    )]
    pv = sub.add_parser("verify", help="run a verification experiment")
    vsub = pv.add_subparsers(dest="experiment", required=True)
    commands += [(vsub.add_parser(n, allow_abbrev=False), ("verify", n)) for n in _VERIFY_HANDLERS]
    # flags only where argv names the command; each parses to None unless given
    for p, path in commands:
        for row in _OPTIONS if tuple(argv[:len(path)]) == path else ():
            if row.flag is not None and row.reads(path[-1]):
                p.add_argument(row.flag, dest=row.name, help=row.help(), const=row.const,
                               action="store" if row.const is None else "store_const")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = vars(build_parser(argv).parse_args(argv))
    command = args["command"]
    experiment = args.get("experiment")
    try:
        opts = _Options(experiment or command, args).build()
        handler = _VERIFY_HANDLERS[experiment] if experiment else _HANDLERS[command]
        return handler(opts)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LplabError as exc:
        return _report_failure(command, opts["out_dir"], "computation error", exc)
    except Exception as exc:  # any other failure, MemoryError included; KeyboardInterrupt ends the run
        return _report_failure(command, opts["out_dir"], "internal error", exc,
                               traceback.format_exception(exc))


def _report_failure(command: str, out_dir: str, kind: str, exc: Exception,
                    trace: list[str] | None = None) -> int:
    """Print one `kind: Type: message` line, write error_summary.json into
    out_dir (with the traceback lines, if given), and return exit code 1."""
    print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
    summary = {
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if trace is not None:
        summary["traceback"] = trace
    path = os.path.join(out_dir, "error_summary.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_dump_json(summary))
    except OSError as io_exc:
        print(f"cannot write {path}: {io_exc}", file=sys.stderr)
    return 1


def entry() -> None:
    """The `lplab` program: main(), a flush, and os._exit, skipping the teardown
    and atexit handlers; a failed flush exits through sys.exit instead."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
