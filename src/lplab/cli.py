"""Command-line interface: configuration parsing and CSV/JSON artifacts.

Subcommands: bands, diff, maximal, norm, corpus, and verify
{scaling, equivalence, ppn, kernel-decay, divergence, slice-support}.
`--config file.json` overrides every flag.  Field files are
raw float64 binary: either one value per sample (real data) or
interleaved real/imaginary pairs.  Every run emits a CSV table with the
fixed header (function_id, characterization, s, p, q, L, value, flag)
plus a JSON summary; verify runs exit 0 on PASS or NO-VERDICT, 1 on
FAIL, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from typing import Sequence

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
# config assembly: flags first, then --config JSON overrides everything


_GRID_KEYS = {"dim": "grid_dim", "n": "grid_n", "box": "grid_box"}
_SPACE_KEYS = {
    "s": "s", "p": "p", "q": "q", "L": "L", "r": "r",
    "scale": "space", "homogeneous": "homogeneous",
}
_QUAD_KEYS = {
    "h_min": "h_min", "h_max": "h_max",
    "radial_nodes_per_octave": "radial_per_octave",
    "sphere_nodes": "sphere_nodes",
    "t_nodes_per_octave": "t_per_octave",
    "tau_nodes_per_octave": "tau_per_octave",
    "tau_octaves": "tau_octaves",
    "allow_subgrid": "allow_subgrid",
}
_IO_KEYS = {"input": "in_path", "output": "out_dir"}
_SECTIONS = {"grid": _GRID_KEYS, "space": _SPACE_KEYS, "quad": _QUAD_KEYS, "io": _IO_KEYS,
             "thresholds": {"spread_limit": "spread_limit", "drift_limit": "drift_limit"}}
_EXTRA_KEYS = (
    "characterization", "variants", "pair", "theorem", "m_values", "alpha",
    "t_list", "tau_list", "order", "target_exponent", "directions",
    "function", "levels", "band", "axis", "corpus",
)


def _apply_config(opts: dict, path: str) -> None:
    if not os.path.exists(path):
        raise ConfigParseError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParseError("config root must be a JSON object")
    # a misspelled key or a null would otherwise leave the default, or a
    # flag's value, in place unsaid
    for key, value in cfg.items():
        if key not in _SECTIONS and key not in _EXTRA_KEYS:
            raise ConfigParseError(f"unknown config key {key!r}")
        if value is None:
            raise ConfigParseError(f"config key {key!r} is null")
    for section, keymap in _SECTIONS.items():
        body = cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigParseError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in keymap:
                raise ConfigParseError(f"unknown key {key!r} in config section {section!r}")
            if value is None:
                raise ConfigParseError(f"key {key!r} in config section {section!r} is null")
            opts[keymap[key]] = value
    for key in _EXTRA_KEYS:
        if key in cfg:
            opts[key] = cfg[key]


def _option(opts: dict, key: str, default, convert, requirement: str, valid=None):
    """opts[key] converted and range checked, or default when it is unset.

    Zero and other falsy values are kept, and any value that fails to
    convert or to satisfy valid raises ConfigParseError.
    """
    raw = opts.get(key)
    if raw is None:
        return default
    try:
        value = convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"{key} must be {requirement}, got {raw!r}") from exc
    if valid is not None and not valid(value):
        raise ConfigParseError(f"{key} must be {requirement}, got {raw!r}")
    return value


def _names(opts: dict, key: str, default: str) -> list[str]:
    """opts[key] as names from a comma list or a JSON list of strings.

    default applies only when the key is unset; a value that names
    nothing raises ConfigParseError rather than falling back.
    """
    raw = opts.get(key)
    if raw is None:
        raw = default
    if isinstance(raw, str):
        raw = raw.split(",")
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise ConfigParseError(f"{key} must be a comma list or a list of strings, got {raw!r}")
    names = [v.strip() for v in raw if v.strip()]
    if not names:
        raise ConfigParseError(f"{key} must name at least one entry, got {opts.get(key)!r}")
    return names


def _integer(raw) -> int:
    """int(raw) for integers and integral strings or floats, else ValueError."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _number(raw) -> float:
    """float(raw) for JSON numbers; strings and booleans raise ValueError."""
    if isinstance(raw, (bool, str)):
        raise ValueError(f"not a number: {raw!r}")
    return float(raw)


def _exponent(raw) -> float:
    """float(raw) for numbers and numeric strings, inf for the strings
    inf/infinity; booleans raise ValueError."""
    if isinstance(raw, bool):
        raise ValueError(f"not a number: {raw!r}")
    if isinstance(raw, str) and raw.lower() in ("inf", "infinity"):
        return math.inf
    return float(raw)


def _boolean(raw) -> bool:
    """JSON booleans and the strings true/false; bool() would read "false" as True."""
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    raise ValueError(f"not a boolean: {raw!r}")


def _build_grid(opts: dict) -> GridSpec:
    try:
        return GridSpec(
            _option(opts, "grid_dim", None, _integer, "an integer"),
            _option(opts, "grid_n", None, _integer, "an integer"),
            _option(opts, "grid_box", None, _number, "a number"),
        )
    except (LplabError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"invalid grid: {exc}") from exc


def _build_space(opts: dict) -> SpaceParams:
    try:
        return SpaceParams(
            s=_option(opts, "s", None, _number, "a number"),
            p=_option(opts, "p", None, _exponent, "a number or inf"),
            q=_option(opts, "q", None, _exponent, "a number or inf"),
            L=_option(opts, "L", None, _integer, "an integer"),
            r=_option(opts, "r", None, _number, "a number"),
            scale=str(opts["space"]),
            homogeneous=_option(opts, "homogeneous", True, _boolean, "true or false"),
        )
    except (LplabError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"invalid space parameters: {exc}") from exc


def _build_quad(opts: dict, grid: GridSpec) -> QuadratureSpec | None:
    overrides = {}
    for key, opt in _QUAD_KEYS.items():
        if key in ("h_min", "h_max"):
            val = _option(opts, opt, None, _number, "a number")
        elif key == "allow_subgrid":
            val = _option(opts, opt, None, _boolean, "true or false")
        else:
            val = _option(opts, opt, None, _integer, "an integer")
        if val is not None:
            overrides[key] = val
    if not overrides:
        return None
    try:
        quad = default_quadrature(grid, **overrides)
        quad.validate_for(grid)
        return quad
    except (LplabError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"invalid quadrature: {exc}") from exc


def _build_corpus(opts: dict, grid: GridSpec) -> tuple[TestFunctionSpec, ...]:
    raw = opts.get("corpus")
    if raw is None:
        return default_corpus(grid)
    try:
        specs = []
        for entry in raw:
            entry = dict(entry)
            for key in ("center", "modulation"):
                if entry.get(key) is not None:
                    entry[key] = tuple(entry[key])
            specs.append(TestFunctionSpec(**entry))
        return tuple(specs)
    except (LplabError, TypeError, ValueError) as exc:
        raise ConfigParseError(f"invalid corpus entry: {exc}") from exc


def _nonblank(value: str) -> bool:
    return value.strip() != ""


def _in_path(opts: dict) -> str | None:
    """The --in file path, or None when it is unset; a blank one is an error."""
    return _option(opts, "in_path", None, str, "a field file path", _nonblank)


def _input_field(opts: dict, grid: GridSpec) -> tuple[str, SampledField]:
    """The field named by --in, else the named corpus member (band_mid when
    unnamed), with the function id of its rows."""
    path = _in_path(opts)
    if path is not None:
        return os.path.basename(path), load_field(path, grid)
    label = _option(opts, "function", None, str, "a corpus member label", _nonblank)
    wanted = label or "band_mid"
    for spec in _build_corpus(opts, grid):
        if spec.function_id() == wanted:
            return label or "field", sample_family(spec, grid)
    raise ConfigParseError(
        f"no --in file and no corpus member labeled {wanted!r}"
    )


def _characterization(opts: dict) -> str:
    cid = _option(opts, "characterization", "lp", str, "a characterization id", _nonblank)
    return _CHARACTERIZATION_ALIASES.get(cid, cid)


# ---------------------------------------------------------------------------
# artifact emission


class _Artifacts:
    """Collects CSV rows and the summary dict, then writes both files."""

    def __init__(self, opts: dict, name: str):
        self.out_dir = str(opts.get("out_dir") or "lplab-artifacts")
        self.name = name
        self.rows: list[str] = []
        self.summary: dict = {"command": name}

    def add_row(self, function_id: str, characterization: str,
                params: SpaceParams, value: float, flag: str) -> None:
        self.rows.append(
            ",".join(
                (
                    function_id,
                    characterization,
                    _fmt(params.s),
                    "inf" if params.p == math.inf else _fmt(params.p),
                    "inf" if params.q == math.inf else _fmt(params.q),
                    str(params.L),
                    _fmt(value),
                    flag,
                )
            )
        )

    def write(self) -> None:
        _make_dirs(self.out_dir)
        csv_path = os.path.join(self.out_dir, f"{self.name}.csv")
        json_path = os.path.join(self.out_dir, f"{self.name}_summary.json")
        try:
            with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(CSV_HEADER + "\n")
                for row in self.rows:
                    fh.write(row + "\n")
            with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_dump_json(self.summary))
        except OSError as exc:
            raise IoError(f"cannot write artifacts to {self.out_dir}: {exc}") from exc


def _result_payload(result: QuasinormResult) -> dict:
    return {
        "value": result.value,
        "per_scale": [[k, c] for k, c in result.per_scale],
        "truncation_report": result.truncation_report,
        "flag": result.flag,
    }


def _params_payload(params: SpaceParams) -> dict:
    return {
        "s": params.s, "p": params.p, "q": params.q, "L": params.L,
        "r": params.r, "scale": params.scale,
        "homogeneous": params.homogeneous,
    }


def _worst_flag(*flags: str) -> str:
    for level in ("DIVERGENT", "TRUNCATION-WARN"):
        if level in flags:
            return level
    return "OK"


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the exit status)


def _cmd_bands(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    fid, field = _input_field(opts, grid)
    art = _Artifacts(opts, "bands")
    system = build_band_system(grid)
    decomp = decompose(field, system, homogeneous=space.homogeneous)
    for j, part in decomp.bands:
        art.add_row(fid, f"band:{j}", space, lp_norm(part, 2.0), "OK")
    if decomp.lowpass is not None:
        art.add_row(fid, "lowpass", space, lp_norm(decomp.lowpass, 2.0), "OK")
    art.summary.update(
        {
            "j_min": system.j_min,
            "j_max": system.j_max,
            "bands": len(decomp.bands),
            "homogeneous": decomp.homogeneous,
        }
    )
    art.write()
    return 0


def _norm_like(opts: dict, name: str, cid: str) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    quad = _build_quad(opts, grid)
    fid, field = _input_field(opts, grid)
    result = quasinorm(field, cid, space, quad)
    payload = _result_payload(result)
    print(_dump_json(payload), end="")
    art = _Artifacts(opts, name)
    art.add_row(fid, cid, space, result.value, result.flag)
    art.summary.update(payload)
    art.summary["params"] = _params_payload(space)
    art.write()
    return 0


def _cmd_norm(opts: dict) -> int:
    return _norm_like(opts, "norm", _characterization(opts))


def _cmd_diff(opts: dict) -> int:
    return _norm_like(opts, "diff", "diff")


def _cmd_maximal(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    quad = _build_quad(opts, grid)
    fid, field = _input_field(opts, grid)
    variants = tuple(_names(opts, "variants", "S,V"))
    for i, variant in enumerate(variants):
        if variant in variants[:i]:
            raise ConfigParseError(f"variants names {variant!r} twice")
    results = maximal_quasinorm_set(field, space, variants, quad or default_quadrature(grid))
    art = _Artifacts(opts, "maximal")
    for variant in variants:
        res = results[variant]
        art.add_row(fid, f"max:{variant}", space, res.value, res.flag)
    art.summary["results"] = {
        variant: _result_payload(results[variant]) for variant in variants
    }
    art.summary["params"] = _params_payload(space)
    art.write()
    return 0


def _cmd_corpus(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    art = _Artifacts(opts, "corpus")
    _make_dirs(art.out_dir)
    manifest = []
    for spec in _build_corpus(opts, grid):
        field = sample_family(spec, grid)
        fid = spec.function_id()
        path = os.path.join(art.out_dir, f"{fid}.bin")
        save_field(path, field)
        art.add_row(fid, "sample", space, lp_norm(field, 2.0), "OK")
        manifest.append({"function_id": fid, "file": f"{fid}.bin"})
    art.summary.update(
        {"grid": {"dim": grid.dim, "n": grid.n, "box": grid.box},
         "members": manifest}
    )
    art.write()
    return 0


def _floats(raw) -> tuple[float, ...]:
    """A comma list or a JSON list of numbers as floats, else ValueError or TypeError."""
    if isinstance(raw, str):
        raw = [piece for piece in raw.split(",") if piece.strip()]
    return tuple(float(v) for v in raw)


def _integers(raw) -> tuple[int, ...]:
    """A comma list or a JSON list of integers, else ValueError or TypeError."""
    return tuple(_integer(v) for v in _floats(raw))


def _cmd_verify_scaling(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    quad = _build_quad(opts, grid)
    fid, field = _input_field(opts, grid)
    cid = _characterization(opts)
    m_values = _option(opts, "m_values", (-1, 0, 1), _integers,
                       "a list of integers with a nonzero entry", any)
    rep = scaling_experiment(field, cid, space, m_values, quad)
    art = _Artifacts(opts, "verify_scaling")
    for m, ratio in zip(rep.m_values, rep.ratios):
        art.add_row(fid, f"{cid}@m={m}", space, ratio, "OK")
    art.summary.update(
        {
            "characterization": cid,
            "expected_exponent": rep.expected_exponent,
            "measured_exponents": list(rep.measured_exponents),
            "max_deviation": rep.max_deviation,
            "tolerance": rep.tolerance,
            "verdict": "PASS" if rep.passed else "FAIL",
            "params": _params_payload(space),
        }
    )
    art.write()
    return 0 if rep.passed else 1


def _cmd_verify_equivalence(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    quad = _build_quad(opts, grid)
    corpus = _build_corpus(opts, grid)
    parts = _names(opts, "pair", "lp,diff")
    if len(parts) != 2:
        raise ConfigParseError(f"pair needs exactly two characterizations, got {parts}")
    pair = (
        _CHARACTERIZATION_ALIASES.get(parts[0], parts[0]),
        _CHARACTERIZATION_ALIASES.get(parts[1], parts[1]),
    )
    theorem = _option(opts, "theorem", "T2i", str.strip, "a theorem id", bool)
    # a spread is max/min of the ratios, never below 1
    spread_limit = _option(opts, "spread_limit", 50.0, _number, "a number >= 1",
                           lambda v: v >= 1.0)
    drift_limit = _option(opts, "drift_limit", 0.05, _number, "a number >= 0",
                          lambda v: v >= 0.0)
    rep = equivalence_experiment(
        corpus, pair, space, grid, theorem, quad,
        spread_limit=spread_limit, drift_limit=drift_limit,
    )
    art = _Artifacts(opts, "verify_equivalence")
    for entry in rep.per_function:
        art.add_row(
            entry.label, f"{pair[0]}/{pair[1]}", space, entry.ratio,
            _worst_flag(*entry.flags),
        )
    art.summary.update(
        {
            "pair": list(pair),
            "theorem": theorem,
            "hypothesis": {
                "satisfied": rep.hypothesis.satisfied,
                "window": rep.hypothesis.window,
            },
            "spread": rep.spread,
            "dilation_drift": rep.dilation_drift,
            "spread_limit": rep.spread_limit,
            "drift_limit": rep.drift_limit,
            "verdict": rep.verdict,
            "params": _params_payload(space),
        }
    )
    art.write()
    return 1 if rep.verdict == "FAIL" else 0


def _cmd_verify_ppn(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    t_list = _option(opts, "t_list", (8.0, 16.0, 32.0), _floats,
                     "a list of at least two numbers", lambda v: len(v) >= 2)
    alpha = _option(opts, "alpha", 1,
                    lambda raw: _integers(raw) if isinstance(raw, list) else _integer(raw),
                    "an integer or a list of integers")
    label = alpha if isinstance(alpha, int) else list(alpha)  # as a JSON list prints
    u = band_limited_profile(grid, t_list[0])
    rep = ppn_probe(u, alpha, space.p, space.q, t_list)
    art = _Artifacts(opts, "verify_ppn")
    for t, ratio in zip(rep.t_values, rep.ratios):
        art.add_row("profile", f"ppn:alpha={label}@t={t:g}", space, ratio, "OK")
    art.summary.update(
        {
            "alpha": list(rep.alpha),
            "ratios": list(rep.ratios),
            "max_over_min": rep.max_over_min,
            "limit": rep.limit,
            "verdict": "PASS" if rep.passed else "FAIL",
            "params": _params_payload(space),
        }
    )
    art.write()
    return 0 if rep.passed else 1


def _cmd_verify_kernel_decay(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    order = _option(opts, "order", space.L, _integer, "an integer >= 1", lambda v: v >= 1)
    target = _option(opts, "target_exponent", 4, _integer, "an integer >= 1",
                     lambda v: v >= 1)
    tau_list = _option(opts, "tau_list", (1.0, 1.5, 2.0), _floats,
                       "a nonempty list of numbers", bool)
    directions = _option(opts, "directions", 8, _integer, "an integer >= 1",
                         lambda v: v >= 1)
    if grid.dim < 2:
        raise ConfigParseError("kernel decay probe needs a grid of dimension >= 2")
    art = _Artifacts(opts, "verify_kernel_decay")
    slopes: list[float] = []
    amplitudes: list[float] = []
    passed = True
    for k in range(directions):
        angle = math.pi * k / directions
        theta = [math.cos(angle), math.sin(angle)] + [0.0] * (grid.dim - 2)
        rep = kernel_decay_probe(
            directional_window(theta, smoothness=target), order, target,
            tau_list, theta, grid,
        )
        passed = passed and rep.passed
        slopes.extend(rep.slopes)
        amplitudes.extend(rep.amplitudes)
        for tau, slope in zip(rep.tau_values, rep.slopes):
            art.add_row(
                f"theta{k}", f"kernel:N={target},L={order}@tau={tau:g}",
                space, slope, "OK",
            )
    amp_spread = max(amplitudes) / min(amplitudes)
    passed = passed and amp_spread <= 2.0
    art.summary.update(
        {
            "order": order,
            "target_exponent": target,
            "slope_limit": -(target - 0.5),
            "slope_range": [min(slopes), max(slopes)],
            "amplitude_spread": amp_spread,
            "amplitude_limit": 2.0,
            "verdict": "PASS" if passed else "FAIL",
        }
    )
    art.write()
    return 0 if passed else 1


def _cmd_verify_divergence(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    quad = _build_quad(opts, grid)
    fid, field = _input_field(opts, grid)
    levels = _option(opts, "levels", 4, _integer, "an integer >= 1", lambda v: v >= 1)
    rep = divergence_probe(field, space, refinement_levels=levels, quad=quad)
    art = _Artifacts(opts, "verify_divergence")
    for level, value in enumerate(rep.values):
        art.add_row(fid, f"diff@level={level}", space, value, "OK")
    art.summary.update(
        {
            "growth_factors": list(rep.growth_factors),
            "classification": rep.classification,
            "params": _params_payload(space),
        }
    )
    art.write()
    return 0


def _cmd_verify_slice_support(opts: dict) -> int:
    grid = _build_grid(opts)
    space = _build_space(opts)
    system = build_band_system(grid)
    j = _option(opts, "band", (system.j_min + system.j_max) // 2, _integer,
                f"a band index in [{system.j_min}, {system.j_max}]",
                lambda v: system.j_min <= v <= system.j_max)
    axis = _option(opts, "axis", 1, _integer, f"an axis in 1..{grid.dim}",
                   lambda v: 1 <= v <= grid.dim)
    path = _in_path(opts)
    if path is not None:
        field = load_field(path, grid)
    else:
        raw = sample_family(
            TestFunctionSpec(family="random_band", band_index=j, seed=5), grid
        )
        field = band_project(raw, system, j)
    rep = slice_support_check(field, system, j, axis)
    art = _Artifacts(opts, "verify_slice_support")
    fid = os.path.basename(path or f"band{j}")
    art.add_row(fid, f"slice:j={j},axis={axis}", space, rep.max_violation,
                "OK" if rep.passed else "DIVERGENT")
    art.summary.update(
        {
            "band": j,
            "axis": axis,
            "max_violation": rep.max_violation,
            "verdict": "PASS" if rep.passed else "FAIL",
        }
    )
    art.write()
    return 0 if rep.passed else 1


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
    "diff": _cmd_diff,
    "maximal": _cmd_maximal,
    "norm": _cmd_norm,
    "corpus": _cmd_corpus,
}


# ---------------------------------------------------------------------------
# argument parsing


def _common_options() -> argparse.ArgumentParser:
    """The options every command and experiment takes, built once and
    handed to each subparser as a parent."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="JSON config overriding every flag")
    parser.add_argument("--grid-dim", type=int, default=1)
    parser.add_argument("--grid-n", type=int, default=256)
    parser.add_argument("--grid-box", type=float, default=1.0)
    parser.add_argument("--space", choices=("F", "B"), default="F")
    parser.add_argument("--s", type=float, default=0.5)
    parser.add_argument("--p", default=2.0)
    parser.add_argument("--q", default=2.0)
    parser.add_argument("--L", type=int, default=1)
    parser.add_argument("--r", type=float, default=1.0)
    parser.add_argument("--inhomogeneous", dest="homogeneous",
                        action="store_false")
    parser.add_argument("--h-min", type=float, default=None)
    parser.add_argument("--h-max", type=float, default=None)
    parser.add_argument("--radial-per-octave", type=int, default=None)
    parser.add_argument("--sphere-nodes", type=int, default=None)
    parser.add_argument("--t-per-octave", type=int, default=None)
    parser.add_argument("--tau-per-octave", type=int, default=None)
    parser.add_argument("--tau-octaves", type=int, default=None)
    parser.add_argument("--allow-subgrid", action="store_true", default=None)
    parser.add_argument("--in", dest="in_path", default=None,
                        help="raw float64 field file")
    parser.add_argument("--out", dest="out_dir", default=None,
                        help="artifact directory (default lplab-artifacts)")
    parser.add_argument("--function", default=None,
                        help="corpus member label used when --in is absent")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplab",
        description="Smoothness-space quasinorms of sampled fields and "
                    "their verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]

    for name, text in (
        ("bands", "decompose a field into dyadic frequency bands"),
        ("diff", "difference-quasinorm of a field"),
        ("norm", "any quasinorm characterization of a field"),
        ("maximal", "maximal-function quasinorms of a field"),
        ("corpus", "materialize the standard test functions"),
    ):
        p = sub.add_parser(name, help=text, parents=common)
        if name == "norm":
            p.add_argument(
                "--characterization", default="lp",
                help=" | ".join((*CHARACTERIZATION_IDS, "axis:J", *_CHARACTERIZATION_ALIASES)),
            )
        if name == "maximal":
            p.add_argument("--variants", default="S,V",
                           help="comma list from " + ",".join(MAXIMAL_VARIANTS))

    pv = sub.add_parser("verify", help="run a verification experiment")
    vsub = pv.add_subparsers(dest="experiment", required=True)
    for name in _VERIFY_HANDLERS:
        p = vsub.add_parser(name, parents=common)
        if name == "scaling":
            p.add_argument("--characterization", default="lp")
            p.add_argument("--m-values", default=None, help="comma list, e.g. -1,0,1")
        if name == "equivalence":
            p.add_argument("--pair", default="lp,diff")
            p.add_argument("--theorem", default="T2i")
            p.add_argument("--spread-limit", type=float, default=None)
            p.add_argument("--drift-limit", type=float, default=None)
        if name == "ppn":
            p.add_argument("--alpha", type=int, default=1)
            p.add_argument("--t-list", default=None, help="comma list, e.g. 8,16,32")
        if name == "kernel-decay":
            p.add_argument("--order", type=int, default=None,
                           help="difference order L (defaults to --L)")
            p.add_argument("--target-exponent", type=int, default=4)
            p.add_argument("--tau-list", default=None)
            p.add_argument("--directions", type=int, default=8)
        if name == "divergence":
            p.add_argument("--levels", type=int, default=4)
        if name == "slice-support":
            p.add_argument("--band", type=int, default=None)
            p.add_argument("--axis", type=int, default=1)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = vars(args).copy()
    try:
        if opts.get("config"):
            _apply_config(opts, opts["config"])
        if args.command == "verify":
            handler = _VERIFY_HANDLERS[opts["experiment"]]
        else:
            handler = _HANDLERS[args.command]
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        return handler(opts)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LplabError as exc:
        return _report_failure(args.command, opts, "computation error", exc)
    except Exception as exc:  # any other failure, MemoryError included; KeyboardInterrupt ends the run
        return _report_failure(args.command, opts, "internal error", exc,
                               traceback.format_exception(exc))


def _report_failure(command: str, opts: dict, kind: str, exc: Exception,
                    trace: list[str] | None = None) -> int:
    """Print one `kind: Type: message` line, write error_summary.json into
    the output directory (with the traceback lines, if given), and return
    exit code 1."""
    print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
    out_dir = str(opts.get("out_dir") or "lplab-artifacts")
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


if __name__ == "__main__":
    sys.exit(main())
