"""Experiment configuration: flat key-value files, strict parsing, seeds.

The config format is plain text, one `section.key = value` per line, with
`#` comments and blank lines ignored.  Unknown keys are rejected before
any computation.  Lists are comma separated; the tRFC table is written as
`gbit:ns` pairs.  The same canonical rendering feeds the config hash that
every artifact echoes and the config block of an engine checkpoint.

An `ExperimentSpec` is the one description of a run: the engine is built
from it, and its flat rendering is the run's config echo.  Every check
that spans config sections runs when a spec is constructed, so a bad
config is rejected before any output exists.

Seed splitting: a master seed drives the run; sweep point i derives its
seed as hash(master, TAG_SWEEP_POINT, i), so points are independent yet
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass, replace

from . import rng
from .bloom import BloomParams
from .overhead import OverheadConfig, check as check_overhead
from .profiler import MODE_MEASURED, ProfilerConfig
from .retention import DeviceConfig, DpdModel, RetentionDistribution, VrtModel
from .raidr import BinConfig


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or violated invariant."""


@dataclass(frozen=True)
class SimConfig:
    horizon_windows: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.horizon_windows < 1:
            raise ValueError("horizon_windows must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def config_text(config: dict[str, str]) -> str:
    """Canonical rendering of a flat config: sorted `key = value` lines."""
    return "\n".join(f"{k} = {config[k]}" for k in sorted(config))


def config_sha256(config: dict[str, str]) -> str:
    return hashlib.sha256(config_text(config).encode()).hexdigest()


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_float_list(vs) -> str:
    return ",".join(_fmt_float(v) for v in vs)


def _fmt_table(d: dict[float, float]) -> str:
    return ",".join(f"{_fmt_float(k)}:{_fmt_float(d[k])}" for k in sorted(d))


def _parse_bool(s: str) -> bool:
    t = s.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_float_list(s: str) -> tuple[float, ...]:
    t = s.strip()
    if not t:
        return ()
    return tuple(float(x) for x in t.split(","))


def _parse_table(s: str) -> dict[float, float]:
    out = {}
    for pair in s.strip().split(","):
        k, sep, v = pair.partition(":")
        if not sep:
            raise ValueError(f"expected gbit:ns pairs, got {pair!r}")
        out[float(k)] = float(v)
    return out


def _parse_opt_int(s: str):
    t = s.strip()
    return None if not t else int(t)


def _fmt_opt_int(v) -> str:
    return "" if v is None else str(v)


# a field annotation -> (parser, formatter) of its config value; every
# config module defers annotations, so each is the text of its source
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, _fmt_float),
    "bool": (_parse_bool, _fmt_bool),
    "int | None": (_parse_opt_int, _fmt_opt_int),
    "tuple[float, ...]": (_parse_float_list, _fmt_float_list),
    "dict[float, float]": (_parse_table, _fmt_table),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one run needs; every field has a documented default."""

    scenario: str = "default"
    seed: int = 0
    device: DeviceConfig = field(default_factory=DeviceConfig)
    dist: RetentionDistribution = field(default_factory=RetentionDistribution)
    vrt: VrtModel = field(default_factory=VrtModel)
    dpd: DpdModel = field(default_factory=DpdModel)
    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)
    bins: BinConfig = field(default_factory=BinConfig)
    bloom_target_fpr: float = 1e-3
    bloom_explicit_m: int | None = None
    bloom_explicit_k: int | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    overhead: OverheadConfig = field(default_factory=OverheadConfig)

    def __post_init__(self):
        # the master seed governs; keep the sim config in lockstep
        if self.sim.seed != self.seed:
            object.__setattr__(self, "sim", replace(self.sim, seed=self.seed))
        # the scenario must survive the `key = value` text of a checkpoint
        if self.scenario != self.scenario.strip() or len(self.scenario.splitlines()) > 1:
            raise ConfigError(f"scenario must be one line without outer spaces, got {self.scenario!r}")
        try:
            max_mult = max(self.bins.multipliers(self.device.trefw_ms))
        except ValueError as exc:
            raise ConfigError(f"bins.thresholds_ms against device.trefw_ms: {exc}") from exc
        if self.sim.horizon_windows < max_mult:
            raise ConfigError(
                f"sim.horizon_windows {self.sim.horizon_windows} below the largest bin "
                f"multiplier {max_mult}"
            )
        if self.dist.floor_ms < self.device.trefw_ms:
            raise ConfigError(
                f"dist.floor_ms {self.dist.floor_ms} below device.trefw_ms {self.device.trefw_ms}: "
                "rows would be unrefreshable at the base rate"
            )
        if self.profiler.mode == MODE_MEASURED and self.profiler.patterns_tested > self.dpd.num_patterns:
            raise ConfigError(
                f"profiler.patterns_tested {self.profiler.patterns_tested} exceeds "
                f"dpd.num_patterns {self.dpd.num_patterns}"
            )
        try:
            budget = self.bloom_budget
        except ValueError as exc:
            raise ConfigError(f"bloom.explicit_m/bloom.explicit_k: {exc}") from exc
        if not isinstance(budget, BloomParams) and not 0.0 < budget < 1.0:
            raise ConfigError(f"bloom.target_fpr must be in (0, 1), got {budget}")
        try:
            check_overhead(self.device, self.overhead)
        except ValueError as exc:
            raise ConfigError(f"overhead: {exc}") from exc

    @property
    def bloom_budget(self) -> float | BloomParams:
        """Explicit BloomParams (seed 0) when configured, else the per-bin FPR target."""
        if self.bloom_explicit_m is None and self.bloom_explicit_k is None:
            return self.bloom_target_fpr
        m = 0 if self.bloom_explicit_m is None else self.bloom_explicit_m
        k = 1 if self.bloom_explicit_k is None else self.bloom_explicit_k
        return BloomParams(m=m, k=k)

    def sweep_seed(self, point_index: int) -> int:
        return rng.hash_words(self.seed, rng.TAG_SWEEP_POINT, point_index)

    def to_flat(self) -> dict[str, str]:
        """Every schema key with the formatted value of the spec field it names."""
        flat = {}
        for key, (section, name, _, fmt) in _SCHEMA.items():
            flat[key] = fmt(getattr(getattr(self, section) if section else self, name))
        return flat

    def config_hash(self) -> str:
        return config_sha256(self.to_flat())

    def with_seed(self, seed: int) -> "ExperimentSpec":
        return replace(self, seed=seed)


# spec field -> dataclass of that config section, in construction order
_SECTIONS = {
    f.name: f.default_factory for f in fields(ExperimentSpec) if is_dataclass(f.default_factory)
}


def _schema():
    """key -> (section, field, parser, formatter) for every spec field.

    A section field `a.x` is spec.a.x, `bloom.x` is spec.bloom_x and an
    undotted key is a field of the spec itself (section ""); sim.seed has
    no key, because the master seed governs it.
    """
    schema = {}
    for f in fields(ExperimentSpec):
        if f.name in _SECTIONS:
            for g in fields(_SECTIONS[f.name]):
                if (f.name, g.name) != ("sim", "seed"):
                    schema[f"{f.name}.{g.name}"] = (f.name, g.name, *_CODECS[g.type])
        else:
            key = "bloom." + f.name.removeprefix("bloom_") if f.name.startswith("bloom_") else f.name
            schema[key] = ("", f.name, *_CODECS[f.type])
    return schema


# the one list of config keys, derived from the spec dataclasses
_SCHEMA = _schema()


def spec_from_flat(flat: dict[str, str]) -> ExperimentSpec:
    """Build a validated spec from flat string values; unknown keys are fatal."""
    unknown = sorted(set(flat) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    base = ExperimentSpec().to_flat()
    base.update(flat)

    values: dict[str, dict[str, object]] = {"": {}, **{section: {} for section in _SECTIONS}}
    for key, raw in base.items():
        section, name, parser, _ = _SCHEMA[key]
        try:
            value = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
        values[section][name] = value

    try:
        # sim.seed follows the master seed, which the spec sets
        sections = {section: cls(**values[section]) for section, cls in _SECTIONS.items()}
        return ExperimentSpec(**values[""], **sections)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; comments (#) and blank lines are ignored, a key given twice is rejected."""
    flat, line_of = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in line_of:
            raise ConfigError(f"line {lineno}: key {key!r} given again, first on line {line_of[key]}")
        flat[key], line_of[key] = value.strip(), lineno
    return flat


def load_config(path) -> dict[str, str]:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not text: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(flat: dict[str, str], overrides) -> dict[str, str]:
    """Apply repeatable --set key=value pairs on top of a flat config."""
    out = dict(flat)
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        out[key.strip()] = value.strip()
    return out
