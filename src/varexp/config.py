"""Run configuration: JSON schema, validation, and the bundled default.

A run config names the models (first one is the reference for coupled
comparisons), the simulation parameters, the (lambda, R) cases for the
bound table, and the smile's strikes: the smile prices the simulated
terminals, so its rate, maturity and spot are the reference model's mu and
the simulation's t_horizon and x0. `load_config` raises ConfigError for
anything malformed or inconsistent, a key its section does not know
included; the CLI maps that to exit code 2. Each section's keys are
checked by the reader that owns them: `_parse` checks the root's, the
smile's and the output's, and `ModelSpec.from_dict`,
`ExponentSpec.from_dict` and `SimConfig.from_dict` a model's, an
exponent's and the sim's, in a config and in library code alike; the
error names the section and the key. `_document` is `_parse`'s
inverse: the one writer of the format, whose output the run manifest
records and `_parse` reads back as the same run.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional

from .engine import SimConfig
from .exponent import _check_keys, _integral, _number
from .models import ModelSpec
from .pricing import SmileRequest


class ConfigError(Exception):
    """Malformed or unusable run configuration."""


@dataclass
class RunConfig:
    labels: list[str]
    models: list[ModelSpec]
    sim: SimConfig
    bound_cases: list[tuple[float, float]] = field(default_factory=list)
    smile_strikes: Optional[tuple[float, ...]] = None  # the smile's, if it has one
    smile_n_base_paths: Optional[int] = None  # overrides sim path count for smiles
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def model_by_label(self, label: str) -> ModelSpec:
        return self.models[self.labels.index(label)]

    @property
    def smile(self) -> Optional[SmileRequest]:
        """The smile's request: its strikes at the run's current mu, t_horizon and x0."""
        if self.smile_strikes is None:
            return None
        return SmileRequest(self.smile_strikes, rate=self.models[0].mu,
                            maturity=self.sim.t_horizon, spot=self.sim.x0)

    def smile_sim(self) -> SimConfig:
        """Simulation config for the smile command (path count may differ)."""
        if self.smile_n_base_paths is None:
            return self.sim
        return replace(self.sim, n_base_paths=self.smile_n_base_paths)


_FORMATS = ("csv", "json", "svg")
_JSON_TYPES = {list: "an array", str: "a string"}


def _check_formats(formats) -> tuple[str, ...]:
    """The output formats as a tuple; ConfigError for an unknown one."""
    formats = tuple(formats)
    for f in formats:
        if f not in _FORMATS:
            raise ConfigError(f"unknown output format {f!r}")
    return formats


def _get(d: dict, key: str, kind: type, default=None):
    """d[key], or default when d has no key; TypeError unless of JSON type kind."""
    v = d.get(key, default)
    if not isinstance(v, kind):
        raise TypeError(f"{key!r} must be {_JSON_TYPES[kind]}, not {v!r}")
    return v


def _parse(raw) -> RunConfig:
    """The run config a decoded JSON document describes. Any error while
    reading it becomes ConfigError("bad <section>: ..."); a ConfigError
    raised inside passes through unchanged."""
    section = "config"
    try:
        _check_keys(raw, ("models", "sim", "bound_cases", "smile", "output"))
        models_raw = raw.get("models")
        if not models_raw or not isinstance(models_raw, list):
            raise ConfigError("config needs a non-empty 'models' list")
        labels, models = [], []
        for i, md in enumerate(models_raw):
            section = f"model entry {i}"
            models.append(ModelSpec.from_dict(
                {k: v for k, v in md.items() if k != "label"} if isinstance(md, dict) else md))
            label = _get(md, "label", str, f"model_{i}")
            if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):  # names files and SVG text, unescaped
                raise ValueError(f"model label {label!r} must be letters, digits, _, - or .")
            if label in labels:
                raise ValueError(f"duplicate model label {label!r}")
            labels.append(label)

        section = "sim section"
        sim = SimConfig.from_dict(raw["sim"])

        section = "bound_cases"
        cases = []
        for j, pair in enumerate(_get(raw, "bound_cases", list, [])):
            section = f"bound case {j}"
            lam, r = (_number(v, "lambda and R") for v in pair)
            if not 0.0 < lam < 1.0 < r:
                raise ValueError(f"need 0 < lambda < 1 < R, not {pair}")
            cases.append((lam, r))

        strikes = smile_paths = None
        if "smile" in raw:
            section = "smile section"
            sd = raw["smile"]
            _check_keys(sd, ("strikes", "n_base_paths"))
            if sd.get("n_base_paths") is not None:
                smile_paths = _integral(sd["n_base_paths"], "n_base_paths")
                replace(sim, n_base_paths=smile_paths)  # checked as the sim's count is
            # checked, and kept as floats, as RunConfig.smile will read them
            strikes = SmileRequest(tuple(_number(k, "strike") for k in sd["strikes"]),
                                   rate=models[0].mu, maturity=sim.t_horizon, spot=sim.x0).strikes

        section = "output section"
        out = raw.get("output", {})
        _check_keys(out, ("dir", "formats"))
        out_dir = _get(out, "dir", str, "out")
        formats = _check_formats(_get(out, "formats", list, ["csv", "json"]))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {section}: {why}") from exc

    return RunConfig(labels=labels, models=models, sim=sim, bound_cases=cases,
                     smile_strikes=strikes, smile_n_base_paths=smile_paths,
                     out_dir=out_dir, formats=formats)


def _document(cfg: RunConfig) -> dict:
    """The config document that `_parse` reads back as cfg, out_dir apart:
    in canonical form, with every exponent constant written out and no
    output.dir (where a run writes is not what it ran)."""
    doc = {
        "models": [{"label": label, **m.to_dict()} for label, m in zip(cfg.labels, cfg.models)],
        "sim": cfg.sim.to_dict(),
        "bound_cases": [list(case) for case in cfg.bound_cases],
        "output": {"formats": list(cfg.formats)},
    }
    if cfg.smile_strikes is not None:
        doc["smile"] = {"strikes": list(cfg.smile_strikes)}
        if cfg.smile_n_base_paths is not None:
            doc["smile"]["n_base_paths"] = cfg.smile_n_base_paths
    return doc


def load_config(path) -> RunConfig:
    """Load and validate a JSON run config; the bare name 'paper.json' (no
    directory) falls back to the bundled default when no such file exists
    in the working directory. Raises only ConfigError."""
    p = Path(path)
    if not p.is_file() and p != Path("paper.json"):
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8") if p.is_file() else bundled_paper_text())
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}") from exc
    return _parse(raw)


def bundled_paper_text() -> str:
    """The packaged default configuration (reproduction parameters)."""
    return resources.files("varexp").joinpath("data/paper.json").read_text()


def load_paper_config() -> RunConfig:
    return _parse(json.loads(bundled_paper_text()))
