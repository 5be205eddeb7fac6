"""Run configuration: JSON schema, validation, and the bundled default.

A run config names the models (first one is the reference for coupled
comparisons), the simulation parameters, the (lambda, R) cases for the
bound table, and the smile request, whose maturity and spot must match the
simulation's t_horizon and x0. `load_config` raises ConfigError for
anything malformed or inconsistent; the CLI maps that to exit code 2.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Optional

from .engine import SimConfig, _integral
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
    smile: Optional[SmileRequest] = None
    smile_n_base_paths: Optional[int] = None  # overrides sim path count for smiles
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def model_by_label(self, label: str) -> ModelSpec:
        return self.models[self.labels.index(label)]

    def smile_sim(self) -> SimConfig:
        """Simulation config for the smile command (path count may differ)."""
        if self.smile_n_base_paths is None:
            return self.sim
        return replace(self.sim, n_base_paths=self.smile_n_base_paths)


_FORMATS = ("csv", "json", "svg")


def _check_formats(formats) -> tuple[str, ...]:
    """The output formats as a tuple; ConfigError for an unknown one."""
    formats = tuple(formats)
    for f in formats:
        if f not in _FORMATS:
            raise ConfigError(f"unknown output format {f!r}")
    return formats


def _parse(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    models_raw = raw.get("models")
    if not models_raw or not isinstance(models_raw, list):
        raise ConfigError("config needs a non-empty 'models' list")
    labels, models = [], []
    for i, md in enumerate(models_raw):
        try:
            label = str(md.get("label", f"model_{i}"))
            models.append(ModelSpec.from_dict(md))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"bad model entry {i}: {exc}") from exc
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):  # names files and SVG text, unescaped
            raise ConfigError(f"model label {label!r} must be letters, digits, _, - or .")
        if label in labels:
            raise ConfigError(f"duplicate model label {label!r}")
        labels.append(label)

    try:
        sim = SimConfig.from_dict(raw["sim"])
    except KeyError as exc:
        raise ConfigError(f"config needs a 'sim' section ({exc} missing)") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sim section: {exc}") from exc

    cases = []
    for j, pair in enumerate(raw.get("bound_cases", [])):
        try:
            lam, r = float(pair[0]), float(pair[1])
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"bad bound case {j}: {exc}") from exc
        if not 0.0 < lam < 1.0 < r < math.inf:
            raise ConfigError(f"bad bound case {j}: need 0 < lambda < 1 < R, not {pair}")
        cases.append((lam, r))

    smile = None
    smile_paths = None
    if "smile" in raw:
        sd = raw["smile"]
        try:
            if not isinstance(sd, dict):
                raise TypeError("it must be a JSON object")
            if sd.get("n_base_paths") is not None:
                smile_paths = _integral(sd["n_base_paths"], "n_base_paths")
                if smile_paths < 1:
                    raise ValueError("n_base_paths must be >= 1")
            smile = SmileRequest(
                strikes=tuple(float(k) for k in sd["strikes"]),
                rate=float(sd["rate"]), maturity=float(sd["maturity"]),
                spot=float(sd["spot"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad smile section: {exc}") from exc
        # the smile prices the simulated terminals, so it must ask about them
        if abs(smile.maturity - sim.t_horizon) > 1e-12 * smile.maturity:
            raise ConfigError(f"smile maturity {smile.maturity} differs from "
                              f"sim t_horizon {sim.t_horizon}")
        if smile.spot != sim.x0:
            raise ConfigError(f"smile spot {smile.spot} differs from sim x0 {sim.x0}")

    out = raw.get("output", {})
    out_dir = str(out.get("dir", "out"))
    formats = _check_formats(out.get("formats", ["csv", "json"]))

    return RunConfig(labels=labels, models=models, sim=sim, bound_cases=cases,
                     smile=smile, smile_n_base_paths=smile_paths,
                     out_dir=out_dir, formats=formats)


def load_config(path) -> RunConfig:
    """Load and validate a JSON run config; 'paper.json' falls back to the
    bundled default when no such file exists on disk."""
    p = Path(path)
    if p.is_file():
        text = p.read_text()
    elif p.name == "paper.json":
        text = bundled_paper_text()
    else:
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _parse(raw)


def bundled_paper_text() -> str:
    """The packaged default configuration (reproduction parameters)."""
    return resources.files("varexp").joinpath("data/paper.json").read_text()


def load_paper_config() -> RunConfig:
    return _parse(json.loads(bundled_paper_text()))
