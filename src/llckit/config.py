"""Project configuration: one JSON document driving design, simulation and
control runs.

The loader walks the document with full path tracking so that every
complaint names the offending field (``sim.load.points[2]`` rather than a
bare traceback).  Documents carry a ``schema_version`` so old files fail
loudly instead of silently meaning something else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .synthesis import SERIES_NAMES
from .tank import DesignRequirements, LoadSpec, TankParams

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "TankOverrides",
    "SimSettings",
    "ControllerSettings",
    "ProjectConfig",
    "parse_config",
    "load_config",
]

SCHEMA_VERSION = 1

_MISSING = object()


class ConfigError(ValueError):
    """Invalid configuration; ``field`` names the offending JSON path."""

    def __init__(self, field: str, msg: str):
        self.field = field
        super().__init__(f"{field}: {msg}")


def _finite(v, field: str) -> float:
    """``v`` as a finite float; NaN, infinities and integers too large for
    a float are configuration errors."""
    try:
        f = float(v)
    except OverflowError:
        raise ConfigError(field, "must be a finite number, got an integer "
                                 "too large for a float") from None
    if not math.isfinite(f):
        raise ConfigError(field, f"must be a finite number, got {f!r}")
    return f


class _Node:
    """Dict wrapper with typed, path-aware getters."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>",
                              f"must be an object, got {type(data).__name__}")
        self.data = data
        self.path = path

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def has(self, key: str) -> bool:
        return self.data.get(key) is not None

    def reject_unknown(self, allowed) -> None:
        extra = sorted(set(self.data) - set(allowed))
        if extra:
            raise ConfigError(self._at(extra[0]), "unknown key")

    def child(self, key: str, required: bool = False) -> "_Node | None":
        if not self.has(key):
            if required:
                raise ConfigError(self._at(key), "required section is missing")
            return None
        return _Node(self.data[key], self._at(key))

    def _scalar(self, key: str, types, kind: str, default):
        if not self.has(key):
            if default is _MISSING:
                raise ConfigError(self._at(key), "required field is missing")
            return default
        v = self.data[key]
        # bool passes isinstance(int) checks, so rule it out first
        if isinstance(v, bool) and bool not in types:
            raise ConfigError(self._at(key), f"must be {kind}, got a boolean")
        if not isinstance(v, types):
            raise ConfigError(self._at(key),
                              f"must be {kind}, got {type(v).__name__}")
        return v

    def number(self, key: str, default=_MISSING, minimum: float | None = None,
               positive: bool = False) -> float:
        v = self._scalar(key, (int, float), "a number", default)
        if v is default and not self.has(key):
            return v
        v = _finite(v, self._at(key))
        if positive and not v > 0.0:
            raise ConfigError(self._at(key), f"must be positive, got {v!r}")
        if minimum is not None and v < minimum:
            raise ConfigError(self._at(key), f"must be >= {minimum}, got {v!r}")
        return v

    def integer(self, key: str, default=_MISSING, minimum: int | None = None) -> int:
        v = self._scalar(key, (int,), "an integer", default)
        if v is default and not self.has(key):
            return v
        if minimum is not None and v < minimum:
            raise ConfigError(self._at(key), f"must be >= {minimum}, got {v!r}")
        return int(v)

    def string(self, key: str, default=_MISSING, choices=None) -> str:
        v = self._scalar(key, (str,), "a string", default)
        if v is default and not self.has(key):
            return v
        if choices is not None and v not in choices:
            raise ConfigError(self._at(key),
                              f"must be one of {sorted(choices)}, got {v!r}")
        return v


@dataclass(frozen=True)
class TankOverrides:
    """How the tank is fixed: explicit components, or shape parameters.

    With ``tank`` set the components are taken as given; otherwise the
    design point comes from (Ln, Qe), both supplied or both searched.
    """

    n: float | None = None
    Ln: float | None = None
    Qe: float | None = None
    series: str = "E12"
    tank: TankParams | None = None


@dataclass(frozen=True)
class SimSettings:
    """Simulation defaults; ``None`` means derive from the design point."""

    vin: float | None = None
    fsw: float | None = None
    t_end: float = 2e-3
    dt_max: float | None = None
    record_stride: int = 8
    soft_start: float = 0.0
    load: LoadSpec | None = None
    band: float = 0.01  # regulation band, fraction of the reference


@dataclass(frozen=True)
class ControllerSettings:
    """Regulator overrides; ``None`` fields fall back to design-derived values."""

    v_ref: float | None = None
    ki: float | None = None
    kp: float | None = None
    fsw_min: float | None = None
    fsw_max: float | None = None
    i_limit: float | None = None
    f_shift_rate: float | None = None
    update_period: float | None = None


@dataclass(frozen=True)
class ProjectConfig:
    requirements: DesignRequirements
    overrides: TankOverrides = TankOverrides()
    sim: SimSettings = SimSettings()
    controller: ControllerSettings = ControllerSettings()
    output_dir: str | None = None


def _parse_requirements(node: _Node) -> DesignRequirements:
    keys = ("vin_min", "vin_nom", "vin_max", "vout_min", "vout_nom",
            "vout_max", "iout_min", "iout_max", "f0_target", "fsw_min",
            "fsw_max")
    node.reject_unknown(keys)
    vals = {k: node.number(k) for k in keys}
    try:
        return DesignRequirements(**vals)
    except ValueError as exc:
        raise ConfigError(node.path, str(exc)) from exc


def _parse_tank(node: _Node) -> TankParams:
    node.reject_unknown(("Lr", "Cr", "Lm", "n", "Vf", "Cout", "t_dead"))
    kw = {k: node.number(k) for k in ("Lr", "Cr", "Lm", "n")}
    for k in ("Vf", "Cout", "t_dead"):
        if node.has(k):
            kw[k] = node.number(k)
    try:
        return TankParams(**kw)
    except ValueError as exc:
        raise ConfigError(node.path, str(exc)) from exc


def _parse_overrides(node: _Node | None) -> TankOverrides:
    if node is None:
        return TankOverrides()
    node.reject_unknown(("n", "Ln", "Qe", "series", "tank"))
    series = node.string("series", default="E12",
                         choices=set(SERIES_NAMES) | {"none"})
    tank_node = node.child("tank")
    if tank_node is not None:
        for k in ("n", "Ln", "Qe"):
            if node.has(k):
                raise ConfigError(node._at(k),
                                  "not allowed alongside an explicit tank")
        return TankOverrides(series=series, tank=_parse_tank(tank_node))
    ln = node.number("Ln", default=None, positive=True)
    qe = node.number("Qe", default=None, positive=True)
    if (ln is None) != (qe is None):
        raise ConfigError(node.path, "give both Ln and Qe, or neither")
    return TankOverrides(n=node.number("n", default=None, positive=True),
                         Ln=ln, Qe=qe, series=series)


def _parse_load(node: _Node) -> LoadSpec:
    node.reject_unknown(("kind", "points", "value"))
    kind = node.string("kind", choices={"resistance", "current"})
    if node.has("value") and node.has("points"):
        raise ConfigError(node.path, "give either value or points, not both")
    if node.has("value"):
        points = [(0.0, node.number("value"))]
    else:
        raw = node.data.get("points")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(node._at("points"),
                              "must be a non-empty list of [time, value] pairs")
        points = []
        for i, item in enumerate(raw):
            ref = f"{node._at('points')}[{i}]"
            ok = (isinstance(item, list) and len(item) == 2
                  and all(isinstance(v, (int, float))
                          and not isinstance(v, bool) for v in item))
            if not ok:
                raise ConfigError(ref, "must be a [time, value] pair of numbers")
            points.append((_finite(item[0], ref), _finite(item[1], ref)))
    try:
        return LoadSpec.profile(kind, points)
    except ValueError as exc:
        raise ConfigError(node.path, str(exc)) from exc


def _parse_sim(node: _Node | None) -> SimSettings:
    if node is None:
        return SimSettings()
    node.reject_unknown(("vin", "fsw", "t_end", "dt_max", "record_stride",
                         "soft_start", "load", "band"))
    load_node = node.child("load")
    d = SimSettings()
    return SimSettings(
        vin=node.number("vin", default=d.vin, minimum=0.0),
        fsw=node.number("fsw", default=d.fsw, positive=True),
        t_end=node.number("t_end", default=d.t_end, minimum=0.0),
        dt_max=node.number("dt_max", default=d.dt_max, positive=True),
        record_stride=node.integer("record_stride", default=d.record_stride,
                                   minimum=1),
        soft_start=node.number("soft_start", default=d.soft_start,
                               minimum=0.0),
        load=_parse_load(load_node) if load_node is not None else None,
        band=node.number("band", default=d.band, positive=True),
    )


def _parse_controller(node: _Node | None) -> ControllerSettings:
    if node is None:
        return ControllerSettings()
    keys = ("v_ref", "ki", "kp", "fsw_min", "fsw_max", "i_limit",
            "f_shift_rate", "update_period")
    node.reject_unknown(keys)
    return ControllerSettings(**{k: node.number(k, default=None) for k in keys})


def parse_config(doc) -> ProjectConfig:
    """Build a :class:`ProjectConfig` from a decoded JSON document."""
    root = _Node(doc, "")
    root.reject_unknown(("schema_version", "requirements", "overrides",
                         "sim", "controller", "output_dir"))
    version = root.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"expected {SCHEMA_VERSION}, got {version}")
    return ProjectConfig(
        requirements=_parse_requirements(root.child("requirements", required=True)),
        overrides=_parse_overrides(root.child("overrides")),
        sim=_parse_sim(root.child("sim")),
        controller=_parse_controller(root.child("controller")),
        output_dir=root.string("output_dir", default=None),
    )


def load_config(path) -> ProjectConfig:
    """Read and validate a configuration file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(p), f"cannot read: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            str(p),
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
        ) from exc
    return parse_config(doc)
