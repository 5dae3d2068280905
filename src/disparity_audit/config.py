"""Run configuration: a single JSON document, with named evaluation-version
presets expanded into concrete parameter sets.

Preset values fill in only keys the user's config does not set explicitly,
so every preset is overridable.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .concepts import ClassMapping
from .data import read_json_object
from .errors import ConfigError, DataError
from .groups import GroupRule, parse_box_filter, region_rule, terms_rule

THRESHOLD_METRICS = ("tpr", "fpr", "precision", "recall", "accuracy", "f1")
RANKING_METRICS = ("ap", "auc_roc")
KNOWN_METRICS = THRESHOLD_METRICS + RANKING_METRICS + ("hit_rate",)
# Side-file paths a config may name besides the DEFAULTS keys
FILE_KEYS = ("annotations", "predictions", "region", "terms")

DEFAULTS: dict[str, Any] = {
    "group_method": "boxes",
    "metadata_key": "country",
    "box_filter": {"variant": "none"},
    "apply_term_exclusions": False,
    "mapping": None,
    "strict_mapping": True,
    "metrics": ["ap", "tpr", "fpr"],
    "k": 5,
    "validation_fraction": 0.2,
    "threshold_scope": "pooled",
    "sampling": {
        "ratio": [1, 5],
        "bootstraps": 250,
        "seed": 0,
        "min_per_group": 50,
        "mode": "baseline",
    },
    "evaluation_version": "custom",
    "drop_unlabeled": True,
    "top_n": 5,
    "output_dir": "out",
}

_RELATIVE_AREA = {"variant": "relative_area", "use_min": 0.05, "ignore_max": 0.02}
# Evaluation-version presets: the group-filter ladder plus the
# prevalence-controlled "reliable" protocol. Each rung lists only its values
# that differ from DEFAULTS; every rung keeps its 250 bootstraps and K = 50.
PRESETS: dict[str, dict[str, Any]] = {
    "baseline": {},
    "v1": {"box_filter": {"variant": "min_area_pixels", "threshold": 600}},
    "v2": {"box_filter": _RELATIVE_AREA},
    "v3": {"box_filter": _RELATIVE_AREA, "apply_term_exclusions": True},
    "reliable": {
        "box_filter": _RELATIVE_AREA,
        "apply_term_exclusions": True,
        "sampling": {"mode": "reliable"},
    },
}


def _deep_merge(base: dict, override: Mapping) -> dict:
    """``base`` with ``override``'s keys, objects merged key by key. An object
    that names another ``variant`` (a box filter) replaces the old one whole,
    so no key of the old variant is left in it."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        old = out.get(key)
        if (
            isinstance(value, Mapping) and isinstance(old, dict)
            and value.get("variant", old.get("variant")) == old.get("variant")
        ):
            out[key] = _deep_merge(old, value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config_dict(
    user: Mapping[str, Any], preset: str | None = None, seed: int | None = None
) -> dict[str, Any]:
    """DEFAULTS, then the preset's expansion, then the user's explicit keys.

    Raises:
        ConfigError: for a key that is neither a ``DEFAULTS`` key nor a side
            file's, or a ``sampling`` key that ``DEFAULTS`` lacks; for an
            evaluation version that is unknown or not a non-empty string
            (only an absent one is ``custom``); or for a ``sampling`` value
            that is not an object.
    """
    unknown = [repr(k) for k in user if k not in DEFAULTS and k not in FILE_KEYS]
    if isinstance(user.get("sampling"), Mapping):
        unknown += [f"'sampling.{k}'" for k in user["sampling"] if k not in DEFAULTS["sampling"]]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    version = preset if preset is not None else user.get("evaluation_version", "custom")
    _str(version, "evaluation_version")
    if version != "custom" and version not in PRESETS:
        raise ConfigError(
            f"unknown evaluation version {version!r}; expected one of "
            f"{sorted(PRESETS)} or 'custom'"
        )
    resolved = copy.deepcopy(DEFAULTS)
    if version != "custom":
        resolved = _deep_merge(resolved, PRESETS[version])
    resolved = _deep_merge(resolved, user)
    resolved["evaluation_version"] = version
    sampling = resolved["sampling"]
    if not isinstance(sampling, dict):
        raise ConfigError(f"sampling must be an object, got {sampling!r}")
    if seed is not None:
        sampling["seed"] = int(seed)
    return resolved


def config_hash(resolved: Mapping[str, Any]) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunConfig:
    """Validated, fully resolved run configuration with loaded config objects."""

    raw: dict[str, Any]
    annotations: Path
    predictions: Path
    group_rule: GroupRule
    mapping: ClassMapping | None
    strict_mapping: bool
    metrics: tuple[str, ...]
    k: int
    validation_fraction: float
    threshold_scope: str
    ratio: tuple[int, int]
    bootstraps: int
    seed: int
    min_per_group: int
    sampling_mode: str
    evaluation_version: str
    drop_unlabeled: bool
    top_n: int
    output_dir: Path


def _path(resolved: Mapping, key: str, base: Path) -> Path:
    value = resolved.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"config requires a {key!r} file path, got {value!r}")
    p = Path(value)
    if not p.is_absolute():
        p = base / p
    if not p.exists():
        raise ConfigError(f"{key} file does not exist: {p}")
    return p


def _int(value: Any, key: str, minimum: int | None = None) -> int:
    """An integer config value, at least ``minimum`` if given; bools and
    floats are not integers."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _float(value: Any, key: str) -> float:
    """A number config value; bools and strings are not numbers."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _bool(value: Any, key: str) -> bool:
    """A JSON true/false config value."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _str(value: Any, key: str) -> str:
    """A non-empty string config value."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a non-empty string, got {value!r}")
    return value


def load_config(
    path: str | Path, preset: str | None = None, seed: int | None = None,
    output_dir: str | None = None,
) -> RunConfig:
    """Load, resolve, and validate a run config file.

    Raises ConfigError for structural problems and missing referenced files.
    """
    path = Path(path)
    try:
        user = read_json_object(path, "config")
    except DataError as e:
        raise ConfigError(str(e)) from None
    resolved = resolve_config_dict(user, preset=preset, seed=seed)
    if output_dir is not None:
        # CLI-provided paths are CWD-relative, unlike config-file paths
        resolved["output_dir"] = str(Path(output_dir).absolute())
    base = path.parent
    return build_config(resolved, base)


def build_config(resolved: dict[str, Any], base: Path) -> RunConfig:
    """The ``RunConfig`` of a config resolved over ``DEFAULTS``.

    Raises ConfigError for a malformed value and missing referenced files.
    """
    group_method = resolved["group_method"]
    if group_method not in ("boxes", "captions", "metadata"):
        raise ConfigError(
            f"group_method must be one of boxes/captions/metadata, got {group_method!r}"
        )

    annotations = _path(resolved, "annotations", base)
    predictions = _path(resolved, "predictions", base)

    exclusions = _bool(resolved["apply_term_exclusions"], "apply_term_exclusions")
    metadata_key = _str(resolved["metadata_key"], "metadata_key")
    try:
        box_filter = parse_box_filter(resolved["box_filter"])
        if group_method == "metadata":
            rule = region_rule(
                read_json_object(_path(resolved, "region", base), "region"), metadata_key
            )
        else:
            rule = terms_rule(
                read_json_object(_path(resolved, "terms", base), "terms"), group_method,
                exclusions=exclusions, box_filter=box_filter,
            )
        mapping = None
        if resolved["mapping"] is not None:
            mapping = ClassMapping.from_file(_path(resolved, "mapping", base))
    except DataError as e:
        raise ConfigError(str(e)) from e

    metrics = resolved["metrics"]
    if (
        not isinstance(metrics, list) or not metrics
        or not all(isinstance(m, str) for m in metrics)
    ):
        raise ConfigError(f"metrics must be a non-empty list of metric names, got {metrics!r}")
    if len(set(metrics)) < len(metrics):
        raise ConfigError(f"metrics must name each metric once, got {metrics!r}")
    metrics = tuple(metrics)
    unknown = [m for m in metrics if m not in KNOWN_METRICS]
    if unknown:
        raise ConfigError(f"unknown metrics: {unknown}; expected among {KNOWN_METRICS}")

    k = _int(resolved["k"], "k", minimum=1)
    vfrac = _float(resolved["validation_fraction"], "validation_fraction")
    if not 0 < vfrac < 1:
        raise ConfigError(f"validation_fraction must be in (0, 1), got {vfrac}")
    scope = resolved["threshold_scope"]
    if scope not in ("pooled", "per_group"):
        raise ConfigError(f"threshold_scope must be pooled or per_group, got {scope!r}")

    sampling = resolved["sampling"]
    mode = sampling["mode"]
    if mode not in ("baseline", "reliable"):
        raise ConfigError(f"sampling mode must be baseline or reliable, got {mode!r}")
    ratio_raw = sampling["ratio"]
    if (
        not isinstance(ratio_raw, (list, tuple)) or len(ratio_raw) != 2
        or any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in ratio_raw)
    ):
        raise ConfigError(f"sampling ratio must be two positive integers, got {ratio_raw!r}")
    bootstraps = _int(sampling["bootstraps"], "bootstraps", minimum=1)
    min_per_group = _int(sampling["min_per_group"], "min_per_group", minimum=1)
    seed = _int(sampling["seed"], "seed")

    out_dir = resolved["output_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output_dir must be a path string, got {out_dir!r}")
    output_dir = Path(out_dir)
    if not output_dir.is_absolute():
        output_dir = base / output_dir

    return RunConfig(
        raw=resolved,
        annotations=annotations,
        predictions=predictions,
        group_rule=rule,
        mapping=mapping,
        strict_mapping=_bool(resolved["strict_mapping"], "strict_mapping"),
        metrics=metrics,
        k=k,
        validation_fraction=vfrac,
        threshold_scope=scope,
        ratio=(int(ratio_raw[0]), int(ratio_raw[1])),
        bootstraps=bootstraps,
        seed=seed,
        min_per_group=min_per_group,
        sampling_mode=mode,
        evaluation_version=str(resolved["evaluation_version"]),
        drop_unlabeled=_bool(resolved["drop_unlabeled"], "drop_unlabeled"),
        top_n=_int(resolved["top_n"], "top_n", minimum=0),
        output_dir=output_dir,
    )
