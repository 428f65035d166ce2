"""JSON run configuration: strict parsing (unknown keys rejected), path
validation up front, and resolved-snapshot serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from numbers import Real
from pathlib import Path

from .augment import AugmentConfig
from .models import ModelSpec
from .synth import SceneSpec
from .trainer import TrainConfig


def check_split(split) -> None:
    """A split is three non-negative numbers summing to 1; raises ValueError
    otherwise.  The values are read, never converted."""
    if not (isinstance(split, (list, tuple)) and len(split) == 3
            and all(isinstance(r, Real) and not isinstance(r, bool) and r >= 0
                    for r in split)
            and abs(sum(split) - 1.0) <= 1e-9):
        raise ValueError("data.split must be 3 non-negative ratios summing to 1, "
                         f"got {split!r}")


@dataclass
class DataConfig:
    """Where samples come from: a synthetic recipe or an on-disk dataset."""
    kind: str = "synthetic"            # "synthetic" | "directory"
    path: str | None = None            # for kind == "directory"
    size: int = 64
    n_classes: int = 4
    n_images: int = 16
    channels: int = 3
    shapes_per_class: int = 3
    seed: int = 0
    max_extent: dict = field(default_factory=dict)
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.kind not in ("synthetic", "directory"):
            raise ValueError(f"data.kind must be 'synthetic' or 'directory', got {self.kind!r}")
        if self.kind == "directory" and not self.path:
            raise ValueError("data.kind 'directory' requires data.path")
        if self.kind == "synthetic":
            self.scene_spec()  # SceneSpec owns the recipe rules
        check_split(self.split)

    def scene_spec(self) -> SceneSpec:
        """The synthetic-scene recipe of this section."""
        return SceneSpec(size=self.size, n_classes=self.n_classes, n_images=self.n_images,
                         channels=self.channels, shapes_per_class=self.shapes_per_class,
                         seed=self.seed, max_extent=dict(self.max_extent))


@dataclass
class RunConfig:
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    augment: AugmentConfig | None = None
    out_dir: str = "runs/out"


_SECTION_TYPES = {"model": ModelSpec, "train": TrainConfig,
                  "data": DataConfig, "augment": AugmentConfig}

# Runtime-only fields that never come from the config file.
_NOT_IN_FILE = {"train": {"augment"}}


def _check_ints(name: str, values) -> None:
    """Integer fields take JSON integers as they are: no float, no bool."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{name} must be an integer, got {v!r}")


def _build_section(cls, payload: dict, section: str):
    if not isinstance(payload, dict):
        raise ValueError(f"config section '{section}' must be an object")
    allowed = set(cls.__dataclass_fields__) - _NOT_IN_FILE.get(section, set())
    unknown = set(payload) - allowed
    if unknown:
        raise ValueError(f"unknown keys in config section '{section}': "
                         f"{sorted(unknown)} (allowed: {sorted(allowed)})")
    kwargs = {}
    for key, value in payload.items():
        if isinstance(value, list):  # no field takes a list
            value = tuple(value)
        if key == "max_extent" and isinstance(value, dict):
            _check_ints(f"{section}.{key} values", value.values())
            value = {int(k): v for k, v in value.items()}
        if cls.__dataclass_fields__[key].type in ("int", int):
            _check_ints(f"{section}.{key}", [value])
        kwargs[key] = value
    return cls(**kwargs)


def parse_config(document: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON document, rejecting unknown keys."""
    if not isinstance(document, dict):
        raise ValueError("config root must be a JSON object")
    known = {*_SECTION_TYPES, "out_dir"}
    unknown = set(document) - known
    if unknown:
        raise ValueError(f"unknown top-level config keys: {sorted(unknown)} "
                         f"(allowed: {sorted(known)})")
    # a section that is absent or null keeps RunConfig's default
    sections = {name: _build_section(cls, document[name], name)
                for name, cls in _SECTION_TYPES.items() if document.get(name) is not None}
    out_dir = document.get("out_dir", RunConfig.out_dir)
    if not isinstance(out_dir, str) or not out_dir:
        raise ValueError("out_dir must be a non-empty string")
    return RunConfig(out_dir=out_dir, **sections)


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    with open(p) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    cfg = parse_config(document)
    if cfg.data.kind == "directory":
        root = Path(cfg.data.path)
        if not root.is_dir():
            raise FileNotFoundError(f"dataset directory not found: {root}")
        if not (root / "manifest.json").is_file():
            raise FileNotFoundError(f"dataset manifest not found: {root / 'manifest.json'}")
    return cfg


def apply_overrides(cfg: RunConfig, *, seed=None, epochs=None, model=None,
                    head=None, loss=None, out_dir=None) -> RunConfig:
    """Flat CLI flags win over file values; returns a new RunConfig."""
    def given(**flags):
        return {k: v for k, v in flags.items() if v is not None}

    return replace(cfg, model=replace(cfg.model, **given(depth=model, head=head)),
                   train=replace(cfg.train, **given(seed=seed, max_epochs=epochs,
                                                    loss_id=loss)),
                   **given(out_dir=out_dir))


def snapshot(cfg: RunConfig) -> dict:
    """JSON-serializable resolved view of a RunConfig.

    The result is itself a valid config document, so a run can be repeated
    from the snapshot it wrote.  train.augment is runtime-only state (the
    top-level augment section is its source of truth) and stays out.
    """
    doc = asdict(cfg)
    doc["train"].pop("augment")
    doc["data"]["max_extent"] = {str(k): v for k, v in cfg.data.max_extent.items()}
    return doc


def write_snapshot(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot(cfg), fh, indent=2, sort_keys=True)
