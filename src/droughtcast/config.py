"""Run configuration: a flat-section ``key = value`` file plus CLI flag
overrides (flags win).  Every key has a library default; the resolved
configuration is echoed into each run directory so experiments stay
reproducible from a single source of truth.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

# section -> key -> (default, help)
CONFIG_KEYS: dict[str, dict[str, tuple[str, str]]] = {
    "data": {
        "timeseries": ("", "training time-series CSV (fips,date,<channels...>,score)"),
        "timeseries_val": ("", "optional validation time-series CSV; empty = random split"),
        "timeseries_test": ("", "optional test time-series CSV; empty = random split"),
        "statics": ("", "static-features CSV (fips,<features...>)"),
        "categorical_columns": ("soil_quality,texture", "statics columns treated as categorical"),
        "window_days": ("180", "look-back window length in days"),
        "target_phase": ("anchor", "week-1 target: 'anchor' date score or 'next' release"),
        "max_gap_days": ("14", "longest measurement gap interpolated before dropping a county"),
        "val_fraction": ("0.15", "validation share when no explicit validation file"),
        "test_fraction": ("0.15", "test share when no explicit test file"),
    },
    "model": {
        "lstm_layers": ("2", "recurrent layers"),
        "hidden_size": ("490", "recurrent hidden width"),
        "embed_dim": ("27", "categorical embedding width"),
        "reduced_dim": ("6", "reduced embedding width after the FFNN"),
        "mlp_layers": ("2", "output MLP depth"),
        "mlp_hidden": ("256", "output MLP hidden width"),
        "dropout": ("0.1", "dropout between recurrent layers and before the MLP"),
        "embed_dropout": ("0.4", "dropout on concatenated embeddings"),
    },
    "ablation": {
        "use_static": ("true", "keep the static-features path"),
        "use_timeseries": ("true", "keep the time-series path"),
        "use_attention": ("true", "keep attention pooling"),
    },
    "train": {
        "batch_size": ("128", "mini-batch size"),
        "epochs": ("9", "training epochs"),
        "max_lr": ("7e-5", "peak learning rate of the triangular cycle"),
        "base_lr": ("", "cycle floor; empty = max_lr / 10"),
        "cycle_epochs": ("2", "cycle length in epochs"),
        "weight_decay": ("0.01", "decoupled weight decay"),
        "loss": ("mse", "training loss: mse or mae"),
        "selection": ("best", "checkpoint selection: best validation MAE or last epoch"),
    },
    "cv": {
        "folds": ("5", "number of cross-validation folds"),
        "epochs": ("", "per-fold epochs; empty = train.epochs"),
        "baseline_use_static": ("false", "baseline configuration: static path"),
        "baseline_use_timeseries": ("true", "baseline configuration: time-series path"),
        "baseline_use_attention": ("false", "baseline configuration: attention"),
    },
    "locexp": {
        "states": ("19,30,40", "2-character FIPS state prefixes to train per-state models on"),
    },
    "introspect": {
        "perplexity": ("100", "t-SNE perplexity"),
        "iterations": ("1000", "t-SNE iterations"),
        "color_column": ("", "categorical column for scatter colors; empty = first"),
    },
    "run": {
        "seed": ("", "run seed (mandatory, via file or --seed)"),
        "out": ("runs", "output directory shared by every command"),
    },
}


_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}


def parse_as(kind, raw: str):
    """``raw`` parsed as ``kind``: ``int``, ``float``, ``bool`` (true/1/yes
    or false/0/no, any case), ``str``, or ``list[int]`` (comma-separated,
    empty items skipped).  Raises ``ValueError`` when it does not parse."""
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == list[int]:
        return [int(item) for item in raw.split(",") if item.strip()]
    return kind(raw)


def format_value(value) -> str:
    """Text that :func:`parse_as` reads back: a list comma-joined, any
    other value with ``str`` (for an int, float or bool, its ``repr``)."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@dataclass
class RunConfig:
    values: dict[str, dict[str, str]] = field(default_factory=dict)

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def get_as(self, section: str, key: str, kind):
        """The value parsed by :func:`parse_as`; a ``ConfigError`` when it
        does not parse."""
        raw = self.get(section, key)
        try:
            return parse_as(kind, raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be {_KIND_NAMES[kind]}, "
                              f"got {raw!r}") from None

    def get_int(self, section: str, key: str) -> int:
        return self.get_as(section, key, int)

    def get_float(self, section: str, key: str) -> float:
        return self.get_as(section, key, float)

    def get_list(self, section: str, key: str) -> list[str]:
        raw = self.get(section, key)
        return [item.strip() for item in raw.split(",") if item.strip()]

    @property
    def seed(self) -> int:
        raw = self.get("run", "seed")
        if raw == "":
            raise ConfigError("a run seed is mandatory (set [run] seed or pass --seed)")
        return self.get_int("run", "seed")

    def render(self) -> str:
        lines = []
        for section, keys in self.values.items():
            lines.append(f"[{section}]")
            for key, value in keys.items():
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)


def default_config() -> RunConfig:
    return RunConfig(
        {section: {k: default for k, (default, _) in keys.items()}
         for section, keys in CONFIG_KEYS.items()}
    )


def load_config(path: str | None = None,
                overrides: dict[tuple[str, str], str] | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides."""
    config = default_config()
    if path:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        for section in parser.sections():
            if section not in CONFIG_KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in CONFIG_KEYS[section]:
                    raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
                config.values[section][key] = value
    for (section, key), value in (overrides or {}).items():
        if section not in CONFIG_KEYS or key not in CONFIG_KEYS[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        config.values[section][key] = value
    return config


def config_help_text() -> str:
    lines = ["configuration keys (file sections with defaults):"]
    for section, keys in CONFIG_KEYS.items():
        lines.append(f"  [{section}]")
        for key, (default, help_text) in keys.items():
            shown = default if default != "" else "<unset>"
            lines.append(f"    {key} = {shown}")
            lines.append(f"        {help_text}")
    return "\n".join(lines)
