"""Flat key=value training configs and the network builder behind them.

A config is plain text: one ``key = value`` per line, ``#`` comments, and one
``layer = <kind> <sizes> <options>`` line per layer in order; see
``demos/configs/`` for complete examples.  Two tables declare the grammar.
``KEYS`` gives every other key its type, default and least value.
``_LAYERS`` gives every layer kind, keyed by its class's ``kind``, the number
of integer sizes it takes, their least value, and the options it takes:

    dense-conv L S [nobias]         tt-conv L S ranks=r1,...,rd [d=N]
    dense-fc OUT [nobias]               [factors=C1x..xCd:S1x..xSd] [nobias]
    naive-tt-conv L S ranks=a,b,c   tt-fc OUT ranks=r1,...,rd [d=N]
        [nobias]                        [factors=...] [nobias]
    relu | max-pool | batch-norm | avg-pool K | zero-pad P
    softmax-cross-entropy           (optional final line: the loss head)

Sizes are at least 1 (zero-pad's P at least 0), ranks and factors at least
1, and d an integer at least 1 that equals the depth of factors when both are
given.  A wrong number of sizes, or an option the kind does not take or given
twice, is a ConfigError naming the kind.  Every key but ``layer`` may be given
once.
"""

from __future__ import annotations

import math

from . import data as data_mod
from .kernels import ChannelFactorization
from .nn import (
    AvgPool,
    BatchNorm,
    Conv2D,
    Dense,
    MaxPool,
    NaiveTTConv,
    Network,
    ReLU,
    TTConv,
    TTDense,
    ZeroPad,
)


class ConfigError(ValueError):
    """Unparseable config file or layer spec."""


# key -> (type, default, least value); init_seed defaults to seed, decay_every
# = 0 means no decay, and stripes-blobs draws blob centres from [1, size - 2]
KEYS = {
    "name": (str, "model", None),
    "seed": (int, 0, 0),
    "epochs": (int, 30, 1),
    "lr": (float, 0.03, None),
    "momentum": (float, 0.9, None),
    "decay_every": (int, 20, 0),
    "decay_factor": (float, 10.0, None),
    "batch_size": (int, 128, 1),
    "dataset": (str, "stripes-blobs", None),
    "dataset_seed": (int, 0, 0),
    "train_size": (int, 2000, 1),
    "test_size": (int, 500, 1),
    "size": (int, 16, 3),
    "noise": (float, 1.0, None),
    "init_seed": (int, None, 0),
}
_NOUNS = {int: "an integer", float: "a number"}


def parse_config(text: str) -> dict:
    cfg = {key: default for key, (_, default, _) in KEYS.items()}
    cfg["layers"] = []
    given = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "layer":
            cfg["layers"].append(value)
            continue
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"line {lineno}: {key} given twice")
        given.add(key)
        convert = KEYS[key][0]
        try:
            cfg[key] = convert(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be {_NOUNS[convert]}") from None
        if convert is float and not math.isfinite(cfg[key]):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {value}")
    for key, (_, _, least) in KEYS.items():
        if least is not None and cfg[key] is not None and cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}, got {cfg[key]}")
    if not cfg["decay_factor"] > 0:
        raise ConfigError(f"decay_factor must be positive, got {cfg['decay_factor']}")
    if cfg["init_seed"] is None:
        cfg["init_seed"] = cfg["seed"]
    return cfg


def load_config(path) -> dict:
    with open(path) as f:
        return parse_config(f.read())


def parse_int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def parse_factors(text) -> ChannelFactorization:
    """``C1xC2:S1xS2`` -> factorization (padding inferred by the caller)."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"factors must look like C1xC2:S1xS2, got {text!r}")
    try:
        c_factors = tuple(int(tok) for tok in parts[0].split("x"))
        s_factors = tuple(int(tok) for tok in parts[1].split("x"))
    except ValueError:
        raise ConfigError(f"factors must be integers, got {text!r}") from None
    if min(c_factors + s_factors) < 1:
        raise ConfigError(f"factors must be at least 1, got {text}")
    return ChannelFactorization(c_factors, s_factors)


def _parse_ranks(text):
    ranks = parse_int_list(text)
    if min(ranks) < 1:
        raise ConfigError(f"ranks must be at least 1, got {text}")
    return ranks


def _parse_depth(text):
    try:
        d = int(text)
    except ValueError:
        d = 0
    if d < 1:
        raise ConfigError(f"d must be an integer at least 1, got {text!r}")
    return d


# option -> parser of its value; a bare ``nobias`` is the one flag.  Parsed
# factors carry no padding: it is fitted to the channel counts at build time.
_OPTIONS = {"ranks": _parse_ranks, "d": _parse_depth, "factors": parse_factors}
_TT = ("ranks", "d", "factors", "nobias")

# kind -> (layer class, number of integer sizes, least size, options it takes);
# a kind that takes ranks needs them
_LAYERS = {
    cls.kind: (cls, sizes, least, options)
    for cls, sizes, least, options in [
        (Conv2D, 2, 1, ("nobias",)),
        (TTConv, 2, 1, _TT),
        (NaiveTTConv, 2, 1, ("ranks", "nobias")),
        (Dense, 1, 1, ("nobias",)),
        (TTDense, 1, 1, _TT),
        (ReLU, 0, 1, ()),
        (MaxPool, 0, 1, ()),
        (AvgPool, 1, 1, ()),
        (BatchNorm, 0, 1, ()),
        (ZeroPad, 1, 0, ()),
    ]
}


def _build_layer(spec: str):
    kind, *tokens = spec.split() or [""]
    if kind == "softmax-cross-entropy":
        raise ConfigError(
            "softmax-cross-entropy is the implicit loss head; it may only "
            "appear as the final layer line"
        )
    if kind not in _LAYERS:
        raise ConfigError(f"unknown layer kind {kind!r}" if kind else "empty layer spec")
    try:
        return _layer_from_row(*_LAYERS[kind], tokens)
    except ConfigError as e:
        raise ConfigError(f"{kind}: {e}") from None


def _layer_from_row(cls, n_sizes, least, takes, tokens):
    sizes, given = [], {}
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if not eq and tok != "nobias":
            sizes.append(tok)
        elif name not in takes or eq and name not in _OPTIONS:
            raise ConfigError(f"does not take {tok!r} (options: {', '.join(takes) or 'none'})")
        elif name in given:
            raise ConfigError(f"{name} given twice")
        else:
            given[name] = value
    shown = " ".join(sizes)
    if len(sizes) != n_sizes:
        raise ConfigError(f"expected {n_sizes} size(s), got {shown!r}")
    try:
        sizes = [int(tok) for tok in sizes]
    except ValueError:
        raise ConfigError(f"sizes must be integers, got {shown!r}") from None
    if any(size < least for size in sizes):
        raise ConfigError(f"sizes must be at least {least}, got {shown!r}")
    if "ranks" in takes and "ranks" not in given:
        raise ConfigError("missing ranks=...")
    kwargs = {name: _OPTIONS[name](value) for name, value in given.items() if name in _OPTIONS}
    fact, d = kwargs.get("factors"), kwargs.get("d")
    if fact and d and d != fact.depth:
        raise ConfigError(f"d={d} disagrees with factors={given['factors']} of depth {fact.depth}")
    if "nobias" in given:
        kwargs["bias"] = False
    return cls(*sizes, **kwargs)


def build_network(cfg: dict) -> Network:
    """Instantiate the layer stack; parameters are not allocated yet."""
    specs = list(cfg["layers"])
    if specs and specs[-1].strip() == "softmax-cross-entropy":
        specs = specs[:-1]  # the head is always present
    return Network([_build_layer(spec) for spec in specs])


def load_dataset(cfg: dict):
    if cfg["dataset"] != "stripes-blobs":
        raise ConfigError(f"unknown dataset {cfg['dataset']!r}")
    return data_mod.stripes_vs_blobs(
        n_train=cfg["train_size"],
        n_test=cfg["test_size"],
        size=cfg["size"],
        noise=cfg["noise"],
        seed=cfg["dataset_seed"],
    )
