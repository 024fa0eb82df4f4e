"""Flat key=value training configs and the network builder behind them.

A config is plain text: one ``key = value`` per line, ``#`` comments, and one
``layer = <kind> <args>`` line per layer in order.  Example::

    name = TT-conv
    seed = 7
    epochs = 30
    lr = 0.03
    momentum = 0.9
    decay_every = 20
    decay_factor = 10
    batch_size = 128
    layer = dense-conv 3 8
    layer = relu
    layer = max-pool
    layer = tt-conv 3 16 ranks=6,5 d=2
    layer = relu
    layer = dense-fc 2

Layer grammar (positional sizes first, ``key=value`` options after):

    dense-conv L S [nobias]         | tt-conv L S ranks=r1,r2 [d=N]
    naive-tt-conv L S ranks=a,b,c   |     [factors=C1xC2:S1xS2] [nobias]
    dense-fc OUT [nobias]           | tt-fc OUT ranks=... [d=N] [factors=...]
    relu | max-pool | avg-pool K | batch-norm | zero-pad P
    softmax-cross-entropy           (optional trailing loss head)
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


_INT_KEYS = {"seed", "epochs", "batch_size", "decay_every", "train_size", "test_size",
             "size", "dataset_seed", "init_seed"}
_FLOAT_KEYS = {"lr", "momentum", "decay_factor", "noise"}
_STR_KEYS = {"name", "dataset"}
# decay_every = 0 means no decay; stripes-blobs draws blob centres from [1, size - 2]
_MIN_VALUES = {"epochs": 1, "batch_size": 1, "train_size": 1, "test_size": 1, "size": 3,
               "decay_every": 0}

DEFAULTS = {
    "name": "model",
    "seed": 0,
    "epochs": 30,
    "lr": 0.03,
    "momentum": 0.9,
    "decay_every": 20,
    "decay_factor": 10.0,
    "batch_size": 128,
    "dataset": "stripes-blobs",
    "dataset_seed": 0,
    "train_size": 2000,
    "test_size": 500,
    "size": 16,
    "noise": 1.0,
}


def parse_config(text: str) -> dict:
    cfg = dict(DEFAULTS)
    cfg["layers"] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "layer":
            cfg["layers"].append(value)
        elif key in _INT_KEYS:
            try:
                cfg[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
        elif key in _FLOAT_KEYS:
            try:
                cfg[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be a number") from None
            if not math.isfinite(cfg[key]):
                raise ConfigError(f"line {lineno}: {key} must be finite, got {value}")
        elif key in _STR_KEYS:
            cfg[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    for key, low in _MIN_VALUES.items():
        if cfg[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {cfg[key]}")
    if not cfg["decay_factor"] > 0:
        raise ConfigError(f"decay_factor must be positive, got {cfg['decay_factor']}")
    if "init_seed" not in cfg:
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
    return ChannelFactorization(c_factors, s_factors)


def _split_layer_tokens(tokens):
    positional, options = [], {}
    for tok in tokens:
        if "=" in tok:
            key, value = tok.split("=", 1)
            options[key] = value
        else:
            positional.append(tok)
    return positional, options


def _build_layer(spec: str):
    tokens = spec.split()
    if not tokens:
        raise ConfigError("empty layer spec")
    kind = tokens[0]
    positional, options = _split_layer_tokens(tokens[1:])
    bias = "nobias" not in positional
    positional = [tok for tok in positional if tok != "nobias"]

    def ints(n):
        if len(positional) != n:
            raise ConfigError(f"{kind}: expected {n} size argument(s), got {positional}")
        try:
            return [int(tok) for tok in positional]
        except ValueError:
            raise ConfigError(f"{kind}: sizes must be integers, got {positional}") from None

    def ranks_opt():
        if "ranks" not in options:
            raise ConfigError(f"{kind}: missing ranks=...")
        ranks = parse_int_list(options["ranks"])
        if min(ranks) < 1:
            raise ConfigError(f"{kind}: ranks must be at least 1, got {options['ranks']}")
        return ranks

    def fact_opt():
        # padding is fitted to the real channel counts when the layer builds
        return parse_factors(options["factors"]) if "factors" in options else None

    if kind == "dense-conv":
        ell, out = ints(2)
        return Conv2D(ell, out, bias=bias)
    if kind == "tt-conv":
        ell, out = ints(2)
        return TTConv(
            ell, out, ranks=ranks_opt(), d=int(options.get("d", 2)),
            factors=fact_opt(), bias=bias,
        )
    if kind == "naive-tt-conv":
        ell, out = ints(2)
        return NaiveTTConv(ell, out, ranks=ranks_opt(), bias=bias)
    if kind == "dense-fc":
        (out,) = ints(1)
        return Dense(out, bias=bias)
    if kind == "tt-fc":
        (out,) = ints(1)
        return TTDense(
            out, ranks=ranks_opt(), d=int(options.get("d", 2)),
            factors=fact_opt(), bias=bias,
        )
    if kind == "softmax-cross-entropy":
        raise ConfigError(
            "softmax-cross-entropy is the implicit loss head; it may only "
            "appear as the final layer line"
        )
    if kind == "relu":
        return ReLU()
    if kind == "max-pool":
        return MaxPool()
    if kind == "avg-pool":
        (k,) = ints(1)
        return AvgPool(k)
    if kind == "batch-norm":
        return BatchNorm()
    if kind == "zero-pad":
        (p,) = ints(1)
        return ZeroPad(p)
    raise ConfigError(f"unknown layer kind {kind!r}")


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
