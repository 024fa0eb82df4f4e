from pathlib import Path

import numpy as np
import pytest

from ttconv.config import build_network, load_config, parse_config

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_CONFIG = {
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
    "layers": [],
    "init_seed": 0,
}

SHIPPED_CONFIGS = {
    "demos/configs/dense-baseline.cfg": dict(
        DEFAULT_CONFIG,
        name="conv-baseline",
        seed=7,
        init_seed=42,
        layers=["dense-conv 3 8", "relu", "max-pool", "dense-conv 3 16", "relu", "dense-fc 2"],
    ),
    "demos/configs/ttconv.cfg": dict(
        DEFAULT_CONFIG,
        name="TT-conv",
        seed=7,
        init_seed=42,
        layers=["dense-conv 3 8", "relu", "max-pool", "tt-conv 3 16 ranks=6,5 d=2", "relu",
                "dense-fc 2"],
    ),
    "perfbench/configs/paper-net.cfg": dict(
        DEFAULT_CONFIG,
        name="paper-net",
        lr=0.001,
        batch_size=8,
        layers=[
            "zero-pad 1", "tt-conv 3 64 ranks=16,16,16 d=3", "batch-norm", "relu",
            "zero-pad 1", "dense-conv 3 64", "relu",
            "zero-pad 1", "naive-tt-conv 3 64 ranks=3,16,16", "relu",
            "max-pool", "tt-fc 64 ranks=8,8 d=2", "relu", "dense-fc 10",
        ],
    ),
}


class TestShippedConfigs:
    """What the grammar makes of the empty config and of every shipped one."""

    def test_empty_config_is_the_defaults(self):
        cfg = parse_config("")
        assert cfg == DEFAULT_CONFIG
        assert all(type(cfg[k]) is type(v) for k, v in DEFAULT_CONFIG.items())

    @pytest.mark.parametrize("path", sorted(SHIPPED_CONFIGS))
    def test_parses_to_literal_dict(self, path):
        cfg = load_config(ROOT / path)
        assert cfg == SHIPPED_CONFIGS[path]
        assert all(type(cfg[k]) is type(v) for k, v in SHIPPED_CONFIGS[path].items())

    @pytest.mark.parametrize(
        "path,input_shape,kinds,params",
        [
            ("demos/configs/dense-baseline.cfg", (16, 16, 1),
             ["dense-conv", "relu", "max-pool", "dense-conv", "relu", "dense-fc"], 1762),
            ("demos/configs/ttconv.cfg", (16, 16, 1),
             ["dense-conv", "relu", "max-pool", "tt-conv", "relu", "dense-fc"], 1184),
            ("perfbench/configs/paper-net.cfg", (32, 32, 64),
             ["zero-pad", "tt-conv", "batch-norm", "relu", "zero-pad", "dense-conv", "relu",
              "zero-pad", "naive-tt-conv", "relu", "max-pool", "tt-fc", "relu", "dense-fc"],
             133179),
        ],
    )
    def test_builds(self, path, input_shape, kinds, params):
        net = build_network(load_config(ROOT / path))
        net.build(input_shape, np.random.default_rng(0))
        assert [layer.kind for layer in net.layers] == kinds
        assert net.param_count == params
