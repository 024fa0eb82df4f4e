import os
import resource
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ttconv.cli import main
from ttconv.io import load_dense, save_dense
from ttconv.io import save_tt
from ttconv.kernels import factorize_channels, random_ttconv_kernel, ttconv_to_dense
from ttconv.tt import FULL_ELEMENT_CAP, TTTensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no '{key}' line in output:\n{out}")


TOY_CONFIG = """
name = toy
seed = 3
epochs = 2
lr = 0.05
momentum = 0.9
decay_every = 20
decay_factor = 10
batch_size = 32
train_size = 64
test_size = 32
layer = dense-conv 3 4
layer = relu
layer = max-pool
layer = dense-fc 2
"""


def write_config(tmp_path, text, name="net.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).strip() + "\n")
    return str(path)


class TestDecompose:
    def test_rank1_tensor(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = np.einsum("i,j,k->ijk", *(rng.standard_normal(4) for _ in range(3)))
        src = tmp_path / "a.ten"
        save_dense(src, a)
        code, out, _ = run(
            capsys, "decompose", str(src), "-o", str(tmp_path / "a.tt"),
            "--mode", "tt", "--ranks", "1,1",
        )
        assert code == 0
        assert float(summary_value(out, "compression")) >= 1.0
        assert float(summary_value(out, "relative error")) <= 1e-10

    def test_ttconv_full_rank_kernel(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        kernel = rng.standard_normal((3, 3, 8, 8))
        src = tmp_path / "k.ten"
        save_dense(src, kernel)
        code, out, _ = run(
            capsys, "decompose", str(src), "-o", str(tmp_path / "k.ttcv"),
            "--mode", "ttconv", "--d", "2", "--ranks", "9,16",
        )
        assert code == 0
        assert float(summary_value(out, "relative error")) <= 1e-10
        dense = int(summary_value(out, "dense params"))
        compressed = int(summary_value(out, "compressed params"))
        assert dense == kernel.size
        printed = float(summary_value(out, "compression"))
        assert printed == pytest.approx(round(dense / compressed, 2), abs=5e-3)

    def test_proposed_vs_naive_at_error_budget(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        fact = factorize_channels(8, 8, 2)
        kernel = ttconv_to_dense(random_ttconv_kernel(3, fact, (3, 3), rng))
        src = tmp_path / "k.ten"
        save_dense(src, kernel)
        code_p, out_p, _ = run(
            capsys, "decompose", str(src), "-o", str(tmp_path / "p.ttcv"),
            "--mode", "ttconv", "--tol", "1e-2",
        )
        code_n, out_n, _ = run(
            capsys, "decompose", str(src), "-o", str(tmp_path / "n.tt"),
            "--mode", "ttconv-naive", "--tol", "1e-2",
        )
        assert code_p == 0 and code_n == 0
        assert float(summary_value(out_p, "compression")) > float(
            summary_value(out_n, "compression")
        )

    def test_ttmatrix_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        src = tmp_path / "m.ten"
        save_dense(src, a)
        code, out, _ = run(
            capsys, "decompose", str(src), "-o", str(tmp_path / "m.ttm"),
            "--mode", "ttmatrix", "--factors", "2x3:3x2", "--ranks", "6",
        )
        assert code == 0
        assert float(summary_value(out, "relative error")) <= 1e-10

    def test_rank_and_tol_flags_conflict(self, tmp_path):
        src = tmp_path / "a.ten"
        save_dense(src, np.ones((2, 2)))
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(src), "-o", "x.tt", "--mode", "tt",
                  "--ranks", "1", "--tol", "0.1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(src), "-o", "x.tt", "--mode", "tt"])
        assert exc.value.code == 2

    def test_factor_mismatch_exit_3(self, tmp_path, capsys):
        src = tmp_path / "m.ten"
        save_dense(src, np.ones((4, 4)))
        code, _, err = run(
            capsys, "decompose", str(src), "-o", str(tmp_path / "m.ttm"),
            "--mode", "ttmatrix", "--factors", "3x2:2x2", "--ranks", "2",
        )
        assert code == 3

    def test_missing_input_exit_4(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "decompose", str(tmp_path / "nope.ten"), "-o", "x.tt",
            "--mode", "tt", "--ranks", "1",
        )
        assert code == 4

    @pytest.mark.parametrize("bad,counts", [(np.nan, "1 NaN, 0 inf"), (np.inf, "0 NaN, 1 inf")])
    @pytest.mark.parametrize("mode", ["tt", "ttconv", "ttconv-naive"])
    def test_non_finite_kernel_exit_2(self, tmp_path, capsys, mode, bad, counts):
        kernel = np.random.default_rng(4).standard_normal((3, 3, 8, 8))
        kernel[1, 2, 3, 4] = bad
        src = tmp_path / "k.ten"
        save_dense(src, kernel)
        code, out, err = run(capsys, "decompose", str(src), "-o", str(tmp_path / "k.out"),
                             "--mode", mode, "--tol", "0.1")
        assert code == 2
        assert out == ""
        assert err == f"error: cannot decompose a tensor with non-finite entries ({counts})\n"
        assert not (tmp_path / "k.out").exists()

    def test_garbage_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.ten"
        src.write_bytes(b"not a tensor at all")
        code, _, err = run(capsys, "decompose", str(src), "-o", "x.tt",
                           "--mode", "tt", "--ranks", "1")
        assert code == 2


class TestReconstruct:
    def test_roundtrip_values(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 3, 2))
        src = tmp_path / "a.ten"
        save_dense(src, a)
        run(capsys, "decompose", str(src), "-o", str(tmp_path / "a.tt"),
            "--mode", "tt", "--ranks", "6,2")
        code, out, _ = run(capsys, "reconstruct", str(tmp_path / "a.tt"),
                           "-o", str(tmp_path / "back.ten"))
        assert code == 0
        back = load_dense(tmp_path / "back.ten")
        assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)

    def test_zero_tensor_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "z.ten"
        save_dense(src, np.zeros((3, 3)))
        run(capsys, "decompose", str(src), "-o", str(tmp_path / "z.tt"),
            "--mode", "tt", "--ranks", "1")
        code, _, _ = run(capsys, "reconstruct", str(tmp_path / "z.tt"),
                         "-o", str(tmp_path / "zback.ten"))
        assert code == 0
        assert np.array_equal(load_dense(tmp_path / "zback.ten"), np.zeros((3, 3)))

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        save_dense(tmp_path / "a.ten", rng.standard_normal((4, 4)))
        run(capsys, "decompose", str(tmp_path / "a.ten"), "-o", str(tmp_path / "a.tt"),
            "--mode", "tt", "--ranks", "4")
        run(capsys, "reconstruct", str(tmp_path / "a.tt"), "-o", str(tmp_path / "r1.ten"))
        run(capsys, "reconstruct", str(tmp_path / "a.tt"), "-o", str(tmp_path / "r2.ten"))
        assert (tmp_path / "r1.ten").read_bytes() == (tmp_path / "r2.ten").read_bytes()

    def test_dense_input_rejected(self, tmp_path, capsys):
        save_dense(tmp_path / "a.ten", np.ones((2, 2)))
        code, _, _ = run(capsys, "reconstruct", str(tmp_path / "a.ten"), "-o", "x.ten")
        assert code == 2


    def test_oversize_tt_exit_3(self, tmp_path, capsys):
        modes = (10_000, 10_000, 10)
        assert 10**9 > FULL_ELEMENT_CAP
        save_tt(tmp_path / "big.tt", TTTensor([np.ones((1, n, 1)) for n in modes]))
        out_path = tmp_path / "x.ten"
        code, _, err = run(capsys, "reconstruct", str(tmp_path / "big.tt"), "-o", str(out_path))
        assert code == 3
        assert "cap" in err and "Traceback" not in err
        assert not out_path.exists()

    def test_declared_size_beyond_file_exit_2(self, tmp_path, capsys):
        src = tmp_path / "huge.ten"
        src.write_bytes(
            b"TTEN" + struct.pack("<3I", 1, 0, 2) + struct.pack("<2Q", 2**40, 2**40) + bytes(8)
        )
        code, _, err = run(capsys, "reconstruct", str(src), "-o", str(tmp_path / "x.ten"))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


def tt_stream(modes, ranks):
    """Bytes of a ``.tt`` stream with these header fields and zero cores."""
    count = sum(n * ranks[k] * ranks[k + 1] for k, n in enumerate(modes))
    return (
        b"TTTN" + struct.pack("<3I", 1, 0, len(modes)) + struct.pack(f"<{len(modes)}Q", *modes)
        + struct.pack(f"<{len(ranks)}Q", *ranks) + bytes(8 * count)
    )


class TestMalformedContainers:
    """Fields that parse but do not fit together are a parse failure (exit 2)."""

    def reconstruct(self, capsys, tmp_path, name, data):
        src = tmp_path / name
        src.write_bytes(data)
        out_path = tmp_path / "x.ten"
        code, _, err = run(capsys, "reconstruct", str(src), "-o", str(out_path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert not out_path.exists()
        return err

    def test_tt_boundary_rank_not_one(self, tmp_path, capsys):
        err = self.reconstruct(capsys, tmp_path, "a.tt", tt_stream((2, 3), (2, 2, 1)))
        assert "boundary TT-ranks must equal 1" in err

    def test_ttcv_first_rank_not_one(self, tmp_path, capsys):
        # l = 1, d = 1, C = S = 2, no padding; ranks (2, 1, 1)
        data = (
            b"TTCV" + struct.pack("<4I", 1, 0, 1, 1) + struct.pack("<2Q", 2, 2)
            + struct.pack("<2I", 0, 0) + struct.pack("<3Q", 2, 1, 1) + bytes(8 * (1 + 4))
        )
        err = self.reconstruct(capsys, tmp_path, "a.ttcv", data)
        assert "boundary TT-ranks must equal 1" in err

    def test_ttcv_rank_chain_not_closed(self, tmp_path, capsys):
        # l = 1, d = 1, C = S = 2, no padding; ranks (1, 1, 2): the chain ends at 2
        data = (
            b"TTCV" + struct.pack("<4I", 1, 0, 1, 1) + struct.pack("<2Q", 2, 2)
            + struct.pack("<2I", 0, 0) + struct.pack("<3Q", 1, 1, 2) + bytes(8 * (1 + 8))
        )
        err = self.reconstruct(capsys, tmp_path, "a.ttcv", data)
        assert "final TT-rank must equal 1" in err

    def test_ttm_factors_do_not_match_modes(self, tmp_path, capsys):
        data = (
            b"TTMX" + struct.pack("<3I", 1, 0, 2) + struct.pack("<2Q", 2, 2)
            + struct.pack("<2Q", 2, 3) + tt_stream((4, 4), (1, 1, 1))
        )
        err = self.reconstruct(capsys, tmp_path, "a.ttm", data)
        assert "mode 1 has size 4, expected 2*3" in err

    def test_ttcv_spatial_size_zero(self, tmp_path, capsys):
        data = (
            b"TTCV" + struct.pack("<4I", 1, 0, 0, 1) + struct.pack("<2Q", 2, 2)
            + struct.pack("<2I", 0, 0) + struct.pack("<3Q", 1, 1, 1) + bytes(8 * 4)
        )
        err = self.reconstruct(capsys, tmp_path, "a.ttcv", data)
        assert "l must be at least 1, got 0" in err

    def test_tt_interior_rank_zero(self, tmp_path, capsys):
        err = self.reconstruct(capsys, tmp_path, "a.tt", tt_stream((3, 4), (1, 0, 1)))
        assert err == "error: TT-rank 1 is 0, must be at least 1\n"

    def test_ttm_interior_rank_zero(self, tmp_path, capsys):
        data = (
            b"TTMX" + struct.pack("<3I", 1, 0, 2) + struct.pack("<2Q", 1, 2)
            + struct.pack("<2Q", 3, 2) + tt_stream((3, 4), (1, 0, 1))
        )
        err = self.reconstruct(capsys, tmp_path, "a.ttm", data)
        assert err == "error: TT-rank 1 is 0, must be at least 1\n"

    def test_ttcv_interior_rank_zero(self, tmp_path, capsys):
        # l = 1, d = 2, C = S = 2x2, no padding; ranks (1, 1, 0, 1)
        data = (
            b"TTCV" + struct.pack("<4I", 1, 0, 1, 2) + struct.pack("<4Q", 2, 2, 2, 2)
            + struct.pack("<2I", 0, 0) + struct.pack("<4Q", 1, 1, 0, 1) + bytes(8)
        )
        err = self.reconstruct(capsys, tmp_path, "a.ttcv", data)
        assert err == "error: TT-rank 2 is 0, must be at least 1\n"


class TestGradcheck:
    def test_toy_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        code, out, _ = run(capsys, "gradcheck", cfg, "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layer|kind|params|max_rel_err|status"
        assert all(line.endswith("pass") for line in lines[1:])
        assert len(lines) == 3  # conv + fc

    def test_corrupted_gradient_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        code, out, _ = run(capsys, "gradcheck", cfg, "--corrupt-gradient")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("flag,value", [("--h", "0"), ("--h", "-0.5"), ("--h", "nan"),
                                            ("--batch", "0"), ("--batch", "-3"),
                                            ("--seed", "-1"), ("--tol", "inf"), ("--tol", "0"),
                                            ("--tol", "-1"), ("--tol", "nan")])
    def test_bad_step_or_batch_exit_2(self, tmp_path, capsys, flag, value):
        # --h 0 made every row pass; --batch -3 checked all but the last 3 images;
        # --tol inf passed a corrupted gradient, and 0, -1 or nan failed every row
        cfg = write_config(tmp_path, TOY_CONFIG)
        code, out, err = run(capsys, "gradcheck", cfg, flag, value)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be")

    def test_empty_net_empty_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "name = empty\ntrain_size = 8\ntest_size = 8\n")
        code, out, _ = run(capsys, "gradcheck", cfg)
        assert code == 0
        assert out.strip() == "layer|kind|params|max_rel_err|status"


class TestTrainAndReport:
    def test_train_writes_log_and_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG)
        log_path = tmp_path / "toy.csv"
        code, out, _ = run(capsys, "train", cfg, "-o", str(log_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "model|top1_acc|compr"
        assert lines[1].startswith("toy|")
        assert lines[1].endswith("|1.00")  # dense net: baseline compression
        text = log_path.read_text()
        assert text.startswith("# model = toy\n# compression = ")
        assert "epoch,lr,train_loss,train_acc,test_acc" in text
        assert len(text.strip().splitlines()) == 2 + 1 + 2  # meta + header + 2 epochs

    def test_report_merges_and_sorts(self, tmp_path, capsys):
        dense_cfg = write_config(tmp_path, TOY_CONFIG, "dense.cfg")
        tt_cfg = write_config(
            tmp_path,
            TOY_CONFIG.replace("name = toy", "name = toy-tt").replace(
                "layer = dense-fc 2", "layer = tt-fc 2 ranks=2,2 d=2"
            ),
            "tt.cfg",
        )
        run(capsys, "train", dense_cfg, "-o", str(tmp_path / "dense.csv"))
        run(capsys, "train", tt_cfg, "-o", str(tmp_path / "tt.csv"))
        code, out, _ = run(
            capsys, "report", str(tmp_path / "tt.csv"), str(tmp_path / "dense.csv"),
            "--csv", str(tmp_path / "table.csv"),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "model|top1_acc|compr"
        assert lines[1].startswith("toy|")  # compression 1.00 sorts first
        assert lines[2].startswith("toy-tt|")
        csv_text = (tmp_path / "table.csv").read_text().splitlines()
        assert csv_text[0] == "model,top1_acc,compr"
        assert len(csv_text) == 3

    def test_report_missing_log_exit_5(self, tmp_path, capsys):
        code, _, err = run(capsys, "report", str(tmp_path / "absent.csv"))
        assert code == 5

    def test_report_malformed_log_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,lr\n0,0.1\n")
        code, _, _ = run(capsys, "report", str(bad))
        assert code == 2

    def test_compression_two_decimals(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            TOY_CONFIG.replace("layer = dense-fc 2", "layer = tt-fc 2 ranks=2,2 d=2"),
        )
        code, out, _ = run(capsys, "train", cfg, "-o", str(tmp_path / "log.csv"))
        assert code == 0
        compr_field = out.strip().splitlines()[1].split("|")[2]
        assert len(compr_field.split(".")[1]) == 2


    def test_diverging_run_exit_1_without_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, TOY_CONFIG.replace("lr = 0.05", "lr = 1e300").replace("epochs = 2", "epochs = 1")
        )
        log_path = tmp_path / "toy.csv"
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert code == 1
        assert err == "error: training diverged (loss is not finite) at epoch 0\n"
        assert out == ""
        assert not log_path.exists()


    def test_diverging_run_prints_only_its_error_line(self, tmp_path):
        cfg = write_config(
            tmp_path,
            TOY_CONFIG.replace("lr = 0.05", "lr = 1e300").replace("epochs = 2", "epochs = 1"),
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ttconv", "train", cfg, "-o", str(tmp_path / "toy.csv")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: training diverged (loss is not finite) at epoch 0\n"


# 3 * 3 * 10000 * 1200 kernel entries, above the element cap
OVERSIZE_CONV_CONFIG = """
size = 3
train_size = 2
test_size = 2
epochs = 1
batch_size = 2
layer = dense-conv 1 10000
layer = {layer}
layer = dense-fc 2
"""

ADDRESS_SPACE_LIMIT = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def ttconv_child(tmp_path, *argv, address_space_limit=False):
    """``python -m ttconv *argv`` in a child process on one BLAS thread."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ttconv", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space if address_space_limit else None,
    )


class TestSizeLimits:
    @pytest.mark.parametrize(
        "layer", ["tt-conv 3 1200 ranks=2,2", "naive-tt-conv 3 1200 ranks=1,1,1"]
    )
    def test_conv_above_cap_exit_3_at_first_forward(self, tmp_path, layer):
        cfg = write_config(tmp_path, OVERSIZE_CONV_CONFIG.format(layer=layer))
        proc = ttconv_child(tmp_path, "train", cfg, "-o", "log.csv")
        kind = layer.split()[0]
        assert proc.returncode == 3
        assert proc.stderr == (
            f"error: layer 1 ({kind}): refusing to materialize 108000000 elements "
            "(cap 100000000)\n"
        )
        assert proc.stdout == ""
        assert not (tmp_path / "log.csv").exists()

    @pytest.mark.parametrize(
        "old,new",
        [
            # 10 images of 200000 x 200000 pixels: refused while generating the data
            ("train_size = 64", "train_size = 10\nsize = 200000"),
            # a 2-billion-column weight matrix: refused while layer 3 builds
            ("layer = dense-fc 2", "layer = dense-fc 2000000000"),
        ],
    )
    def test_refused_allocation_exit_3(self, tmp_path, old, new):
        assert old in TOY_CONFIG
        cfg = write_config(tmp_path, TOY_CONFIG.replace(old, new))
        proc = ttconv_child(tmp_path, "train", cfg, "-o", "log.csv", address_space_limit=True)
        assert proc.returncode == 3, proc.stderr
        named = "layer 3 (dense-fc): " if "dense-fc" in new else ""
        assert proc.stderr.startswith(f"error: {named}Unable to allocate")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "log.csv").exists()


class TestLossHeadInput:
    """Logits that are not (batch, classes), or too few classes for the
    targets, are a shape mismatch (exit 3) named by the loss head; so is a
    layer that cannot take its input's shape, named by its index and kind."""

    @pytest.mark.parametrize(
        "layers,message",
        [
            ("layer = relu",
             "error: softmax-cross-entropy expects (batch, classes) logits, "
             "got (32, 16, 16, 1) logits for (32,) targets\n"),
            ("layer = dense-conv 3 4\nlayer = relu\nlayer = max-pool\nlayer = dense-fc 1",
             "error: softmax-cross-entropy: targets must lie in [0, 1), got 0..1\n"),
            ("layer = dense-conv 3 4\nlayer = relu\nlayer = max-pool\nlayer = dense-conv 3 2",
             "error: softmax-cross-entropy expects (batch, classes) logits, "
             "got (32, 4, 4, 2) logits for (32,) targets\n"),
            *(
                (f"layer = dense-fc 4\nlayer = {kind}\nlayer = dense-fc 2",
                 f"error: layer 1 ({kind.split()[0]}): {kind.split()[0]} expects W x H x C "
                 "samples, got shape (4,)\n")
                for kind in ("max-pool", "zero-pad 1", "dense-conv 3 4", "avg-pool 2")
            ),
            *(
                (f"layer = naive-tt-conv 3 4 ranks={ranks}\nlayer = dense-fc 2",
                 "error: layer 0 (naive-tt-conv): naive TT kernel has 4 modes and needs "
                 "3 interior ranks\n")
                for ranks in ("2,2", "2,2,2,2")
            ),
        ],
    )
    def test_train_exit_3(self, tmp_path, capsys, layers, message):
        text = TOY_CONFIG.split("layer =", 1)[0] + layers
        cfg = write_config(tmp_path, text)
        log_path = tmp_path / "toy.csv"
        code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert (code, out, err) == (3, "", message)
        assert not log_path.exists()

    def test_gradcheck_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_CONFIG.replace("dense-fc 2", "dense-conv 3 2"))
        code, out, err = run(capsys, "gradcheck", cfg)
        assert code == 3
        assert out == ""
        assert err.startswith("error: softmax-cross-entropy expects (batch, classes) logits")
        assert err.count("\n") == 1


class TestConfigErrors:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bogus = 1\n")
        code, _, _ = run(capsys, "gradcheck", cfg)
        assert code == 2

    def test_unknown_layer_kind_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "layer = warp-drive 3 4\ntrain_size = 8\ntest_size = 8\n")
        code, _, _ = run(capsys, "gradcheck", cfg)
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "old,key", [("lr = 0.05", "lr"), ("momentum = 0.9", "momentum"),
                    ("decay_factor = 10", "decay_factor"), ("epochs = 2", "noise")]
    )
    def test_train_rejects_non_finite_floats_exit_2(self, tmp_path, capsys, old, key, value):
        assert old in TOY_CONFIG
        new = f"{key} = {value}" if key != "noise" else f"{old}\nnoise = {value}"
        cfg = write_config(tmp_path, TOY_CONFIG.replace(old, new))
        lineno = next(i for i, line in enumerate(Path(cfg).read_text().splitlines(), 1)
                      if line.startswith(f"{key} ="))
        log_path = tmp_path / "toy.csv"
        code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert code == 2
        assert out == ""
        assert err == f"error: line {lineno}: {key} must be finite, got {value}\n"
        assert not log_path.exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("layer = dense-fc 2", "layer = tt-fc 2 ranks=0,2 d=2",
             "tt-fc: ranks must be at least 1, got 0,2"),
            ("layer = dense-fc 2", "layer = tt-fc 2 ranks=-1,2 d=2",
             "tt-fc: ranks must be at least 1, got -1,2"),
            ("layer = dense-conv 3 4", "layer = tt-conv 3 4 ranks=2,0 d=2",
             "tt-conv: ranks must be at least 1, got 2,0"),
            ("layer = dense-conv 3 4", "layer = naive-tt-conv 3 4 ranks=2,2,0",
             "naive-tt-conv: ranks must be at least 1, got 2,2,0"),
            ("batch_size = 32", "batch_size = 0", "batch_size must be at least 1, got 0"),
            ("batch_size = 32", "batch_size = -4", "batch_size must be at least 1, got -4"),
            ("epochs = 2", "epochs = 0", "epochs must be at least 1, got 0"),
            ("train_size = 64", "train_size = 0", "train_size must be at least 1, got 0"),
            ("test_size = 32", "test_size = 0", "test_size must be at least 1, got 0"),
            ("test_size = 32", "test_size = 32\nsize = 0", "size must be at least 3, got 0"),
            ("test_size = 32", "test_size = 32\nsize = 2", "size must be at least 3, got 2"),
            ("decay_every = 20", "decay_every = -1", "decay_every must be at least 0, got -1"),
            # numpy's default_rng refused these with a message naming no key
            ("seed = 3", "seed = -1", "seed must be at least 0, got -1"),
            ("test_size = 32", "test_size = 32\ninit_seed = -2",
             "init_seed must be at least 0, got -2"),
            ("test_size = 32", "test_size = 32\ndataset_seed = -5",
             "dataset_seed must be at least 0, got -5"),
            ("decay_factor = 10", "decay_factor = 0", "decay_factor must be positive, got 0.0"),
            ("decay_factor = 10", "decay_factor = -10",
             "decay_factor must be positive, got -10.0"),
        ],
    )
    def test_train_rejects_nonpositive_sizes_exit_2(self, tmp_path, capsys, old, new, message):
        assert old in TOY_CONFIG
        cfg = write_config(tmp_path, TOY_CONFIG.replace(old, new))
        log_path = tmp_path / "toy.csv"
        code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert not log_path.exists()


class TestLayerGrammar:
    """Every layer line is checked against its kind: a size, option or flag
    the kind does not take is a parse failure naming the kind, never ignored."""

    @pytest.mark.parametrize(
        "layer,message",
        [
            ("max-pool 2", "max-pool: expected 0 size(s), got '2'"),
            ("relu 5", "relu: expected 0 size(s), got '5'"),
            ("relu nobias", "relu: does not take 'nobias' (options: none)"),
            ("dense-conv 3 8 foo=1", "dense-conv: does not take 'foo=1' (options: nobias)"),
            ("dense-conv 3 8 ranks=3", "dense-conv: does not take 'ranks=3' (options: nobias)"),
            ("dense-conv 3 8 nobias=1",
             "dense-conv: does not take 'nobias=1' (options: nobias)"),
            ("dense-conv 3 8 nobias nobias", "dense-conv: nobias given twice"),
            ("tt-conv 3 16 ranks=6,5 depth=3",
             "tt-conv: does not take 'depth=3' (options: ranks, d, factors, nobias)"),
            ("tt-conv 3 16 ranks=6,5 ranks=1,1", "tt-conv: ranks given twice"),
            ("tt-conv 3 16 ranks=6,5 d=3 factors=4x2:4x4",
             "tt-conv: d=3 disagrees with factors=4x2:4x4 of depth 2"),
            ("tt-conv 3 16 d=2", "tt-conv: missing ranks=..."),
            ("avg-pool 0", "avg-pool: sizes must be at least 1, got '0'"),
            ("dense-conv 0 8", "dense-conv: sizes must be at least 1, got '0 8'"),
            ("dense-conv 3 0", "dense-conv: sizes must be at least 1, got '3 0'"),
            ("dense-conv 3", "dense-conv: expected 2 size(s), got '3'"),
            ("dense-conv 3 x", "dense-conv: sizes must be integers, got '3 x'"),
            ("zero-pad -1", "zero-pad: sizes must be at least 0, got '-1'"),
            ("dense-fc 0", "dense-fc: sizes must be at least 1, got '0'"),
            ("dense-fc", "dense-fc: expected 1 size(s), got ''"),
            ("tt-conv 3 16 ranks=6,5 d=0", "tt-conv: d must be an integer at least 1, got '0'"),
            ("tt-fc 2 ranks=2,2 d=x", "tt-fc: d must be an integer at least 1, got 'x'"),
        ],
    )
    def test_train_rejects_layer_line_exit_2(self, tmp_path, capsys, layer, message):
        cfg = write_config(
            tmp_path, TOY_CONFIG.replace("layer = relu\n", f"layer = {layer}\nlayer = relu\n")
        )
        log_path = tmp_path / "toy.csv"
        code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not log_path.exists()

    @pytest.mark.parametrize(
        "layer", ["zero-pad 0", "dense-conv 3 4 nobias", "tt-conv 3 4 nobias d=1 ranks=2",
                  "tt-conv 3 4 ranks=2,2 d=2 factors=2x2:2x2"]
    )
    def test_edge_values_train(self, tmp_path, capsys, layer):
        cfg = write_config(
            tmp_path, TOY_CONFIG.replace("layer = relu\n", f"layer = {layer}\nlayer = relu\n")
        )
        code, _, err = run(capsys, "train", cfg, "-o", str(tmp_path / "toy.csv"))
        assert (code, err) == (0, "")



class TestRepeatedKeys:
    """Every key but ``layer`` may be given once."""

    @pytest.mark.parametrize("old,new", [("lr = 0.05", "lr = 0.1\nlr = 0.5"),
                                         ("seed = 3", "seed = 3\nseed = 3")])
    def test_train_rejects_repeated_key_exit_2(self, tmp_path, capsys, old, new):
        assert old in TOY_CONFIG
        cfg = write_config(tmp_path, TOY_CONFIG.replace(old, new))
        key = old.split()[0]
        lineno = [i for i, line in enumerate(Path(cfg).read_text().splitlines(), 1)
                  if line.startswith(f"{key} =")][1]
        log_path = tmp_path / "toy.csv"
        code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert (code, out, err) == (2, "", f"error: line {lineno}: {key} given twice\n")
        assert not log_path.exists()


class TestFactorBounds:
    """A ``factors=`` entry below 1 is a parse failure naming the kind."""

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("layer = dense-conv 3 4", "layer = tt-conv 3 4 ranks=2,2 factors=0x2:2x2",
             "tt-conv: factors must be at least 1, got 0x2:2x2"),
            ("layer = dense-conv 3 4", "layer = tt-conv 3 4 ranks=2,2 factors=1x1:-2x2",
             "tt-conv: factors must be at least 1, got 1x1:-2x2"),
            ("layer = dense-fc 2", "layer = tt-fc 2 ranks=2,2 factors=4x4:2x0",
             "tt-fc: factors must be at least 1, got 4x4:2x0"),
        ],
    )
    def test_train_rejects_factor_below_1_exit_2(self, tmp_path, capsys, old, new, message):
        assert old in TOY_CONFIG
        cfg = write_config(tmp_path, TOY_CONFIG.replace(old, new))
        log_path = tmp_path / "toy.csv"
        code, out, err = run(capsys, "train", cfg, "-o", str(log_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not log_path.exists()

class TestReportLogValues:
    """A log whose numbers do not read as a training log's is a parse failure
    naming the file."""

    GOOD_LOG = (
        "# model = m\n# compression = {compression}\n"
        "epoch,lr,train_loss,train_acc,test_acc\n0,0.1,0.5,0.75,{test_acc}\n"
    )

    @pytest.mark.parametrize(
        "compression,test_acc,message",
        [
            ("abc", "0.9", "compression must be a positive number, got 'abc'"),
            ("nan", "0.9", "compression must be a positive number, got 'nan'"),
            ("inf", "0.9", "compression must be a positive number, got 'inf'"),
            ("0", "0.9", "compression must be a positive number, got '0'"),
            ("1.5", "nan", "test_acc must lie in [0, 1], got nan"),
            ("1.5", "1.5", "test_acc must lie in [0, 1], got 1.5"),
            ("1.5", "abc", "malformed log rows"),
        ],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, compression, test_acc, message):
        path = tmp_path / "m.csv"
        path.write_text(self.GOOD_LOG.format(compression=compression, test_acc=test_acc))
        code, out, err = run(capsys, "report", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    def test_good_log(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text(self.GOOD_LOG.format(compression=1.5, test_acc=0.9))
        code, out, err = run(capsys, "report", str(path))
        assert (code, out, err) == (0, "model|top1_acc|compr\nm|90|1.50\n", "")


class TestModuleEntryPoint:
    def test_python_m_help(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ttconv", "--help"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: ttconv" in proc.stdout
