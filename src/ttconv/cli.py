"""Command-line interface: decompose, reconstruct, gradcheck, train, report.

Exit codes: 0 success, 1 numeric check failed (gradcheck tolerance, or a
training loss that is not finite), 2 parse failure (files, configs, or flags),
3 shape or factor mismatch, a tensor too large to materialize, or an
allocation the machine refuses, 4 file IO failure, 5 missing training logs.
Numeric output uses 6 significant digits; compression ratios print with 2 decimals.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as tio
from .config import (
    ConfigError,
    build_network,
    load_config,
    load_dataset,
    parse_factors,
    parse_int_list,
)
from .conv import check_kernel
from .errors import FormatError, ShapeError, SizeError, TrainingDiverged
from .kernels import (
    TTConvKernel,
    compression_ratio,
    factorize_channels,
    fit_factorization,
    naive_ttconv_from_dense,
    naive_ttconv_to_dense,
    ttconv_from_dense,
    ttconv_to_dense,
)
from .nn import SGDMomentum, format_log_csv, read_log_csv
from .nn import gradcheck as run_gradcheck
from .nn import train as run_train
from .tt import TTTensor, tt_full, tt_param_count, tt_svd
from .ttmatrix import TTMatrix, ttm_from_dense, ttm_full

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_IO = 4
EXIT_MISSING_LOGS = 5

TABLE_HEADER = "model|top1_acc|compr"


def _print_summary(dense_params, compressed_params, rel_err, out_path):
    ratio = compression_ratio(dense_params, compressed_params)
    print(f"dense params: {dense_params}")
    print(f"compressed params: {compressed_params}")
    print(f"compression: {ratio:.2f}")
    print(f"relative error: {rel_err:.6g}")
    print(f"wrote {out_path}")


def _rel_err(a, recon):
    norm = np.linalg.norm(a)
    diff = np.linalg.norm(a - recon)
    return diff / norm if norm > 0 else diff


def cmd_decompose(args):
    a = tio.load_dense(args.input)
    ranks = parse_int_list(args.ranks) if args.ranks else None
    tol = args.tol

    if args.mode == "tt":
        tt = tt_svd(a, max_ranks=ranks, tol=tol)
        compressed, recon = tt_param_count(tt), tt_full(tt)
        tio.save_tt(args.output, tt, dtype=args.dtype)
    elif args.mode == "ttmatrix":
        if a.ndim != 2:
            raise ShapeError(f"ttmatrix mode needs a matrix, got {a.ndim} dims")
        if not args.factors:
            raise ConfigError("ttmatrix mode requires --factors M1xM2:N1xN2")
        f = parse_factors(args.factors)
        ttm = ttm_from_dense(a, f.c_factors, f.s_factors, max_ranks=ranks, tol=tol)
        compressed, recon = tt_param_count(ttm.tt), ttm_full(ttm)
        tio.save_ttmatrix(args.output, ttm, dtype=args.dtype)
    elif args.mode == "ttconv":
        c_in, s_out = check_kernel(a).shape[2:]
        if args.factors:
            fact = fit_factorization(parse_factors(args.factors), c_in, s_out)
        else:
            fact = factorize_channels(c_in, s_out, args.d)
        tk = ttconv_from_dense(a, fact, max_ranks=ranks, tol=tol)
        compressed, recon = tk.param_count, ttconv_to_dense(tk)
        tio.save_ttconv(args.output, tk, dtype=args.dtype)
    else:  # ttconv-naive
        nk = naive_ttconv_from_dense(a, max_ranks=ranks, tol=tol)
        compressed, recon = nk.param_count, naive_ttconv_to_dense(nk)
        tio.save_tt(args.output, nk.tt, dtype=args.dtype)

    _print_summary(a.size, compressed, _rel_err(a, recon), args.output)
    return EXIT_OK


def cmd_reconstruct(args):
    obj = tio.load_any(args.input)
    if isinstance(obj, np.ndarray):
        raise FormatError("input is already a dense tensor")
    if isinstance(obj, TTTensor):
        dense = tt_full(obj)
    elif isinstance(obj, TTMatrix):
        dense = ttm_full(obj)
    elif isinstance(obj, TTConvKernel):
        dense = ttconv_to_dense(obj)
    else:
        raise FormatError(f"cannot reconstruct {type(obj).__name__}")
    tio.save_dense(args.output, dense, dtype=args.dtype)
    print(f"wrote {args.output} with shape {dense.shape}")
    return EXIT_OK


def cmd_gradcheck(args):
    if not args.h > 0:
        raise ValueError(f"--h must be positive, got {args.h}")
    if args.batch < 1:
        raise ValueError(f"--batch must be at least 1, got {args.batch}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
        cfg["init_seed"] = args.seed
    data = load_dataset(cfg)
    net = build_network(cfg)
    net.build(data.input_shape, np.random.default_rng(cfg["init_seed"]))
    n = min(args.batch, len(data.x_train))
    report = run_gradcheck(
        net,
        data.x_train[:n],
        data.y_train[:n],
        h=args.h,
        tol=args.tol,
        corrupt=args.corrupt_gradient,
    )
    print("layer|kind|params|max_rel_err|status")
    for row in report:
        status = "pass" if row["ok"] else "FAIL"
        print(f"{row['layer']}|{row['kind']}|{row['params']}|{row['max_rel_err']:.6g}|{status}")
    return EXIT_OK if all(row["ok"] for row in report) else EXIT_CHECK_FAILED


def cmd_train(args):
    cfg = load_config(args.config)
    data = load_dataset(cfg)
    net = build_network(cfg)
    net.build(data.input_shape, np.random.default_rng(cfg["init_seed"]))
    opt = SGDMomentum(
        lr=cfg["lr"],
        momentum=cfg["momentum"],
        decay_every=cfg["decay_every"],
        decay_factor=cfg["decay_factor"],
    )
    # A diverging run overflows before its loss turns non-finite; the
    # TrainingDiverged error line reports it, so numpy's warnings would only
    # repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        log = run_train(
            net, data, opt, epochs=cfg["epochs"], seed=cfg["seed"], batch_size=cfg["batch_size"]
        )
    compression = net.compression
    with open(args.output, "w") as f:
        f.write(format_log_csv(log, name=cfg["name"], compression=compression))
    final_acc = 100.0 * log[-1]["test_acc"]
    print(TABLE_HEADER)
    print(f"{cfg['name']}|{final_acc:.6g}|{compression:.2f}")
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_report(args):
    rows = []
    for path in args.logs:
        try:
            log, name, compression = read_log_csv(path)
        except OSError:
            print(f"missing log: {path}", file=sys.stderr)
            return EXIT_MISSING_LOGS
        rows.append((name, log[-1]["test_acc"], compression))
    rows.sort(key=lambda r: r[2])
    lines = [TABLE_HEADER]
    for name, acc, compression in rows:
        lines.append(f"{name}|{100.0 * acc:.6g}|{compression:.2f}")
    print("\n".join(lines))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("model,top1_acc,compr\n")
            for name, acc, compression in rows:
                f.write(f"{name},{100.0 * acc:.6g},{compression:.2f}\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ttconv",
        description="Tensor Train decomposition toolkit for convolutional kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a dense .ten tensor")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--mode", required=True, choices=["tt", "ttmatrix", "ttconv", "ttconv-naive"])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ranks", help="comma-separated interior TT-ranks")
    group.add_argument("--tol", type=float, help="relative Frobenius error budget")
    p.add_argument("--factors", help="index factorizations, e.g. 4x2:4x4")
    p.add_argument("--d", type=int, default=2, help="channel factorization depth (ttconv)")
    p.add_argument("--dtype", choices=["f64", "f32"], default="f64")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reconstruct", help="materialize a decomposed file into .ten")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dtype", choices=["f64", "f32"], default="f64")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("gradcheck", help="finite-difference check of a config's network")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--h", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--corrupt-gradient", action="store_true",
                   help="negative control: corrupt one gradient entry")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train a config and write the log CSV")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="merge training logs into a ranked table")
    p.add_argument("logs", nargs="+")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ShapeError, SizeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SHAPE
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_SHAPE
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
