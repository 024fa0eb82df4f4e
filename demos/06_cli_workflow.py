"""End-to-end command-line workflow.

Writes a kernel to a .ten file, decomposes it both ways at a shared error
budget, reconstructs it back, checks gradients for a config, trains the two
shipped configs (shortened here), and merges their logs into the final
accuracy/compression table.  Everything is written to a temporary working
directory, which is listed and removed at the end.
"""

import pathlib
import tempfile

import numpy as np

from ttconv.cli import main
from ttconv.io import load_dense, save_dense
from ttconv.kernels import factorize_channels, random_ttconv_kernel, ttconv_to_dense

here = pathlib.Path(__file__).parent
workdir = tempfile.TemporaryDirectory(prefix="ttconv-demo-")
work = pathlib.Path(workdir.name)
print("working directory:", work)


def run(*argv):
    print(f"\n$ ttconv {' '.join(str(a) for a in argv)}")
    code = main([str(a) for a in argv])
    if code:
        raise SystemExit(f"command failed with exit code {code}")


# ----------------------------------------------------------------------
# decompose / reconstruct round trip
# ----------------------------------------------------------------------
rng = np.random.default_rng(5)
fact = factorize_channels(16, 16, 2)
kernel = ttconv_to_dense(random_ttconv_kernel(3, fact, (3, 3), rng))
save_dense(work / "kernel.ten", kernel)

run("decompose", work / "kernel.ten", "-o", work / "kernel.ttcv",
    "--mode", "ttconv", "--tol", "1e-2")
run("decompose", work / "kernel.ten", "-o", work / "kernel-naive.tt",
    "--mode", "ttconv-naive", "--tol", "1e-2")
run("reconstruct", work / "kernel.ttcv", "-o", work / "kernel-back.ten")

back = load_dense(work / "kernel-back.ten")
err = np.linalg.norm(back - kernel) / np.linalg.norm(kernel)
print(f"\nreconstruction error after the round trip: {err:.3e}")

# ----------------------------------------------------------------------
# gradcheck + short training runs on the shipped configs
# ----------------------------------------------------------------------
def shortened(cfg_path, epochs=6):
    text = (here / "configs" / cfg_path).read_text()
    out = work / cfg_path
    out.write_text(text.replace("epochs = 30", f"epochs = {epochs}"))
    return out


dense_cfg = shortened("dense-baseline.cfg")
tt_cfg = shortened("ttconv.cfg")

run("gradcheck", tt_cfg, "--batch", "4")
run("train", dense_cfg, "-o", work / "dense.csv")
run("train", tt_cfg, "-o", work / "tt.csv")
run("report", work / "dense.csv", work / "tt.csv", "--csv", work / "table.csv")

print("\nfiles produced (removed with the working directory):")
for p in sorted(work.iterdir()):
    print(" ", p.name)
workdir.cleanup()
