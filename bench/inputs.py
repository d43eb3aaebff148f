"""Input generation: a workload's CPEM store bytes and the CPEH bytes of a
reference head, all determined by the workload seed.

The benchmark runs this in a child process, so that generation stays out
of the timed regions and out of the workload's peak RSS; the program under
test receives only the bytes. Run by hand as

    python3 bench/inputs.py --workload train --seed 0 > inputs.bin
"""

from __future__ import annotations

import argparse
import io
import struct
import subprocess
import sys
import threading

from program import ROOT, load_cpes, pin_blas_threads
from workloads import WORKLOADS

BLOBS = ("train_store", "eval_store", "head")
_TIMEOUT_S = 150


def make_inputs(cpes, workload, seed: int) -> dict[str, bytes]:
    stores = {}
    blobs = {}
    for key, shape in (("train_store", workload.train_store), ("eval_store", workload.eval_store)):
        stores[key] = cpes.generate_synthetic(shape.config(cpes, seed))
        buf = io.BytesIO()
        cpes.write_store(stores[key], buf)
        blobs[key] = buf.getvalue()
    head, _ = cpes.train(
        stores["train_store"], workload.run_config(cpes, seed, workload.head_episodes)
    )
    buf = io.BytesIO()
    cpes.save_head(head, buf)
    blobs["head"] = buf.getvalue()
    return blobs


def generate(workload_name: str, seed: int) -> dict[str, bytes]:
    """Run make_inputs in a child process and return its blobs.

    Each blob is read from the pipe as its own bytes object, so the
    parent never holds a second copy of the inputs.
    """
    with subprocess.Popen(
        [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        watchdog = threading.Timer(_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            blobs = {}
            for name in BLOBS:
                header = proc.stdout.read(8)
                if len(header) != 8:
                    break
                (size,) = struct.unpack("<Q", header)
                blobs[name] = proc.stdout.read(size)
                if len(blobs[name]) != size:
                    break
            trailing = proc.stdout.read()
            # a traceback fits in the pipe buffer, so stderr is read last
            error_text = proc.stderr.read().decode(errors="replace")
            proc.wait()
        finally:
            watchdog.cancel()
        if proc.returncode != 0:
            tail = error_text.strip().splitlines()[-1:]
            raise RuntimeError(f"input generation failed: {' '.join(tail)}")
    if len(blobs) != len(BLOBS) or trailing:
        raise RuntimeError("input generation wrote malformed output")
    return blobs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    pin_blas_threads()
    blobs = make_inputs(load_cpes(), WORKLOADS[args.workload], args.seed)
    out = sys.stdout.buffer
    for name in BLOBS:
        out.write(struct.pack("<Q", len(blobs[name])))
        out.write(blobs[name])
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
