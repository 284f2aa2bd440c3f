"""Set-up of one workload in a fresh process: import lossyqpt, then make
the workload and run its warm-up operation.  Prints the time those take,
by time.perf_counter, in seconds; interpreter start-up and the import of
the benchmark's own modules are not in it.

usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import tempfile
import time

import env

env.pin_blas_threads()

t0 = time.perf_counter()
env.use_checkout_package()  # imports lossyqpt (and numpy)
import lossyqpt.cli  # noqa: E402,F401

imported = time.perf_counter() - t0

import workloads  # noqa: E402  (needs the package path set above)

with tempfile.TemporaryDirectory(dir=env.out_dir()) as workdir:
    t0 = time.perf_counter()
    workloads.make(sys.argv[1], workdir).warmup()
    warmed = time.perf_counter() - t0

print(repr(imported + warmed))
