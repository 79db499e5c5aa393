"""One set-up of a workload in a fresh interpreter: import ou_spectra.cli,
then build the workload's inputs. Prints {"import_s": ...} when the first
job could start.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ou_spectra.cli  # noqa: E402,F401

IMPORTED = time.perf_counter()

import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).calls(".")
print(json.dumps({"import_s": IMPORTED - START}), flush=True)
