import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# As in the benchmark's launcher: one BLAS thread, set before numpy loads.
import run  # noqa: E402

run.pin_threads()
