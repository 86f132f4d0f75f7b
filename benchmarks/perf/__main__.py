"""Entry point: ``python -m benchmarks.perf`` or ``python benchmarks/perf``.

Puts the repository root and ``src`` on ``sys.path`` so the benchmark
runs from a plain checkout without ``PYTHONPATH`` or an install.
"""

import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
