import atexit
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.run import _stop_resource_tracker  # noqa: E402

# The in-process runs start shared-memory workers too; registered before
# any of them, this runs after the program's own segment sweep.
atexit.register(_stop_resource_tracker)
