import importlib.util
import sys
from pathlib import Path

# Test the qdelannoy already importable (from PYTHONPATH or an install), so a
# copy of src under test is not shadowed; fall back to this checkout's src.
if importlib.util.find_spec("qdelannoy") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
