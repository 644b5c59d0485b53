"""The benchmark tracer wraps package functions by module and name.

perfbench/tracer.py looks each WRAPPED entry up with getattr when it
installs its spans, so deleting or renaming one of those functions makes
every benchmark run fail. This pins the names from the package side.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [f"abeluniv.{home}.{attr}" for _, home, attr, _ in tracer.WRAPPED
               if not callable(getattr(importlib.import_module(f"abeluniv.{home}"),
                                       attr, None))]
    assert missing == []
