"""The benchmark's traced run patches ddro functions by name; every
name it patches must exist, or a traced run fails at install time."""

import importlib.util
from pathlib import Path

from ddro import sddip

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_sites_exist_on_ddro_modules():
    spans = _load_spans()
    assert spans.SPAN_SITES
    for mod, attr, _ in spans.SPAN_SITES:
        module = importlib.import_module(f"ddro.{mod}")
        assert hasattr(module, attr), f"ddro.{mod}.{attr} is patched but missing"
    assert callable(sddip.StageOracle.solve_stage)
    assert callable(sddip.CutPool.add)
