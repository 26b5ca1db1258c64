"""Every dgal function that the benchmark's span tracer wraps exists.

``perfbench/spans.py`` names its targets as (module, attribute path);
a rename or a deletion in dgal would otherwise only show when the
benchmark runs with ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for modname, path, _metric in targets:
        obj = importlib.import_module(modname)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("%s.%s" % (modname, path))
    assert missing == []
