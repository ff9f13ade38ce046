"""Every span target of the benchmark resolves to a callable in qstrange.

perfbench wraps public names by path (FamilySpec.coefficient_polys,
CycloNum.__add__, ...).  When a target is missing it drops that layer
metric and lists it only under "absent", so a rename here would lose a
layer without failing anything.  The targets are resolved the way
perfbench's install() does, without wrapping them.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_exists():
    targets = load_targets()
    assert targets
    missing = []
    for name, module_name, path in targets:
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{name}: {module_name}.{path}")
            continue
        if not callable(owner):
            missing.append(f"{name}: {module_name}.{path} is not callable")
    assert not missing, missing
