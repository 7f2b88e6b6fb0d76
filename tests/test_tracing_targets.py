"""The benchmark tracer wraps oraclekit functions by module attribute.

``perfbench/tracing.py`` lists in ``TARGETS`` which names it replaces in
which modules; a module that stops binding one of them makes
``Tracer.install`` fail. The file is loaded by path, read-only, because
``perfbench`` is not on the test path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_in_its_modules():
    targets = _tracing_module().TARGETS
    assert targets
    for name, modules in targets:
        attr = name.split(".")[1]
        for mod_name in modules:
            module = importlib.import_module(f"oraclekit.{mod_name}")
            assert callable(getattr(module, attr, None)), (name, mod_name)
