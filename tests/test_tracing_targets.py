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


def test_every_property_check_can_be_swapped_for_a_traced_wrapper():
    """``Tracer.install`` rebinds each registry entry's ``check`` with
    ``dataclasses.replace``; the wrapped check must give the same verdict."""
    import oraclekit
    from oraclekit.propcheck import GenConfig, gen_coo
    from oraclekit.properties import REGISTRY

    inputs = {
        "sequence": [3, 1, 4, 1, 5, 9, 2, 6],
        "coo": gen_coo(GenConfig(seed=1), 0),
        "fixed": None,
    }
    plain = {key: prop.check(inputs[prop.kind]) for key, prop in REGISTRY.items()}
    tracer = _tracing_module().Tracer()
    tracer.install(oraclekit)
    try:
        traced = {key: prop.check(inputs[prop.kind]) for key, prop in REGISTRY.items()}
    finally:
        tracer.uninstall(oraclekit)
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert names >= {f"properties.{key}" for key in REGISTRY}
