"""The model core sits below the resilience layer: it never imports it.

``repro.core`` is what the measurement, resilience, pipeline and serving
layers are built on; an import from ``repro.resilience`` back into it
(even a deferred one inside a function) would make the core depend on
the layer above and reopen the import cycle through the measurement
campaigns.
"""

import pathlib

import repro
from tests.unit.test_simulate_engine import _imported_modules


def test_core_never_imports_resilience():
    src = pathlib.Path(repro.__file__).parent
    importers = [
        path.relative_to(src).as_posix()
        for path in sorted((src / "core").rglob("*.py"))
        if any(
            name == "repro.resilience" or name.startswith("repro.resilience.")
            for name in _imported_modules(path, src)
        )
    ]
    assert importers == []
