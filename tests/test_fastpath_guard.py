"""The fast path must degrade cleanly when numpy is absent.

numpy ships only with the optional ``repro[fast]`` extra, so a bare
install imports :mod:`repro.fastpath` without it.  The package must
still import, report itself unavailable, decline every job (the engine
then runs the reference loop) and raise an error *naming the extra*
when a fast replay is demanded anyway.

The missing dependency is simulated by poisoning ``sys.modules`` and
re-importing the package; CI additionally runs the real thing (a leg
with numpy uninstalled, see .github/workflows/ci.yml).
"""

import importlib
import sys

import pytest

from repro.engine import SimJob


def _fastpath_module_names():
    return [
        name
        for name in sys.modules
        if name == "repro.fastpath" or name.startswith("repro.fastpath.")
    ]


def test_fastpath_degrades_cleanly_without_numpy(monkeypatch):
    import repro

    saved = {name: sys.modules[name] for name in _fastpath_module_names()}
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy -> ImportError
    for name in saved:
        del sys.modules[name]
    try:
        fastpath = importlib.import_module("repro.fastpath")
        assert not fastpath.available()

        job = SimJob(
            benchmark="gzip", n_branches=100, warmup=0, seed=1, backend="fast"
        )
        assert fastpath.supports(job) is False

        with pytest.raises(fastpath.FastPathUnavailable) as err:
            fastpath.require()
        message = str(err.value)
        assert "numpy" in message
        assert "repro[fast]" in message

        with pytest.raises(fastpath.FastPathUnavailable):
            fastpath.replay(job, trace=None)
    finally:
        for name in _fastpath_module_names():
            del sys.modules[name]
        sys.modules.update(saved)
        if "repro.fastpath" in saved:
            repro.fastpath = saved["repro.fastpath"]


def test_fastpath_package_has_no_eager_repro_imports():
    """The no-numpy CI leg loads the package standalone; keep it loadable.

    ``repro.fastpath`` may only import the rest of the repo lazily
    (inside functions), so reading its source must reveal no top-level
    ``repro.`` imports besides submodule siblings.
    """
    import repro.fastpath as fastpath

    source = open(fastpath.__file__, "r", encoding="utf-8").read()
    for line in source.splitlines():
        # Indented imports are inside functions and therefore lazy;
        # only module-level ones would break a numpy-less import.
        if line.startswith(("import repro", "from repro")):
            pytest.fail(
                f"repro.fastpath has an eager repro import: {line.strip()!r}"
            )
