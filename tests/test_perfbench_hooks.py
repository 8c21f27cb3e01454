"""The benchmark's span recorder can hook every layer it names.

``perfbench/layers.py`` wraps basepar's functions at the module globals
their callers read at call time.  A global that an edit renames or removes
would otherwise only show in a traced benchmark run (``--trace 1``).
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_layer_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    from spans import Recorder

    recorder = Recorder()
    try:
        layers.install(recorder)  # raises AttributeError on a missing global
        patched = list(recorder._undo)
    finally:
        recorder.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
