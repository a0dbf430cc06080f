"""The package namespace, each check in a fresh interpreter: ``import
twistwidth`` leaves ``enumeration`` unloaded, and its names still resolve,
star-import and list as before; ``is_matroid`` and ``d_min`` live in
``core``, and ``twistwidth.matroids`` is gone, as are the labelled
aux-graph adapters, the isomorphism search and ``min_width_twist``'s check
mode."""

import os
import subprocess
import sys
import textwrap

import pytest

SNIPPETS = {
    "deferred-modules-stay-unloaded": """
        import twistwidth
        dir(twistwidth)
        assert "twistwidth.enumeration" not in sys.modules
    """,
    "names-resolve-to-their-defining-objects": """
        import twistwidth
        for name in twistwidth.__all__:
            obj = getattr(twistwidth, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    """,
    "star-import-binds-all": """
        import twistwidth
        namespace = {}
        exec("from twistwidth import *", namespace)
        assert {name: namespace.get(name) for name in twistwidth.__all__} == {
            name: getattr(twistwidth, name) for name in twistwidth.__all__}
    """,
    "dir-lists-all": """
        import twistwidth
        assert set(twistwidth.__all__) <= set(dir(twistwidth))
        assert "enumeration" in dir(twistwidth)
    """,
    "submodules-resolve-as-attributes": """
        import twistwidth
        assert twistwidth.enumeration is sys.modules["twistwidth.enumeration"]
        assert twistwidth.count_all(2) == 15
    """,
    "matroid-names-live-in-core": """
        import twistwidth
        try:
            import twistwidth.matroids
        except ModuleNotFoundError:
            pass
        else:
            raise AssertionError("twistwidth.matroids imported")
        assert twistwidth.d_min is twistwidth.core.d_min
        assert twistwidth.is_matroid is twistwidth.core.is_matroid
    """,
    "labelled-adapters-and-isomorphism-search-are-gone": """
        import importlib
        import twistwidth
        import twistwidth.minors
        certify = importlib.import_module("twistwidth.certify")
        gone = {
            twistwidth: ("AuxGraph", "HUB", "are_isomorphic", "build_aux_graph"),
            twistwidth.minors: ("are_isomorphic", "_signature", "MAX_ISO_WORK"),
            certify: ("AuxGraph", "HUB", "build_aux_graph", "two_coloring",
                      "shortest_odd_cycle"),
        }
        for module, names in gone.items():
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in twistwidth.__all__, name
    """,
    "min-width-twist-check-mode-is-gone": """
        import inspect
        import twistwidth.structure as structure
        assert "check" not in inspect.signature(structure.min_width_twist).parameters
        for name in ("MAX_CHECK_WORK", "_twist_widths", "_formula"):
            assert not hasattr(structure, name), name
    """,
    "unknown-name-raises-attribute-error": """
        import twistwidth
        try:
            twistwidth.no_such_name
        except AttributeError as err:
            assert str(err) == "module 'twistwidth' has no attribute 'no_such_name'"
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(twistwidth, "_twist_width")
    """,
}


@pytest.mark.parametrize("name", SNIPPETS)
def test_package_namespace_in_a_fresh_interpreter(name):
    code = "import sys\n" + textwrap.dedent(SNIPPETS[name])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
