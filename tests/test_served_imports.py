"""The serving process imports only what it serves.

A fresh interpreter imports what the server and the e2e benchmark's
serve child import; none of the library-only techniques (exploration,
XML search, evaluation, the spatial / distributed extensions, the
index and schema-search variants no served method runs) may come along
through a package ``__init__`` re-export or an eager engine import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SERVED_MODULES = (
    "repro.serving.server",
    "repro.durability",
    "repro.core.factory",
    "repro.sharding",
    "repro.datasets.bibliographic",
)

LIBRARY_ONLY = (
    "repro.analysis",
    "repro.forms",
    "repro.xml_search",
    "repro.eval",
    "repro.spatial",
    "repro.distributed",
    "repro.core.xml_engine",
    "repro.ambiguity.autocomplete",
    "repro.ambiguity.iqp",
    "repro.ambiguity.rewriting",
    "repro.ambiguity.synonyms",
    "repro.index.trie",
    "repro.index.hub",
    "repro.index.reachability",
    "repro.index.forward",
    "repro.schema_search.spark",
    "repro.schema_search.spark2",
    "repro.schema_search.mesh",
    "repro.schema_search.parallel",
    "repro.schema_search.evaluate",
    "repro.datasets.movies",
    "repro.datasets.products",
    "repro.datasets.events",
    "repro.datasets.xml_corpora",
    "repro.datasets.logs",
    "repro.graph.weights",
)

_PROBE = """
import json, sys
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""

_CLI_PROBE = """
import json, sys
from repro import cli
cli._register_datasets()
cli.build_parser()
cli.DATASETS["biblio"]()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""


def _loaded(probe, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _library_only(loaded):
    return [
        name
        for name in loaded
        if any(name == lib or name.startswith(lib + ".") for lib in LIBRARY_ONLY)
    ]


def test_served_imports_load_no_library_only_module():
    loaded = _loaded(_PROBE, *SERVED_MODULES)
    assert set(SERVED_MODULES) <= set(loaded)
    assert _library_only(loaded) == []


def test_xml_engine_resolves_on_first_access():
    loaded = _loaded(_PROBE, "repro")
    assert "repro.core.xml_engine" not in loaded
    from repro import XmlSearchEngine
    from repro.core import XmlSearchEngine as core_xml_engine
    from repro.core.xml_engine import XmlSearchEngine as defined

    assert XmlSearchEngine is core_xml_engine is defined


def test_cli_loads_no_library_only_module_until_a_command_needs_one():
    """``python -m repro serve`` parses its arguments and builds the
    ``biblio`` database: no XML engine, no other dataset generator."""
    loaded = _loaded(_CLI_PROBE)
    assert "repro.datasets.bibliographic" in loaded
    assert _library_only(loaded) == []
