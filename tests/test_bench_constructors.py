"""The constructor calls of ``bench/system.py`` bind to the program's
signatures.

The benchmark builds its fleets and traffic through the public
constructors.  Tier-1 never imports ``bench/``, so this reads the calls
from its source instead: a keyword the benchmark passes that a
constructor no longer takes fails here, not first in a benchmark run.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.cluster import ClusterFramework
from repro.core.framework import CoCaFramework
from repro.data.stream import StreamGenerator

SYSTEM = Path(__file__).resolve().parents[1] / "bench" / "system.py"
CONSTRUCTORS = {cls.__name__: cls for cls in (CoCaFramework, ClusterFramework, StreamGenerator)}


def _calls() -> list[ast.Call]:
    tree = ast.parse(SYSTEM.read_text(), filename=str(SYSTEM))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in CONSTRUCTORS
    ]


def test_every_constructor_is_called():
    assert {call.func.id for call in _calls()} == set(CONSTRUCTORS)


@pytest.mark.parametrize("call", _calls(), ids=lambda call: f"{call.func.id}@{call.lineno}")
def test_call_binds_to_the_signature(call):
    assert all(keyword.arg is not None for keyword in call.keywords), "no **kwargs"
    signature = inspect.signature(CONSTRUCTORS[call.func.id])
    names = [keyword.arg for keyword in call.keywords]
    signature.bind(*call.args, **dict.fromkeys(names))


@pytest.mark.parametrize("cls", [CoCaFramework, ClusterFramework], ids=lambda cls: cls.__name__)
def test_from_scenario_keywords_are_constructor_keywords(cls):
    """Each ``from_scenario`` keyword is a constructor keyword with the
    same default, so the two entry points cannot drift apart."""
    constructor = inspect.signature(cls).parameters
    for name, parameter in inspect.signature(cls.from_scenario).parameters.items():
        if name == "scenario":
            continue
        assert name in constructor, name
        assert parameter.default == constructor[name].default, name
