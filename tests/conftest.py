import os
import sys
from functools import cached_property

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def graphs_built(monkeypatch):
    """Every KnowledgeGraph whose index, member set, arrays or entity list
    was built while the test runs, once each, in the order first built."""
    from rmpi.kgstore import KnowledgeGraph

    built = []
    for name, prop in list(vars(KnowledgeGraph).items()):
        if isinstance(prop, cached_property):
            def recording(self, build=prop.func):
                if not any(g is self for g in built):
                    built.append(self)
                return build(self)

            recorder = cached_property(recording)
            recorder.__set_name__(KnowledgeGraph, name)
            monkeypatch.setattr(KnowledgeGraph, name, recorder)
    return built
