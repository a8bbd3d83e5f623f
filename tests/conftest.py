import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def graphs_built(monkeypatch):
    """Every KnowledgeGraph built while the test runs, in the order built."""
    from rmpi.kgstore import KnowledgeGraph

    built = []
    init = KnowledgeGraph.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(KnowledgeGraph, "__init__", recording)
    return built
