import sys

import pytest

from mahlerlat import roots
from mahlerlat.cli import bundled_corpus
from mahlerlat.fields import classify_Psr


@pytest.fixture(scope="session")
def corpus():
    return bundled_corpus()


@pytest.fixture(scope="session")
def corpus_members(corpus):
    return [e for e in corpus if classify_Psr(e.poly).member]


@pytest.fixture
def refine_calls(monkeypatch):
    """The polynomials passed to refine_roots while the test runs.  Every
    mahlerlat module that imported the function gets the counting wrapper."""
    calls = []
    original = roots.refine_roots

    def counted(p, *args, **kwargs):
        calls.append(p)
        return original(p, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mahlerlat" and getattr(module, "refine_roots", None) is original:
            monkeypatch.setattr(module, "refine_roots", counted)
    return calls
