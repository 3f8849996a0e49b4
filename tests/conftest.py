import importlib
import sys

import pytest

from mahlerlat.cli import bundled_corpus
from mahlerlat.fields import classify_Psr


@pytest.fixture(scope="session")
def corpus():
    return bundled_corpus()


@pytest.fixture(scope="session")
def corpus_members(corpus):
    return [e for e in corpus if classify_Psr(e.poly).member]


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls("module.name") or count_calls("module.Class.method"), for
    a mahlerlat module, returns the list of first arguments (the polynomial,
    or self for a method) passed to that function while the test runs.  The
    owner and every mahlerlat module that imported the function get the
    counting wrapper."""

    def install(qualname):
        module_name, *owners, name = qualname.split(".")
        owner = importlib.import_module(f"mahlerlat.{module_name}")
        for attr in owners:
            owner = getattr(owner, attr)
        original = getattr(owner, name)
        calls = []

        def counted(first, *args, **kwargs):
            calls.append(first)
            return original(first, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "mahlerlat" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def refine_calls(count_calls):
    """The polynomials passed to refine_roots while the test runs."""
    return count_calls("roots.refine_roots")
