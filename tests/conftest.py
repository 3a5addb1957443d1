"""Shared fixtures: bundled knowledge base, corpora, and a trained model,
plus the call time of each passing test, which the randomized-suite budget
test adds up instead of running those suites again."""

import time
from pathlib import Path

import pytest

import fqninfer as fq

FIXTURES = Path(__file__).parent / "fixtures"

_BUDGET_TEST = "test_randomized_suites_within_budget"
_CALL_SECONDS: dict = {}  # test function -> seconds its passing call took


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    t0 = time.perf_counter()
    result = yield  # raises when the test fails, which records nothing
    _CALL_SECONDS[item.obj] = time.perf_counter() - t0
    return result


def pytest_collection_modifyitems(items):
    """The budget test runs last, after every suite it counts."""
    items.sort(key=lambda item: item.name == _BUDGET_TEST)


@pytest.fixture
def call_seconds():
    """Test function -> seconds its call took, for the tests that passed so
    far in this session."""
    return _CALL_SECONDS


@pytest.fixture(scope="session")
def kb():
    return fq.load_kb(FIXTURES / "kb" / "global.kb")


@pytest.fixture(scope="session")
def train_items():
    return fq.load_corpus(FIXTURES / "train")


@pytest.fixture(scope="session")
def eval_items():
    return fq.load_corpus(FIXTURES / "corpus")


@pytest.fixture(scope="session")
def model(train_items):
    return fq.train(fq.training_pairs(train_items, kb=None), eta=2, alpha=1.0)


@pytest.fixture(scope="session")
def by_id(eval_items):
    return {item.snippet_id: item for item in eval_items}
