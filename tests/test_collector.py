"""The loaders pause the cyclic garbage collector while they build, and
leave it as they found it, whether they return or raise. A loader that
returns with the collector on leaves what it built in the oldest
generation, unless the caller has frozen objects, which stay frozen."""

import gc
from pathlib import Path

import pytest

import fqninfer.kb
import fqninfer.scoring
import fqninfer.stat
from fqninfer import (
    KbError,
    ModelFormatError,
    TruthFormatError,
    load_corpus,
    load_kb,
    load_model,
    save_model,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _kb_input(tmp_path, model, bad):
    if not bad:
        return FIXTURES / "kb" / "global.kb"
    path = tmp_path / "bad.kb"
    path.write_text("type a.X enum lib=l1\n", encoding="utf-8")
    return path


def _model_input(tmp_path, model, bad):
    path = tmp_path / "m.tsv"
    if bad:
        path.write_text("nonsense\n", encoding="utf-8")
    else:
        save_model(model, path)
    return path


def _corpus_input(tmp_path, model, bad):
    if not bad:
        return FIXTURES / "corpus"
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "a.java").write_bytes(b"class A {}\n\xff\n")
    (tmp_path / "lib" / "a.truth").write_text("", encoding="utf-8")
    return tmp_path


LOADERS = {
    "load_kb": (load_kb, fqninfer.kb, _kb_input, KbError),
    "load_model": (load_model, fqninfer.stat, _model_input, ModelFormatError),
    "load_corpus": (load_corpus, fqninfer.scoring, _corpus_input, TruthFormatError),
}


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("outcome", ["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_pauses_the_collector_and_restores_its_state(
    tmp_path, monkeypatch, model, restore_collector, loader, enabled, outcome
):
    load, module, make_input, error = LOADERS[loader]
    path = make_input(tmp_path, model, outcome == "raises")
    read_utf8 = module.read_utf8
    seen = []

    def recording_read_utf8(*args, **kwargs):
        seen.append(gc.isenabled())
        return read_utf8(*args, **kwargs)

    # each loader reads its files through its module's read_utf8
    monkeypatch.setattr(module, "read_utf8", recording_read_utf8)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if outcome == "raises":
        with pytest.raises(error):
            load(path)
    else:
        load(path)
    assert gc.isenabled() is enabled
    assert seen and not any(seen)


def _reachable(result):
    """The tracked containers reachable from result, result among them."""
    found = {id(result): result}
    todo = [result]
    while todo:
        for o in gc.get_referents(todo.pop()):
            if gc.is_tracked(o) and id(o) not in found and not isinstance(o, type):
                found[id(o)] = o
                todo.append(o)
    return found


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_leaves_what_it_built_in_the_oldest_generation(
    tmp_path, model, restore_collector, loader
):
    load, _, make_input, _ = LOADERS[loader]
    path = make_input(tmp_path, model, False)
    # a loader leaves the generations alone while any object is frozen
    gc.unfreeze()
    gc.enable()
    built = _reachable(load(path))
    young = {id(o) for o in gc.get_objects(0) + gc.get_objects(1)}
    assert len(built) > 1 and not young & built.keys()


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_keeps_a_callers_frozen_objects_frozen(
    tmp_path, model, restore_collector, loader
):
    load, _, make_input, _ = LOADERS[loader]
    path = make_input(tmp_path, model, False)
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        load(path)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
