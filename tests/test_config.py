import copy
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varexp
from varexp import ExponentSpec, ModelSpec
from varexp.config import (ConfigError, RunConfig, _document, _parse, bundled_paper_text,
                           load_config, load_paper_config)
from conftest import replaced

PAPER = json.loads(bundled_paper_text())


def _key_paths(node, path=()):
    """Every key path into a decoded JSON document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _key_paths(v, path + (k,))


def _schema_keys(node) -> set:
    """Every object key that occurs anywhere in a decoded JSON document."""
    if isinstance(node, dict):
        return set(node).union(*map(_schema_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_schema_keys, node))
    return set()


# Any JSON value (Python's NaN and Infinity included), weighted towards what
# a real config holds: its own keys and strings, small and huge numbers.
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from([0, 1, 2, -1, 0.5, 1.0, 10**400, 1e-320])
            | st.sampled_from(["", "csv", "pdf", "out", "gbm", "a/b", "euler", "1.0",
                               "constant", "exp_decay", "inverse_square", "rational_decay"])
            | st.text(max_size=6))
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(sorted(_schema_keys(PAPER)))
                                    | st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


@pytest.mark.parametrize("path", list(_key_paths(PAPER)),
                         ids=lambda p: "/".join(map(str, p)) or "root")
@settings(derandomize=True, max_examples=15, deadline=None)
@given(value=JSON_VALUES)
def test_any_value_loads_or_is_a_config_error(tmp_path_factory, path, value):
    # a malformed document raises ConfigError and nothing else, whatever
    # the section, so the CLI reports every one as a config error (exit 2)
    cfg = tmp_path_factory.getbasetemp() / "fuzzed.json"
    cfg.write_text(json.dumps(replaced(PAPER, path, value)))
    try:
        load_config(cfg)
    except ConfigError:
        pass


@pytest.mark.parametrize("path", [p for p in _key_paths(PAPER) if p and isinstance(p[-1], str)],
                         ids=lambda p: "/".join(map(str, p)))
def test_renamed_key_is_a_config_error_naming_it(tmp_path, path):
    # every key a section knows, misspelled, is rejected by name: an
    # optional one would otherwise load with its default in its place. An
    # exponent without its kind is rejected as of no kind, its keys unread
    raw = copy.deepcopy(PAPER)
    node = raw
    for k in path[:-1]:
        node = node[k]
    node[path[-1] + "_"] = node.pop(path[-1])
    cfg = tmp_path / "renamed.json"
    cfg.write_text(json.dumps(raw))
    error = ("unknown exponent kind None" if path[-2:] == ("exponent", "kind")
             else f"unknown key {path[-1] + '_'!r}")
    with pytest.raises(ConfigError, match=re.escape(error)):
        load_config(cfg)


def test_model_by_label():
    cfg = load_paper_config()
    assert cfg.labels[1] == "p1" and cfg.model_by_label("p1") is cfg.models[1]
    with pytest.raises(ValueError):
        cfg.model_by_label("p9")


@pytest.mark.parametrize("spec", [
    ExponentSpec.constant(1.0), ExponentSpec.constant(0.8), ExponentSpec.exp_decay(0.005, 0.1),
    ExponentSpec.inverse_square(0.5), ExponentSpec.rational_decay(1e-3),
], ids=["gbm", "cev_0.8", "exp_decay", "inverse_square", "rational_decay"])
def test_document_of_any_spec_parses_back(spec):
    # a spec holds only its kind's parameters, so the document of a config
    # built in library code loads as that config
    cfg = RunConfig(labels=["m"], models=[ModelSpec(0.05, 0.2, spec)],
                    sim=load_paper_config().sim)
    assert _parse(json.loads(json.dumps(_document(cfg)))) == cfg


def test_only_the_exponent_module_names_its_keys():
    # each kind's parameters and the constants are named once: the readers
    # of other sections pass an exponent to ExponentSpec.from_dict
    src = pathlib.Path(varexp.__file__).parent
    found = [(f.name, name) for f in sorted(src.glob("*.py")) if f.name != "exponent.py"
             for name in ("_KIND_PARAMS", "_CONSTANTS") if name in f.read_text(encoding="utf-8")]
    assert not found
