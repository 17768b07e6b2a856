"""The CLI keeps its exit-code contract when a config value has the wrong type.

Each example takes one shipped config, replaces one leaf with a JSON value of
the wrong type, and runs the command the config is written for.  ``main``
must return 0, 1 or 2, must not raise, and must print nothing on stdout and,
on stderr, what its exit code promises: no verdict line for 0, one or more
``verification failure:`` lines for 1, and exactly one ``error:`` line for 2.
"""

import copy
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import CONFIG_DIR, config_command  # noqa: E402
from qgwalk.cli import main  # noqa: E402

WRONG_TYPED = [None, [], [4], "x", {}]


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _cases():
    cases = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        command = config_command(cfg)
        cases.extend((path.name, command, cfg, leaf) for leaf in _leaf_paths(cfg))
    return cases


CASES = _cases()


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), value=st.sampled_from(WRONG_TYPED))
def test_wrong_typed_leaf_keeps_the_exit_code_contract(tmp_path, capsys, case, value):
    _name, command, cfg, leaf = case
    mutated = copy.deepcopy(cfg)
    node = mutated
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mutated))
    capsys.readouterr()  # drop what earlier examples printed
    rc = main([command, "--config", str(path), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    failures = sum(line.startswith("verification failure: ") for line in lines)
    errors = sum(line.startswith("error: ") for line in lines)
    assert out == ""
    assert (rc, bool(failures), errors) in ((0, False, 0), (1, True, 0), (2, False, 1)), (rc, err)
