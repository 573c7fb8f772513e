"""Loader fuzzing: mutate the built-in documents field by field and run the CLI.

Every mutated document is written to a group file and run through
``catalog --format json``, ``tempiric-table --bound 12`` and
``verify --bound 12`` in-process.  No exception may escape ``cli.main``;
exit 2 must come with an ``error:`` line on stderr, and exit 1 with an
``inconsistency:`` line, or, for ``verify``, with its failure report.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tempiric.catalog import BUILTIN_NAMES, builtin, serialize
from tempiric.cli import main

COMMANDS = (
    ("catalog", "--format", "json"),
    ("tempiric-table", "--bound", "12"),
    ("verify", "--bound", "12"),
)

# A strategy per JSON type; a swap draws from the types other than the
# value's own (bool apart from int: JSON true is not a number).
_JSON_BY_KIND = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.floats(-2, 2, allow_nan=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-2, 2), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
}

_GRAM_TEXT = st.one_of(
    st.text(max_size=8),
    st.builds("{}/{}".format, st.integers(-4, 4), st.integers(-4, 4)),
    st.sampled_from(["nan", "inf", "-0", " 1 ", "1_0", "0x1", "1e2", "1e-1", "1.5", "2/4"]),
)

# The eight signed permutations of the plane, a closed set.  For a Gram
# [[a, b], [b, c]] the swaps break it when a != c, and diag(1, -1) when b != 0.
_SIGNED_PERMUTATIONS_2 = [
    [[s, 0], [0, t]] for s in (1, -1) for t in (1, -1)
] + [[[0, s], [t, 0]] for s in (1, -1) for t in (1, -1)]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _swap_type(data, doc):
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    old = type(_get(doc, path))
    others = [strategy for kind, strategy in _JSON_BY_KIND.items() if kind is not old]
    _set(doc, path, data.draw(st.one_of(others)))
    return doc


def _reshape_list(data, doc):
    lists = [p for p in _paths(doc) if isinstance(_get(doc, p), list)]
    target = _get(doc, data.draw(st.sampled_from(lists)))
    op = data.draw(st.sampled_from(["drop", "duplicate", "append", "clear"]))
    if op == "append" or not target:
        target.append(copy.deepcopy(target[-1]) if target else 0)
    elif op == "clear":
        target.clear()
    else:
        i = data.draw(st.integers(0, len(target) - 1))
        if op == "drop":
            del target[i]
        else:
            target.insert(i, copy.deepcopy(target[i]))
    return doc


def _gram_text(data, doc):
    gram = doc["gram"]
    gram[data.draw(st.integers(0, len(gram) - 1))] = data.draw(_GRAM_TEXT)
    return doc


def _wk_membership(data, doc):
    # Drop a matrix or add one, so the set is (usually) no longer closed.
    wk = doc["ds"]["wk_elements"]
    if wk and data.draw(st.booleans()):
        del wk[data.draw(st.integers(0, len(wk) - 1))]
    else:
        dim = len(doc["two_rho_c"])
        entry = st.integers(-1, 1)
        matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        wk.insert(data.draw(st.integers(0, len(wk))), data.draw(matrix))
    return doc


def _gram_breaking_wk(data, doc):
    # Sp11 with a drawn Gram and a closed W_K that does not preserve it.
    a, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    b = data.draw(st.integers(-1, 1))
    if (a, b) == (c, 0) or a * c <= b * b:
        a = c + 1
    doc["gram"] = [str(a), str(b), str(b), str(c)]
    doc["ds"]["wk_elements"] = copy.deepcopy(data.draw(st.permutations(_SIGNED_PERMUTATIONS_2)))
    return doc


def _mutations(doc):
    # The document stays an object with lists in it: no mutation replaces
    # the whole of it, and three cannot remove all its list fields.
    mutations = [_swap_type, _reshape_list]
    if isinstance(doc.get("gram"), list) and doc["gram"]:
        mutations.append(_gram_text)
    ds = doc.get("ds")
    if (
        isinstance(ds, dict)
        and isinstance(ds.get("wk_elements"), list)
        and isinstance(doc.get("two_rho_c"), list)
    ):
        mutations.append(_wk_membership)
        if doc.get("k_atoms") == ["SU2", "SU2"]:
            mutations.append(_gram_breaking_wk)
    return mutations


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(BUILTIN_NAMES), count=st.integers(1, 3))
def test_mutated_documents_never_escape_the_cli(tmp_path_factory, data, name, count):
    doc = serialize(builtin(name))
    for _ in range(count):
        doc = data.draw(st.sampled_from(_mutations(doc)))(data, doc)
    path = tmp_path_factory.mktemp("fuzz") / "group.json"
    path.write_text(json.dumps(doc))
    for command, *options in COMMANDS:
        code, out, err = _run([command, "--group-file", str(path), *options])
        lines = err.splitlines()
        assert code in (0, 1, 2), (command, code)
        if code == 2:
            assert any(line.startswith("error: ") for line in lines), (command, err)
        elif code == 1:
            failed = command == "verify" and out.endswith("# FAILURES detected\n")
            assert failed or any(line.startswith("inconsistency: ") for line in lines), (
                command, out, err,
            )
