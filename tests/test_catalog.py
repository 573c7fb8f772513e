import json
from pathlib import Path

import pytest

from tempiric import catalog
from tempiric.catalog import (
    BUILTIN_NAMES,
    CatalogError,
    builtin,
    load,
    serialize,
    weyl_image,
)
from tempiric.cli import main


def test_builtin_names():
    assert BUILTIN_NAMES == ("SL2R", "SO31", "Sp11")
    with pytest.raises(CatalogError):
        builtin("SU21")


def test_builtin_structure(sl2r, so31, sp11):
    assert sl2r.k.atoms == ("Torus1",) and sl2r.m.atoms == ("Cyclic2",)
    assert sl2r.equal_rank and sl2r.ds is not None
    assert set(sl2r.ds.noncompact_roots) == {(2,), (-2,)}
    assert so31.k.atoms == ("SO3",) and so31.m.atoms == ("Torus1",)
    assert not so31.equal_rank and so31.ds is None
    assert so31.two_rho_c == (1,)
    assert sp11.k.atoms == ("SU2", "SU2") and sp11.m.atoms == ("SU2",)
    assert sp11.two_rho_c == (2, 2)
    assert len(sp11.ds.weyl_k) == 4


def test_two_rho_c_is_sum_of_compact_roots(sl2r, sp11):
    for datum in (sl2r, sp11):
        dim = datum.k.lattice_dim
        total = tuple(
            sum(alpha[i] for alpha in datum.ds.compact_pos_roots)
            for i in range(dim)
        )
        assert total == datum.two_rho_c


def test_weyl_k_determinants(sp11):
    dets = sorted(det for _, _, det in sp11.ds.signed_weyl_k)
    assert dets == [-1, -1, 1, 1]


def test_weyl_image(so31, sl2r):
    assert weyl_image(so31, (4,)) == (-4,)
    assert weyl_image(so31, weyl_image(so31, (4,))) == (4,)
    assert weyl_image(sl2r, (1,)) == (1,)


def test_round_trip(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        text = json.dumps(serialize(datum))
        assert load(text) == datum


def test_load_from_path(tmp_path, sp11):
    path = tmp_path / "sp11.json"
    path.write_text(json.dumps(serialize(sp11)))
    assert load(str(path)) == sp11
    with pytest.raises(CatalogError):
        load(str(tmp_path / "missing.json"))


def _doc(**overrides):
    doc = serialize(builtin("SL2R"))
    doc.update(overrides)
    return json.dumps(doc)


def test_load_rejects_bad_documents():
    with pytest.raises(CatalogError, match="weyl_on_mhat"):
        load(_doc(weyl_on_mhat="swap"))
    with pytest.raises(CatalogError, match="positive-definite"):
        load(_doc(gram=["0"]))
    with pytest.raises(CatalogError, match="positive-definite"):
        load(_doc(gram=["-1"]))
    with pytest.raises(CatalogError, match="equal_rank"):
        load(_doc(equal_rank=False))
    with pytest.raises(CatalogError, match="branching_rule"):
        load(_doc(branching_rule="torus-restriction"))
    with pytest.raises(CatalogError, match="parse error"):
        load("{not json")
    with pytest.raises(CatalogError, match="missing"):
        doc = json.loads(_doc())
        del doc["gram"]
        load(json.dumps(doc))


def test_load_rejects_bad_ds_data():
    base = json.loads(_doc())
    base["ds"]["noncompact_roots"] = [[2]]
    with pytest.raises(CatalogError, match="negation"):
        load(json.dumps(base))
    base = json.loads(_doc())
    base["ds"]["wk_elements"] = [[[1]], [[2]]]
    with pytest.raises(CatalogError, match="signed permutation"):
        load(json.dumps(base))
    base = json.loads(_doc())
    base["ds"]["wk_elements"] = [[[-1]]]
    with pytest.raises(CatalogError, match="identity"):
        load(json.dumps(base))


def test_gram_symmetry_checked(sp11):
    doc = serialize(sp11)
    doc["gram"] = ["1", "1/2", "0", "1"]
    with pytest.raises(CatalogError, match="symmetric"):
        load(json.dumps(doc))


def test_nonsquare_gram_rejected(sp11):
    doc = serialize(sp11)
    doc["gram"] = ["1", "0", "1"]
    with pytest.raises(CatalogError, match="gram"):
        load(json.dumps(doc))


def test_load_type_checks_fields():
    cases = [
        ({"gram": 5}, "gram: expected a list"),
        ({"gram": [0.5]}, "gram: float entry 0.5 refused"),
        ({"gram": [True]}, "gram: entries must be rationals"),
        ({"k_atoms": "Torus1"}, "k_atoms: expected a list"),
        ({"m_atoms": "Cyclic2"}, "m_atoms: expected a list"),
        ({"two_rho_c": [0.0]}, "two_rho_c: 0.0 is not an integer"),
        ({"branching_rule": ["parity"]}, "branching_rule: expected a string"),
        ({"name": 3}, "name: expected a string"),
    ]
    for override, message in cases:
        with pytest.raises(CatalogError, match=message):
            load(_doc(**override))
    base = json.loads(_doc())
    base["ds"]["wk_elements"] = 1
    with pytest.raises(CatalogError, match="ds.wk_elements: expected a list"):
        load(json.dumps(base))


def _put(doc, path, value):
    *steps, key = path
    for step in steps:
        doc = doc[step]
    doc[key] = value


# Each Sp11 document carries two defects, as {path: value}; the loader
# reports the one its check order (stated in the catalog module
# docstring) reaches first.
CHECK_ORDER_CASES = [
    (
        {("ds", "compact_roots", 0, 0): True, ("ds", "wk_elements", 1): 5},
        "ds.compact_roots: True is not an integer",
    ),
    (
        {("ds", "noncompact_roots"): {"roots": []}, ("branching_rule",): 7},
        "ds.noncompact_roots: expected a list, got dict",
    ),
    (
        {("ds", "wk_elements", 3, 1, 0): "x", ("ds", "wk_elements", 0): [[1, 0]]},
        "ds.wk_elements: 'x' is not an integer",
    ),
    (
        {("ds", "compact_roots", 0): [2, 0, 0], ("weyl_on_mhat",): "flip"},
        "weyl_on_mhat: unknown rule 'flip'; expected one of ('identity', 'negate-torus')",
    ),
    (
        {("k_atoms",): ["U1"], ("gram",): "1"},
        "k_atoms: unknown atom kind 'U1'",
    ),
]


@pytest.mark.parametrize("defects, message", CHECK_ORDER_CASES)
def test_loader_reports_the_first_defect_in_check_order(defects, message):
    doc = serialize(builtin("Sp11"))
    for path, value in defects.items():
        _put(doc, path, value)
    with pytest.raises(CatalogError) as exc:
        load(json.dumps(doc))
    assert str(exc.value) == message


def test_load_accepts_integer_and_fraction_gram_entries(sl2r, sp11):
    assert load(_doc(gram=[1])) == sl2r
    doc = serialize(sp11)
    doc["gram"] = ["1/2", 0, 0, "1/2"]
    half = load(json.dumps(doc))
    assert half.gram_scale == 2 and half.int_gram == ((1, 0), (0, 1))


def test_load_unreadable_path(tmp_path):
    with pytest.raises(CatalogError, match="cannot be read"):
        load(str(tmp_path))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(CatalogError, match="not UTF-8"):
        load(binary)


def _catalog_group_file(capsys, tmp_path, text):
    path = tmp_path / "group.json"
    path.write_text(text)
    code = main(["catalog", "--group-file", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_refuses_an_integer_past_the_digit_limit(capsys, tmp_path):
    # Python refuses to parse an integer literal of more than 4,300 digits.
    code, out, err = _catalog_group_file(capsys, tmp_path, '{"name": ' + "1" * 5000 + "}")
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: ") and "Traceback" not in err


def test_cli_refuses_arrays_nested_past_the_recursion_limit(capsys, tmp_path):
    depth = 100_000
    code, out, err = _catalog_group_file(capsys, tmp_path, "[" * depth + "]" * depth)
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: ") and "Traceback" not in err


def test_cli_refuses_to_write_a_gram_entry_past_the_digit_limit(capsys, tmp_path):
    # "1e5000" loads as a 5,001-digit integer, which Python will not write
    # as text; the group still verifies, but its JSON cannot be written.
    doc = serialize(builtin("SL2R"))
    doc["gram"] = ["1e5000"]
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code = main(["catalog", "--group-file", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: gram: an entry has more than ")
    assert main(["verify", "--group-file", str(path), "--bound", "10"]) == 0
    assert capsys.readouterr().out.endswith("# all checks passed\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_is_its_stored_document(name):
    # builtin() reads the stored document through the group-file loader.
    document = catalog._BUILTINS[name]
    assert document == serialize(builtin(name))
    assert load(json.dumps(document)) == builtin(name)


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_catalog_output_is_pinned(capsys, name, fmt):
    code = main(["catalog", "--group", name, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"catalog-{name.lower()}.{fmt}").read_text()
