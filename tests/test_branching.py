import itertools
import json

import pytest

from tempiric.branching import restricted_range, restricted_support, witness_ktype
from tempiric.catalog import GroupDatum, builtin, load, serialize
from tempiric.tempered import make_principal_class, minimal_ktypes, tempiric_window
from tempiric.weights import FormalSum, enumerate_ktypes, labels_in_box, vogan_norm, weyl_dim

import oracles


def _decomposition(datum, tau):
    # tau's restriction to M as {M-label: multiplicity}, from its range.
    return {(c,): 1 for c in restricted_range(datum, tau)}


def test_restrict_examples(sl2r, so31, sp11):
    assert restricted_range(sl2r, (3,)) == range(1, 2)
    assert restricted_range(sl2r, (-4,)) == range(0, 1)
    assert restricted_range(sp11, (1, 1)) == range(0, 3, 2)
    assert restricted_range(sp11, (3, 1)) == range(2, 5, 2)
    assert restricted_range(so31, (2,)) == range(-2, 3)
    assert _decomposition(sp11, (1, 1)) == {(0,): 1, (2,): 1}


def test_restriction_preserves_dimension(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for tau in enumerate_ktypes(datum, 400):
            if weyl_dim(datum.k, tau) > 50:
                continue
            total = sum(weyl_dim(datum.m, (c,)) for c in restricted_range(datum, tau))
            assert total == weyl_dim(datum.k, tau)


def test_restriction_matches_oracles(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for tau in enumerate_ktypes(datum, 150):
            expected = oracles.restriction_oracle(datum, tau)
            assert _decomposition(datum, tau) == expected, tau


def test_clebsch_rule_against_weight_oracle(sp11):
    for a, b in itertools.product(range(9), repeat=2):
        expected = oracles.restrict_clebsch_by_weights(a, b)
        assert _decomposition(sp11, (a, b)) == expected, (a, b)


def _mult_space_dim(datum, sigma, v):
    # dim (L_sigma (x) V)^M: the multiplicity of sigma's dual in the
    # restriction of V, read off one window as the checks read it.
    window = tempiric_window(datum, max(vogan_norm(datum, tau) for tau in v))
    return window.restriction(v).get(window.duals[sigma], 0)


def _support(datum, v):
    restricted = oracles.restriction_sum_oracle(datum, v)
    return restricted_support(tempiric_window(datum, 0).duals, restricted)


def test_mult_space_dim_examples(sl2r, so31, sp11):
    assert _mult_space_dim(sl2r, (1,), FormalSum({(1,): 1})) == 1
    assert _mult_space_dim(sp11, (1,), FormalSum({(1, 0): 1})) == 1
    assert _mult_space_dim(so31, (2,), FormalSum({(1,): 1})) == 0
    # circle duality is observable: sigma must match the dual weight
    assert _mult_space_dim(so31, (2,), FormalSum({(3,): 1})) == 1
    assert _mult_space_dim(so31, (-2,), FormalSum({(3,): 1})) == 1


def test_frobenius_consistency(sl2r, so31, sp11):
    # The multiplicity space of sigma against tau, read off the window's
    # restriction and off tau's restricted_range at sigma's dual, is tau's
    # multiplicity in the principal series of sigma, as the oracle counts it.
    for datum in (sl2r, so31, sp11):
        window = tempiric_window(datum, 100)
        sigmas = _support(datum, FormalSum({tau: 1 for tau in window.rows}))
        for tau in window.rows:
            restricted = window.restriction(FormalSum({tau: 1}))
            labels = restricted_range(datum, tau)
            for sigma in sigmas:
                dual = window.duals[sigma]
                expected = oracles.mult_in_induced_oracle(datum, sigma, tau)
                assert restricted.get(dual, 0) == labels.count(*dual) == expected


def test_support_examples(sl2r, so31, sp11):
    assert _support(sl2r, FormalSum({(0,): 1})) == ((0,),)
    assert _support(sp11, FormalSum({(2, 0): 1})) == ((2,),)
    assert _support(so31, FormalSum({(1,): 1, (0,): 2})) == (
        (-1,),
        (0,),
        (1,),
    )


def test_support_is_union_over_constituents(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        window = enumerate_ktypes(datum, 60)
        v = FormalSum({tau: 1 + i % 3 for i, tau in enumerate(window)})
        combined = set(_support(datum, v))
        union = set()
        for tau in window:
            union |= set(_support(datum, FormalSum({tau: 1})))
        assert combined == union


def test_missing_rule_rejected(sl2r):
    broken = GroupDatum(
        sl2r.name, sl2r.k, sl2r.m, "mystery", sl2r.gram, sl2r.two_rho_c,
        sl2r.weyl_on_mhat, sl2r.equal_rank, sl2r.ds,
    )
    with pytest.raises(ValueError):
        restricted_range(broken, (1,))


def _identity_weyl_so31():
    # The document behind tests/golden/verify-so31-identity-weyl-41.*: every
    # class is a singleton, so negative M-types are representatives.
    doc = serialize(builtin("SO31"))
    doc["weyl_on_mhat"] = "identity"
    return load(json.dumps(doc))


WITNESS_DATA = {
    "SL2R": builtin("SL2R"),
    "SO31": builtin("SO31"),
    "Sp11": builtin("Sp11"),
    "SO31-identity-weyl": _identity_weyl_so31(),
}


@pytest.mark.parametrize("name", sorted(WITNESS_DATA))
def test_witness_restriction_contains_the_dual(name):
    datum = WITNESS_DATA[name]
    for sigma in labels_in_box(datum.m, 40):
        witness = witness_ktype(datum, sigma)
        assert oracles.mult_in_induced_oracle(datum, sigma, witness) > 0, (sigma, witness)


def test_negative_representative_reaches_its_minimum():
    datum = WITNESS_DATA["SO31-identity-weyl"]
    cls = make_principal_class(datum, (-5,))
    assert cls.representative == (-5,)
    assert witness_ktype(datum, (-5,)) == (5,)
    assert minimal_ktypes(datum, cls) == ((5,),)
