import itertools
import json

import pytest

from tempiric.branching import (
    mult_space_dim,
    restrict_decompose,
    support_sigmas,
    witness_ktype,
)
from tempiric.catalog import builtin, load, serialize
from tempiric.tempered import make_principal_class, minimal_ktypes
from tempiric.weights import FormalSum, enumerate_ktypes, labels_in_box, weyl_dim

import oracles


def test_restrict_examples(sl2r, so31, sp11):
    assert restrict_decompose(sl2r, (3,)) == {(1,): 1}
    assert restrict_decompose(sl2r, (-4,)) == {(0,): 1}
    assert restrict_decompose(sp11, (1, 1)) == {(0,): 1, (2,): 1}
    assert restrict_decompose(so31, (2,)) == {
        (n,): 1 for n in range(-2, 3)
    }


def test_restriction_preserves_dimension(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for tau in enumerate_ktypes(datum, 400):
            if weyl_dim(datum.k, tau) > 50:
                continue
            decomposition = restrict_decompose(datum, tau)
            total = sum(
                mult * weyl_dim(datum.m, sigma)
                for sigma, mult in decomposition.items()
            )
            assert total == weyl_dim(datum.k, tau)


def test_restriction_matches_oracles(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        for tau in enumerate_ktypes(datum, 150):
            expected = oracles.restriction_oracle(datum, tau)
            got = dict(restrict_decompose(datum, tau).items())
            assert got == expected, tau


def test_clebsch_rule_against_weight_oracle(sp11):
    for a, b in itertools.product(range(9), repeat=2):
        expected = oracles.restrict_clebsch_by_weights(a, b)
        got = dict(restrict_decompose(sp11, (a, b)).items())
        assert got == expected, (a, b)


def test_mult_space_dim_examples(sl2r, so31, sp11):
    assert mult_space_dim(sl2r, (1,), FormalSum({(1,): 1})) == 1
    assert mult_space_dim(sp11, (1,), FormalSum({(1, 0): 1})) == 1
    assert mult_space_dim(so31, (2,), FormalSum({(1,): 1})) == 0
    # circle duality is observable: sigma must match the dual weight
    assert mult_space_dim(so31, (2,), FormalSum({(3,): 1})) == 1
    assert mult_space_dim(so31, (-2,), FormalSum({(3,): 1})) == 1


def test_frobenius_consistency(sl2r, so31, sp11):
    from tempiric.weights import dual_label

    for datum in (sl2r, so31, sp11):
        window = enumerate_ktypes(datum, 100)
        sigmas = support_sigmas(
            datum, FormalSum({tau: 1 for tau in window})
        )
        for tau in window:
            restriction = restrict_decompose(datum, tau)
            for sigma in sigmas:
                direct = mult_space_dim(datum, sigma, FormalSum({tau: 1}))
                via_dual = restriction[dual_label(datum.m, sigma)]
                assert direct == via_dual


def test_support_examples(sl2r, so31, sp11):
    assert support_sigmas(sl2r, FormalSum({(0,): 1})) == ((0,),)
    assert support_sigmas(sp11, FormalSum({(2, 0): 1})) == ((2,),)
    assert support_sigmas(so31, FormalSum({(1,): 1, (0,): 2})) == (
        (-1,),
        (0,),
        (1,),
    )


def test_support_is_union_over_constituents(sl2r, so31, sp11):
    for datum in (sl2r, so31, sp11):
        window = enumerate_ktypes(datum, 60)
        v = FormalSum({tau: 1 + i % 3 for i, tau in enumerate(window)})
        combined = set(support_sigmas(datum, v))
        union = set()
        for tau in window:
            union |= set(support_sigmas(datum, FormalSum({tau: 1})))
        assert combined == union


def test_missing_rule_rejected(sl2r):
    import dataclasses

    broken = dataclasses.replace(sl2r, branching_rule="mystery")
    with pytest.raises(ValueError):
        restrict_decompose(broken, (1,))


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
