import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicluster.coeffsys import (
    CoefficientSystem,
    onsite_density_quartic,
    source_coupling_bilinear,
    system_from_element,
)
from fermicluster.generators import GeneratorUniverse, eta, psi
from oracles import allclose, antisymmetrized


def two_site_universe():
    modes = [((x,), s, 0) for x in (0, 1) for s in (0, 1)]
    return GeneratorUniverse(modes, [((x,), 0, 0) for x in (0, 1)])


def test_add_accumulates_and_cancels():
    sys = CoefficientSystem()
    z = psi((0,), 0, 0, bar=True)
    sys.add((z,), (), 1.0)
    sys.add((z,), (), 2.0)
    assert sys.entries[((z,), ())] == 3.0
    sys.add((z,), (), -3.0)
    assert len(sys) == 0


def test_sum_merges_like_repeated_add():
    a = onsite_density_quartic([(0,), (1,)], 2, 1, 0.25)
    b = onsite_density_quartic([(1,), (2,)], 2, 1, -0.25)
    b.add((psi((2,), 0, 0),), (eta((2,), 0, 0, bar=True),), 1.5)
    want = CoefficientSystem()
    for key, value in list(a) + list(b):
        want.add(*key, value)
    got = a + b
    assert list(got.entries.items()) == list(want.entries.items())
    # Site (1,) cancels exactly and drops out.
    assert all(z.site != (1,) for zs, _ in got.entries for z in zs)


def test_family_slots_validated():
    sys = CoefficientSystem()
    with pytest.raises(ValueError):
        sys.add((eta((0,), 0, 0),), (), 1.0)
    with pytest.raises(ValueError):
        sys.add((), (psi((0,), 0, 0),), 1.0)


def test_to_element_orientation_sign():
    u = two_site_universe()
    a = psi((0,), 0, 0, bar=True)   # bit 0
    b = psi((0,), 1, 0)             # bit 3
    sys = CoefficientSystem()
    sys.add((b, a), (), 1.0)        # reversed order: one transposition
    el = sys.to_element(u)
    assert el.terms == {0b1001: -1.0}


def test_repeated_generator_entry_kept_but_null():
    u = two_site_universe()
    g = psi((0,), 0, 0)
    sys = CoefficientSystem()
    sys.add((g, g), (), 5.0)
    assert len(sys) == 1
    assert sys.to_element(u).is_zero()


def test_with_sources_at_keeps_entries_with_every_eta_on_kept_sites():
    sys = CoefficientSystem()
    sys.add((psi((0,), 0, 0),), (eta((1,), 0, 0),), 1.0)
    sys.add((psi((1,), 0, 0),), (eta((0,), 0, 0, bar=True), eta((1,), 0, 0)), 2.0)
    sys.add((psi((0,), 0, 0, bar=True), psi((2,), 0, 0)), (), 3.0)
    assert sys.with_sources_at(None) is sys
    assert list(sys.with_sources_at([(1,)]).entries.values()) == [1.0, 3.0]
    assert list(sys.with_sources_at([(0,), (1,)]).entries.values()) == [1.0, 2.0, 3.0]
    assert list(sys.with_sources_at([]).entries.values()) == [3.0]


@given(st.lists(st.tuples(st.permutations(range(4)), st.integers(-3, 3)), min_size=1, max_size=4))
@settings(max_examples=40)
def test_antisymmetrized_equivalent(entries):
    u = two_site_universe()
    gens = [psi((0,), 0, 0, bar=True), psi((0,), 0, 0), psi((1,), 0, 0, bar=True), psi((1,), 1, 0)]
    sys = CoefficientSystem()
    for perm, val in entries:
        sys.add(tuple(gens[i] for i in perm), (), float(val))
    anti = antisymmetrized(sys)
    assert allclose(anti.to_element(u), sys.to_element(u))


def test_roundtrip_through_element():
    u = two_site_universe()
    sys = CoefficientSystem()
    sys.add((psi((0,), 0, 0, bar=True), psi((1,), 1, 0)), (eta((0,), 0, 0),), 2.5)
    el = sys.to_element(u)
    back = system_from_element(u, el)
    assert allclose(back.to_element(u), el)
    # canonical entries keep psi and eta slots separated
    assert all(len(zs) == 2 and len(ws) == 1 for zs, ws in back.entries)


def test_onsite_quartic_entry_count_and_element():
    sites = [(0,)]
    sys = onsite_density_quartic(sites, spinor_count=2, flavor_count=1, coupling=1.0)
    assert len(sys) == 4  # (2*1)^2 index pairs, diagonal included
    u = GeneratorUniverse([((0,), s, 0) for s in (0, 1)])
    el = sys.to_element(u)
    # only the alpha != beta pairs survive; both orderings add up
    assert el.terms == {0b1111: 2.0}


def test_source_bilinear_entry_count():
    sys = source_coupling_bilinear([(0,)], spinor_count=2, flavor_count=3, coupling=0.5)
    assert len(sys) == 2 * 2 * 3
    assert sys.degrees() == {(1, 1)}
