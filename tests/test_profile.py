"""Profile semantics on every constructor path: the public constructor, profile_lincong,
entropy_profile, factor, dist_entropy_profile and from_json.

Each path builds the exponent matrix its own way; every profile it returns must be
canonical (no all-zero prime column, the least common denominator), equal to the
profile the public constructor builds from its entries, equal across a permuted
ground set, and written to JSON exactly as its LogValue entries write themselves.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

from defent import (
    Distribution,
    DomainError,
    IntMatrix,
    LogValue,
    Profile,
    dist_entropy_profile,
    entropy_profile,
    factor,
    field,
    log_of_rat,
    profile_lincong,
)
from defent.polymatroid import entries_to_json, subsets

Z = LogValue.zero()


def by_constructor():
    gs = ("x", "y", "z")
    values = [Z, log_of_rat(6), LogValue({2: Fraction(1, 3), 5: Fraction(-2, 9)}),
              LogValue({3: Fraction(7, 6)}), log_of_rat(Fraction(10, 3))]
    entries = {ks: values[i % len(values)] if ks else Z for i, ks in enumerate(subsets(gs))}
    return Profile(gs, entries)


def by_lincong():
    return profile_lincong(IntMatrix.from_rows([(1, 2, 3), (4, 0, 6), (2, 2, 10), (0, 3, -5)]), 12)


def by_census(hyp_set):
    return entropy_profile(hyp_set, field(5))


def by_factor(kr_set):
    blocks = {"A": ("a1", "a2"), "B": ("b1", "b2"), "C": ("c0", "c1"), "D": ("d0", "d1", "d2")}
    return factor(entropy_profile(kr_set, field(5)), blocks)


def by_distribution():
    outcomes = [(0, 0, 1), (0, 1, 1), (1, 1, 0), (2, 0, 0), (2, 1, 1)]
    weights = [Fraction(1, 12), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 6)]
    return dist_entropy_profile(Distribution(("u", "v", "w"), dict(zip(outcomes, weights))))


@pytest.fixture(params=["constructor", "lincong", "census", "factor", "distribution", "json"])
def profile(request, hyp_set, kr_set):
    build = {"constructor": by_constructor, "lincong": by_lincong,
             "census": lambda: by_census(hyp_set), "factor": lambda: by_factor(kr_set),
             "distribution": by_distribution,
             "json": lambda: Profile.from_json(json.loads(json.dumps(by_distribution().to_json())))}
    return build[request.param]()


def test_matrix_is_canonical(profile):
    assert list(profile._primes) == sorted(set(profile._primes))
    assert all(any(col) for col in profile._cols)
    assert math.gcd(profile._den, *itertools.chain.from_iterable(profile._cols)) == 1
    rebuilt = Profile(profile.ground_set, profile.entries())
    assert (rebuilt._primes, rebuilt._den, rebuilt._cols) == \
        (profile._primes, profile._den, profile._cols)
    assert rebuilt == profile


def test_json_round_trip_and_rendering(profile):
    blob = profile.to_json()
    # the rendering each LogValue entry gives of itself, key order included
    entrywise = {"ground_set": list(profile.ground_set),
                 "entries": entries_to_json(profile.ground_set, profile.entries())}
    assert json.dumps(blob) == json.dumps(entrywise)
    back = Profile.from_json(json.loads(json.dumps(blob)))
    assert back == profile and json.dumps(back.to_json()) == json.dumps(blob)


def test_equality_across_ground_set_order(profile):
    entries = profile.entries()
    for perm in itertools.islice(itertools.permutations(profile.ground_set), 1, 6):
        same = Profile(perm, entries)
        assert same == profile and profile == same
        assert all(same[ks] == profile[ks] for ks in profile.subsets())
    top = frozenset(profile.ground_set)
    changed = entries | {top: entries[top] + log_of_rat(2)}
    assert Profile(profile.ground_set[::-1], changed) != profile


def test_constructor_rejects_bad_entries(profile):
    gs, entries = profile.ground_set, profile.entries()
    top = frozenset(gs)
    for bad, message in (
        (entries | {top: Fraction(1)}, "must be LogValue"),
        (entries | {top: None}, "must be LogValue"),
        ({ks: v for ks, v in entries.items() if ks != top}, "define all"),
        (entries | {frozenset(): log_of_rat(2)}, "emptyset"),
        (entries | {frozenset({"zz"}): Z}, "not within ground set"),
    ):
        with pytest.raises(DomainError, match=message):
            Profile(gs, bad)
    with pytest.raises(DomainError, match="distinct"):
        Profile(gs + gs[:1], entries)


@pytest.mark.parametrize("edit, message", [
    (lambda e: e | {"u": None}, "must be LogValue"),
    (lambda e: e | {"u": {"terms": {"4": "1/2"}}}, "not prime"),
    (lambda e: e | {"u": {"terms": {"2": "x"}}}, "bad LogValue term"),
    (lambda e: e | {"u": [1]}, "LogValue JSON"),
    (lambda e: {k: v for k, v in e.items() if k != "u"}, "define all"),
    (lambda e: e | {"": {"terms": {"2": "1/1"}}}, "emptyset"),
    (lambda e: e | {"q": {"terms": {}}}, "not within ground set"),
])
def test_from_json_rejects_malformed_entries(edit, message):
    blob = by_distribution().to_json()
    blob["entries"] = edit(blob["entries"])
    with pytest.raises(DomainError, match=message):
        Profile.from_json(blob)
