"""The validated objects at the API boundary.

Outputs built without a second check must be indistinguishable from the
same objects built through the public constructors, and every public
constructor must still reject bad input with its exact message.
"""

import itertools
import pickle
import re
import tracemalloc

import pytest

from cycleswap import forward
from cycleswap.forward import FactoredPair, KCycleFactorization, factor
from cycleswap.gsg import GsgElement, enumerate_gsg
from cycleswap.inverse import enumerate_k_cycle_factorizations, unfactor
from cycleswap.involution import InvolutionPair, involute
from cycleswap.permutations import Permutation, _trusted, enumerate_permutations, stanley_unhat


def _public(obj):
    """``obj`` rebuilt through the public constructors alone."""
    if isinstance(obj, Permutation):
        return Permutation(tuple(obj.images))
    if isinstance(obj, GsgElement):
        return GsgElement(obj.k, tuple(obj.x), _public(obj.tau))
    if isinstance(obj, KCycleFactorization):
        return KCycleFactorization(obj.k, _public(obj.perm))
    if isinstance(obj, FactoredPair):
        return FactoredPair(_public(obj.delta), _public(obj.sigma))
    return InvolutionPair(_public(obj.sigma), _public(obj.pi))


def assert_ordinary(obj):
    public = _public(obj)
    assert type(obj) is type(public)
    assert obj == public and public == obj and hash(obj) == hash(public)
    assert repr(obj) == repr(public)
    assert pickle.dumps(obj) == pickle.dumps(public)
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("m", range(6))
def test_unhat_outputs_are_ordinary(m):
    for word in itertools.permutations(range(1, m + 1)):
        assert_ordinary(stanley_unhat(word))


@pytest.mark.parametrize("k,n", [(1, 4), (2, 2), (3, 2), (2, 3), (5, 1), (3, 0)])
def test_factor_and_unfactor_outputs_are_ordinary(k, n):
    for p in enumerate_permutations(k * n):
        pair = factor(p, k)
        assert_ordinary(pair)
        assert_ordinary(unfactor(pair.delta, pair.sigma))


@pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (3, 1), (2, 0)])
def test_involute_outputs_are_ordinary(k, n):
    pis = list(enumerate_permutations(k * n))
    for sigma in enumerate_gsg(k, n):
        for pi in pis:
            assert_ordinary(involute(InvolutionPair(sigma, pi)))


def test_enumerated_objects_are_ordinary():
    for p in enumerate_permutations(4):
        assert_ordinary(p)
    for s in enumerate_gsg(2, 3):
        assert_ordinary(s)
    for delta in enumerate_k_cycle_factorizations(2, 3):
        assert_ordinary(delta)


def _bytes_held(build):
    # Memory held by 10 000 objects from ``build``.
    tracemalloc.start()
    try:
        objects = [build() for _ in range(10_000)]
        return tracemalloc.get_traced_memory()[0] // len(objects)
    finally:
        tracemalloc.stop()


def test_trusted_objects_are_no_larger():
    # An object built without the check must keep the compact attribute
    # layout that __init__ gives it: an instance __dict__ would more than
    # double its size.
    tau = Permutation((2, 3, 1))
    assert _bytes_held(lambda: _trusted(Permutation, images=(2, 3, 1))) <= _bytes_held(
        lambda: Permutation((2, 3, 1)))
    assert _bytes_held(lambda: _trusted(GsgElement, k=2, x=(0, 1, 0), tau=tau)) <= _bytes_held(
        lambda: GsgElement(2, (0, 1, 0), tau))


@pytest.mark.parametrize("m", range(5))
def test_unhat_accepts_exactly_the_words(m):
    # Every tuple of m letters from -1..m+1: out of range low or high,
    # repeated, or a word.
    for word in itertools.product(range(-1, m + 2), repeat=m):
        if sorted(word) == list(range(1, m + 1)):
            assert stanley_unhat(word).size == m
        else:
            with pytest.raises(ValueError) as err:
                stanley_unhat(word)
            assert str(err.value) == f"not a word on 1..{m}: {word}"


_ID4 = Permutation.identity(4)
_DELTA22 = KCycleFactorization(2, Permutation((2, 1, 4, 3)))
_SIGMA35 = GsgElement(3, (0, 1, 0, 2, 1), Permutation((4, 2, 3, 5, 1)))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Permutation((1, 1, 3)), "not a permutation of 1..3: (1, 1, 3)"),
        (lambda: Permutation([0, 1]), "not a permutation of 1..2: (0, 1)"),
        (lambda: Permutation((1, 3)), "not a permutation of 1..2: (1, 3)"),
        (lambda: stanley_unhat((2, 2)), "not a word on 1..2: (2, 2)"),
        (lambda: stanley_unhat([3, 1, 2, 5]), "not a word on 1..4: (3, 1, 2, 5)"),
        (lambda: GsgElement(0, (), Permutation(())), "k must be positive"),
        (lambda: GsgElement(2, (0, 1), Permutation.identity(3)),
         "x has length 2 but tau acts on 3 points"),
        (lambda: GsgElement(2, (0, 1, 0, 1), Permutation.identity(3)),
         "x has length 4 but tau acts on 3 points"),
        (lambda: KCycleFactorization(0, _ID4), "k must be positive"),
        (lambda: KCycleFactorization(3, _ID4), "size 4 not divisible by k=3"),
        (lambda: KCycleFactorization(2, _ID4), "cycle type is not (2^n): (1, 1, 1, 1)"),
        (lambda: KCycleFactorization(2, Permutation((2, 3, 1, 4))),
         "cycle type is not (2^n): (3, 1)"),
        (lambda: KCycleFactorization(1, Permutation((2, 1))), "cycle type is not (1^n): (2,)"),
        (lambda: FactoredPair(_DELTA22, _SIGMA35),
         "incompatible pair: delta is (2,2), sigma is (3,5)"),
        (lambda: FactoredPair(_DELTA22, GsgElement(3, (0, 0), Permutation.identity(2))),
         "incompatible pair: delta is (2,2), sigma is (3,2)"),
        (lambda: unfactor(_DELTA22, _SIGMA35), "incompatible pair: delta is (2,2), sigma is (3,5)"),
        (lambda: InvolutionPair(_SIGMA35, Permutation.identity(6)),
         "pi acts on 6 points, expected k*n = 3*5"),
        (lambda: factor(Permutation.identity(5), 2), "size 5 not divisible by k=2"),
    ],
)
def test_public_constructors_keep_their_errors(build, message):
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        build()
    assert str(err.value) == message


def test_factor_checks_the_kernel_delta(monkeypatch):
    # A kernel that reports delta with the cycle type (3, 1) is caught by the
    # one scan of delta's hat word, with the public constructor's message.
    real = forward._factor_word
    monkeypatch.setattr(forward, "_factor_word", lambda word, k: ((3, 1, 2, 4),) + real(word, k)[1:])
    with pytest.raises(ValueError) as err:
        factor(_ID4, 2)
    assert str(err.value) == "cycle type is not (2^n): (3, 1)"
