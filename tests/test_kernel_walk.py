"""Differential tests: the one-pass kernel walk against the per-seed walk.

`recurrence_kernel_texts` and `kernel_texts` list a kernel as "pre:per"
texts from one pass over the functional graph of their rule's states; the
CLI prints those texts, and `recurrence_kernel` and `kernel_elements`
build `PeriodicSeq`s from them.  The reference here is the walk they
replaced: every seed's forced continuation is followed on its own until
its state repeats.  The text listing, the objects' strings and the
reference must agree exactly, order included.
"""

import json
import random

import numpy as np

from starshift import (
    Dictionary,
    Gf2Poly,
    PeriodicSeq,
    Word,
    enumerate_dictionaries,
    kernel_elements,
    recurrence_kernel,
)
from starshift.cli import main
from starshift.dictionary import kernel_texts, progressive_mask
from starshift.gf2poly import recurrence_kernel_texts


def seed_walk(width, next_bit):
    """The per-seed walk over `width`-bit states, as "pre:per" strings.

    A state holds the last `width` symbols, oldest at the top bit, and
    `next_bit[state]` is the symbol that follows.  From each seed the walk
    runs until a state repeats; the symbols before the repeated state's
    first visit are the preperiod and the rest up to the repeat the
    period.  The seeds run side by side as numpy columns.
    """
    count = 1 << width
    table = np.asarray(next_bit, dtype=np.int64)
    seeds = np.arange(count)
    state = seeds.copy()
    seen = np.full((count, count), -1, dtype=np.int64)
    start = np.full(count, -1, dtype=np.int64)
    stop = np.full(count, -1, dtype=np.int64)
    # Some state repeats within count + 1 visits.
    symbols = np.zeros((count, count + 1), dtype=np.uint8)
    for step in range(count + 1):
        before = seen[seeds, state]
        repeat = (before >= 0) & (stop < 0)
        start[repeat] = before[repeat]
        stop[repeat] = step
        if (stop >= 0).all():
            break
        fresh = before < 0
        seen[seeds[fresh], state[fresh]] = step
        symbols[:, step] = state >> (width - 1)
        state = ((state << 1) & (count - 1)) | table[state]
    out = []
    for row, a, b in zip(symbols + ord("0"), start, stop):
        text = row.tobytes().decode("ascii")
        out.append(PeriodicSeq.from_parts(Word.from_str(text[:a]), Word.from_str(text[a:b])))
    out.sort(key=lambda s: s.sort_key())
    return [str(s) for s in out]


def recurrence_rule(a):
    """x_{k+d} = sum of a_j x_{k+j} over j < d, with x_{k+j} at state bit d-1-j."""
    d = a.degree
    return [
        sum(a.coeff(j) & (state >> (d - 1 - j)) for j in range(d)) & 1
        for state in range(1 << d)
    ]


def dictionary_rule(d):
    """The last symbol whose window is not a member, so the image is 0."""
    n = d.window
    return [int(Word(n, state << 1) in d) for state in range(1 << (n - 1))]


def listed(elements):
    return [str(s) for s in elements]


def assert_same_listing(a):
    reference = seed_walk(a.degree, recurrence_rule(a))
    assert recurrence_kernel_texts(a) == listed(recurrence_kernel(a)) == reference, str(a)


def assert_same_dictionary_listing(d):
    """The text listing, the objects' strings and the reference; returns the objects."""
    elements = kernel_elements(d)
    assert kernel_texts(d) == listed(elements) == seed_walk(d.window - 1, dictionary_rule(d)), str(d)
    return elements


def test_every_polynomial_up_to_degree_8():
    for degree in range(1, 9):
        for low in range(1 << degree):
            assert_same_listing(Gf2Poly((1 << degree) | low))


def test_sampled_polynomials_of_degrees_9_and_10():
    """All of them would take the per-seed walk over a minute: the degree-10
    listings alone hold 2.6e8 symbols."""
    rng = random.Random(20261018)
    for degree in (9, 10):
        for low in rng.sample(range(1 << degree), 64):
            assert_same_listing(Gf2Poly((1 << degree) | low))


def test_every_progressive_dictionary_of_windows_2_to_4():
    for n in (2, 3, 4):
        for d in enumerate_dictionaries(n, "progressive"):
            assert_same_dictionary_listing(d)


def test_sampled_window_6_dictionaries():
    """Most of these rules are nonlinear, and many have preperiodic tails."""
    rng = random.Random(20261018)
    tails = 0
    for _ in range(500):
        d = Dictionary(6, progressive_mask(6, rng.getrandbits(32)))
        tails += any(s.pre_len for s in assert_same_dictionary_listing(d))
    assert tails > 100


def test_sampled_nonlinear_dictionaries_of_windows_8_and_9():
    """The walk at the `sequences` benchmark's size, on rules with tails of many lengths."""
    rng = random.Random(20261019)
    tails = 0
    for n in (8, 9):
        for _ in range(100):
            d = Dictionary(n, progressive_mask(n, rng.getrandbits(1 << (n - 1))))
            assert d.to_window_map().linear_poly is None
            tails += any(s.pre_len for s in assert_same_dictionary_listing(d))
    assert tails >= 50


def test_cli_kernel_listing_builds_no_sequence_objects(monkeypatch, capsys):
    argv = ["kernel", "--poly", "1+t^4+t^9", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    objects = listed(recurrence_kernel(Gf2Poly.parse("1+t^4+t^9")))

    def refuse(self):
        raise AssertionError("a PeriodicSeq was built")

    monkeypatch.setattr(PeriodicSeq, "__post_init__", refuse)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == expected
    assert json.loads(out)["elements"] == objects
