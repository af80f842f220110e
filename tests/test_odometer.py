import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dendro.odometer import (
    Address,
    AddressError,
    FiberPoint,
    add,
    ell,
    embed_x,
    eps_scrambled_max,
    fiber_diam_traj,
    fiber_height,
    gehman_extend,
    pair_limsup_distance,
    rect_pattern,
    step,
)
from oracles import odometer_add, odometer_embed

F = Fraction

ONES = Address.ones()


# ---------------------------------------------------------------- addresses


def test_add_one_no_carry():
    assert add(ONES, 1).literal() == "21^inf"


def test_add_one_with_carry():
    assert add(Address.parse("21^inf"), 1).literal() == "021^inf"


def test_parse_format_roundtrip():
    for text in ("1^inf", "21^inf", "021^inf", "0211^inf", "2011^inf"):
        assert Address.parse(text).literal() == Address.parse(text).literal()
        back = Address.parse(Address.parse(text).literal())
        assert back == Address.parse(text)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=-200, max_value=200),
    n=st.integers(min_value=-200, max_value=200),
    base=st.integers(min_value=0, max_value=60),
)
def test_group_action_law(m, n, base):
    alpha = add(ONES, base)
    assert add(add(alpha, m), n) == add(alpha, m + n)


def test_add_negative_inverts():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(-500, 500)
        assert add(add(ONES, n), -n) == ONES


def test_ell_examples():
    assert ell(ONES) == 0
    assert ell(add(ONES, 1)) == 1
    assert ell(add(add(ONES, 1), 1)) == 2  # 021^inf


# ---------------------------------------------------------------- embedding


def test_embed_ones():
    assert embed_x(ONES) == F(1, 2)


def test_embed_21():
    assert embed_x(Address.parse("21^inf")) == F(9, 10)


def test_embed_injective_on_random_addresses():
    rng = random.Random(3)
    seen = {}
    for _ in range(1000):
        digs = {i: rng.choice([0, 2]) for i in rng.sample(range(12), rng.randint(0, 4))}
        a = Address.from_digit_map(digs)
        x = embed_x(a)
        if x in seen:
            assert seen[x] == a
        seen[x] = a
    assert len(seen) >= 500


def test_embed_and_add_match_digit_oracles():
    # embed_x sums over one denominator and add builds its result from an
    # integer with no validation; both must equal the digit-by-digit
    # references, and every result must pass the validating constructor
    rng = random.Random(20)
    for _ in range(2000):
        digs = {i: rng.choice([0, 2]) for i in rng.sample(range(16), rng.randint(0, 8))}
        alpha = Address.from_digit_map(digs)
        assert embed_x(alpha) == odometer_embed(digs)
        for n in (1, 2, -1, rng.randint(-300, 300), rng.randint(0, 3**8),
                  -rng.randint(0, 3**8), 3**12 + rng.randint(0, 3**12),
                  -(3**12 + rng.randint(0, 3**12))):
            got = add(alpha, n)
            assert got == Address.from_digit_map(odometer_add(digs, n))
            assert Address(got.digits) == got
            assert embed_x(got) == odometer_embed(dict(got.digits))
    # a long +1 orbit walks every carry length the small addresses reach
    alpha, digs = ONES, {}
    for _ in range(3**7 + 5):
        alpha, digs = add(alpha, 1), odometer_add(digs, 1)
        assert alpha.digits == tuple(sorted(digs.items()))
        assert Address(alpha.digits) == alpha
    # and a long -1 orbit walks every borrow length on the way back down
    alpha, digs = add(ONES, 3**7), odometer_add({}, 3**7)
    for _ in range(2 * 3**7 + 5):
        alpha, digs = add(alpha, -1), odometer_add(digs, -1)
        assert alpha.digits == tuple(sorted(digs.items()))
        assert Address(alpha.digits) == alpha
    # a 3^7-step -1 orbit from a high address, retraced by +1 back to its start
    start = Address.parse("0202021^inf")
    down = [start]
    for _ in range(3**7):
        down.append(add(down[-1], -1))
    assert down[-1] == Address.from_digit_map(
        odometer_add(dict(start.digits), -3**7))
    alpha = down[-1]
    for prev in reversed(down[:-1]):
        alpha = add(alpha, 1)
        assert alpha == prev
    assert alpha == start


SPAN = 3**20


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=-SPAN, max_value=SPAN),
    m=st.integers(min_value=-SPAN, max_value=SPAN),
    k=st.integers(min_value=-SPAN, max_value=SPAN),
)
# the chunk edges: embed_x and ell read four digits at a time, as remainders
# modulo 3^4 in [-40, 40]
@example(n=40, m=1, k=-1)
@example(n=-40, m=-1, k=1)
@example(n=41, m=-81, k=81)
@example(n=-41, m=81, k=-81)
@example(n=3280, m=1, k=3**8)
@example(n=-3280, m=-1, k=-(3**8))
@example(n=3281, m=-3281, k=3280)
@example(n=-3281, m=3281, k=-3280)
def test_integer_addresses_match_digit_oracles(n, m, k):
    digs = odometer_add({}, n)
    alpha = add(ONES, n)
    assert alpha.digits == tuple(sorted(digs.items()))
    assert embed_x(alpha) == odometer_embed(digs)
    assert ell(alpha) == len(digs)
    top = max(digs, default=0) + 2
    assert [alpha.digit(p) for p in range(top)] == [
        digs.get(p, 1) for p in range(top)]
    assert Address.parse(alpha.literal()) == alpha
    assert Address(alpha.digits) == alpha
    assert hash(Address(alpha.digits)) == hash(alpha)
    assert add(add(alpha, m), k) == add(alpha, m + k)


def test_address_repr_and_equality():
    alpha = Address.parse("0211^inf")
    assert repr(alpha) == "Address(digits=((0, 0), (1, 2)))"
    assert str(alpha) == "021^inf"
    assert alpha == Address(((0, 0), (1, 2))) != ONES
    assert repr(ONES) == "Address(digits=())" and str(ONES) == "1^inf"


@pytest.mark.parametrize("digits, message", [
    (((1, 0), (0, 2)), "digits must be sorted by position"),
    ([(0, 2)], "digits must be sorted by position"),
    (((1, 0), (1, 2)), "bad digit positions"),
    (((-1, 0),), "bad digit positions"),
    (((0, 1),), "stored digits must be 0 or 2"),
    (((0, 3),), "stored digits must be 0 or 2"),
])
def test_address_rejects_noncanonical_digits(digits, message):
    with pytest.raises(AddressError, match=message):
        Address(digits)


@pytest.mark.parametrize("digits, message", [
    (((0.5, 0),), "bad digit positions"),
    (((0, 2.0),), "stored digits must be 0 or 2"),
    (((True, 0),), "bad digit positions"),
    (((0, False),), "stored digits must be 0 or 2"),
], ids=["float_position", "float_digit", "bool_position", "bool_digit"])
def test_address_rejects_non_int_digits(digits, message):
    # a float or bool would reach embed_x as a non-integer n and raise there
    with pytest.raises(AddressError, match=message):
        Address(digits)


# ---------------------------------------------------------------- skew map


def test_step_examples():
    p = step(FiberPoint(ONES, F(1)))
    assert p.alpha.literal() == "21^inf" and p.y == F(1, 3)
    q = step(FiberPoint(Address.parse("21^inf"), F(1, 3)))
    assert q.alpha.literal() == "021^inf" and q.y == F(1, 9)


def _step_back(p):
    """The skew map's inverse: shift the base by -1, rescale the fiber."""
    prev = add(p.alpha, -1)
    return FiberPoint(prev, p.y * fiber_height(prev) / fiber_height(p.alpha))


def test_step_bijection():
    rng = random.Random(5)
    for _ in range(1000):
        alpha = add(ONES, rng.randint(0, 3**6))
        y = fiber_height(alpha) * F(rng.randint(0, 64), 64)
        p = FiberPoint(alpha, y)
        assert _step_back(step(p)) == p
        assert step(_step_back(p)) == p


def test_step_stays_in_fiber():
    p = FiberPoint(ONES, F(1))
    for _ in range(200):
        p = step(p)
        assert 0 <= p.y <= fiber_height(p.alpha)


# ---------------------------------------------------------------- diameters


def test_fiber_diam_values_at_small_n():
    traj = fiber_diam_traj(ONES, 3)
    assert traj[0] == 1
    assert traj[1] == F(1, 3)  # 21^inf
    assert traj[3] == F(1, 3)  # 121^inf has a single non-1 digit
    assert traj == [F(1, 3 ** ell(add(ONES, n))) for n in range(4)]


def test_diam_never_full_after_start():
    # ell never returns to 0 along the forward orbit of the all-ones address
    traj = fiber_diam_traj(ONES, 729)
    assert all(v <= F(1, 3) for v in traj[1:])


def test_window_max_is_one_third():
    traj = fiber_diam_traj(ONES, 3**7)
    window = traj[1:]
    assert max(window) == F(1, 3)
    for j in range(7):
        assert traj[3**j] == F(1, 3)


def test_window_min_matches_digit_scan_oracle():
    # oracle: scan ell(1^inf + n) for 1 <= n <= 3^7 by direct digit arithmetic
    best = 0
    argbest = None
    for n in range(1, 3**7 + 1):
        e = ell(add(ONES, n))
        if e > best:
            best, argbest = e, n
    assert best == 8 and argbest == 1094
    traj = fiber_diam_traj(ONES, 3**7)
    assert min(traj[1:]) == F(1, 3**8)


# ---------------------------------------------------------------- scrambled sets


def test_eps_scrambled_values():
    assert eps_scrambled_max(ONES, F(1, 10)).size == 4
    assert eps_scrambled_max(ONES, F(1, 4)).size == 2
    assert eps_scrambled_max(ONES, F(1, 3)).size == 1
    assert eps_scrambled_max(ONES, F(1, 10)).analytic_bound == 4
    assert eps_scrambled_max(ONES, F(1, 4)).analytic_bound == 2


def test_eps_scrambled_greedy_matches_brute_force():
    # tiny grid: exhaustive subset check against the greedy sweep
    from itertools import combinations

    alpha = ONES
    eps = F(1, 5)
    res = eps_scrambled_max(alpha, eps, grid=12)
    pts = [F(i, 12) for i in range(13)]
    best = 1
    for k in range(2, 6):
        for combo in combinations(pts, k):
            if all(
                pair_limsup_distance(alpha, a, b) > eps
                for a, b in combinations(combo, 2)
            ):
                best = max(best, k)
    assert res.size == best


def test_pair_limsup_identity():
    # observed max over a long window approaches the exact limsup value
    y1, y2 = F(0), F(1)
    lim = pair_limsup_distance(ONES, y1, y2)
    assert lim == F(1, 3)
    p, q = FiberPoint(ONES, y1), FiberPoint(ONES, y2)
    seen = F(0)
    for _ in range(81):
        p, q = step(p), step(q)
        seen = max(seen, abs(p.y - q.y))
    assert seen == lim


def test_fiber_pair_scrambling_evidence():
    # one fiber pair: dips below 1/1000 and exceeds 1/4 within 3^7 steps
    p, q = FiberPoint(ONES, F(0)), FiberPoint(ONES, F(1))
    lo, hi = F(10), F(0)
    for _ in range(3**7):
        p, q = step(p), step(q)
        d = abs(p.y - q.y)
        lo, hi = min(lo, d), max(hi, d)
    assert lo <= F(1, 1000)
    assert hi > F(1, 4)


# ---------------------------------------------------------------- distality across fibers


def first_difference(a: Address, b: Address) -> int:
    top = 0
    for p, _ in a.digits + b.digits:
        top = max(top, p)
    for i in range(top + 2):
        if a.digit(i) != b.digit(i):
            return i
    raise AssertionError("addresses equal")


def test_cross_fiber_gap_identity():
    rng = random.Random(11)
    for _ in range(60):
        a = add(ONES, rng.randint(0, 3**5))
        b = add(ONES, rng.randint(0, 3**5))
        if a == b:
            continue
        v = first_difference(a, b)
        for n in (0, 1, 7, 50):
            an, bn = add(a, n), add(b, n)
            assert first_difference(an, bn) == v
            gap = abs(embed_x(an) - embed_x(bn))
            assert gap >= F(1, 5 ** (v + 1))


# ---------------------------------------------------------------- rectangle pattern


def test_rect_pattern_depth0():
    (r,) = rect_pattern(0)
    assert (r.x0, r.x1, r.y0, r.y1) == (F(0), F(1), F(0), F(1))


def test_rect_pattern_depth1():
    rects = {r.word: r for r in rect_pattern(1)}
    assert len(rects) == 3
    k1 = rects["1"]
    assert (k1.x0, k1.x1, k1.y0, k1.y1) == (F(2, 5), F(3, 5), F(0), F(1))
    k0 = rects["0"]
    assert (k0.x0, k0.x1, k0.y0, k0.y1) == (F(0), F(1, 5), F(0), F(1, 3))


def test_rect_pattern_contains_fibers():
    # the horizontal embedding of an address prefix lands inside its rectangle
    rects = {r.word: r for r in rect_pattern(2)}
    for n in range(9):
        alpha = add(ONES, n)
        word = f"{alpha.digit(0)}{alpha.digit(1)}"
        r = rects[word]
        x = embed_x(alpha)
        assert r.x0 <= x <= r.x1


# ---------------------------------------------------------------- extension


def test_gehman_extend_depth2_shape():
    D, Fmap = gehman_extend(2)
    assert len(D.vertices) == 7
    leaves = [v for v in D.vertices if D.degree(v) == 1]
    assert len(leaves) == 4
    branch = [v for v in D.vertices if D.degree(v) == 3]
    assert all(D.degree(v) == 3 for v in branch)
    assert len(branch) == 2


def test_gehman_leaf_action_bijection():
    D, Fmap = gehman_extend(3)
    leaves = sorted(v for v in D.vertices if D.degree(v) == 1 and v != "g")
    images = {Fmap.vertex_images[v].vertex for v in leaves}
    assert images == set(leaves)


def test_gehman_interior_reaches_fixed_point():
    from dendro.metric_tree import PointRef

    D, Fmap = gehman_extend(2)
    root = PointRef(vertex="g")
    assert Fmap.apply(root) == root
    for v in D.vertices:
        if D.degree(v) == 1 and v != "g":
            continue
        assert Fmap.apply(Fmap.apply(PointRef(vertex=v))) == root
    # midpoints of every edge also land on the root within depth steps
    for e in range(len(D.edges)):
        mid = D.point(e, D.edge_length(e) / 2)
        assert Fmap.apply(Fmap.apply(mid)) == root


def test_gehman_leaf_labels_are_orbit_prefixes():
    D, _ = gehman_extend(2)
    labels = D.descriptor["leaf_cylinders"]
    assert len(set(labels.values())) == 4
    # successive +1 prefixes of the all-ones orbit
    assert set(labels.values()) == {"11", "21", "02", "12"}
