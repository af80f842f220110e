"""Skew product over the 3-adic adding machine, with exact fiber geometry.

The base space is the set of digit sequences over {0,1,2} with addition mod 3
carrying from position 0 upward.  Only addresses with finitely many digits
different from 1 are represented; these are exactly the addresses whose
vertical fiber is nondegenerate, and they form a single orbit of the +1 map.
So each address is 1^inf + n for exactly one integer n, and its digits minus
1 are the balanced-ternary digits of n (each -1, 0 or 1).  An ``Address``
stores that n: alpha + k is the address at n + k, and every digit is read
off n.

An address alpha embeds horizontally at x = sum 2*alpha_i / 5^(i+1); its
fiber is the vertical segment of height 3^(-ell(alpha)) where ell counts the
non-1 digits.  ``embed_x`` and ``ell`` read n's digits four at a time, from
one table over the remainders of n modulo 3^4 taken in [-40, 40].  The skew
map sends (x_alpha, y) to (x_{alpha+1}, y rescaled linearly onto the new
fiber), a homeomorphism.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from dendro.metric_tree import PointRef, _frozen, _setattr
from dendro.serialize import format_rat
from dendro.tree_map import TreeMap


class AddressError(ValueError):
    pass


class Address:
    """3-adic address 1^inf + n with finitely many digits different from 1.

    Built from ``digits``: the sorted tuple of (position, digit) for the
    non-1 digits only (canonical), which stays readable as a property.
    """

    __slots__ = ("_n",)

    def __init__(self, digits: tuple = ()):
        seen = set()
        n = 0
        for pos, d in digits:
            if type(d) is not int or d not in (0, 2):  # not a bool or a float
                raise AddressError("stored digits must be 0 or 2")
            if type(pos) is not int or pos < 0 or pos in seen:
                raise AddressError("bad digit positions")
            seen.add(pos)
            n += (d - 1) * 3**pos
        if tuple(sorted(digits)) != digits:
            raise AddressError("digits must be sorted by position")
        _setattr(self, "_n", n)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._n == other._n
        return NotImplemented

    def __hash__(self):
        return hash((self._n,))

    @property
    def digits(self) -> tuple:
        return tuple((p, d) for p, d in enumerate(_digits(self._n)) if d != 1)

    def digit(self, pos: int) -> int:
        # adding 1 + 3 + ... + 3^pos lifts digits 0..pos of n from {-1, 0, 1}
        # to {0, 1, 2}, so digit pos is then the plain ternary digit
        return (self._n + (3 ** (pos + 1) - 1) // 2) // 3**pos % 3

    @staticmethod
    def ones() -> "Address":
        return _at(0)

    @staticmethod
    def from_digit_map(m: dict) -> "Address":
        return Address(tuple(sorted((p, d) for p, d in m.items() if d != 1)))

    # -- literal syntax: little-endian digits then "1^inf"

    @staticmethod
    def parse(text: str) -> "Address":
        t = text.strip().replace("^INF", "^inf")
        if not t.endswith("^inf"):
            raise AddressError(f"address literal must end with '1^inf': {text!r}")
        body = t[: -len("^inf")]
        if not body.endswith("1"):
            raise AddressError(f"address literal must end with '1^inf': {text!r}")
        body = body[:-1]
        m = {}
        for i, ch in enumerate(body):
            if ch not in "012":
                raise AddressError(f"bad digit {ch!r} in {text!r}")
            if ch != "1":
                m[i] = int(ch)
        return Address.from_digit_map(m)

    def literal(self) -> str:
        return "".join(map(str, _digits(self._n))) + "1^inf"

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return f"Address(digits={self.digits!r})"


# every odometer step builds an address: _at skips __init__'s digit checks
# and sets the one slot through its descriptor
_new = object.__new__
_set_n = Address._n.__set__


def _at(n: int) -> Address:
    """The address 1^inf + n."""
    alpha = _new(Address)
    _set_n(alpha, n)
    return alpha


def _digits(n: int):
    """The digits of 1^inf + n from position 0 through the last non-1 one."""
    while n:
        n, d = divmod(n + 1, 3)
        yield d


def _chunk(m: int) -> tuple[int, int]:
    """For the digits d_0..d_3 of 1^inf + m - 40: the Horner value
    sum (d_j - 1)*5^(3-j) and the count of d_j != 1."""
    r, value, count = m - 40, 0, 0
    for _ in range(4):
        r, d = divmod(r + 1, 3)
        value = 5 * value + d - 1
        count += d != 1
    return value, count


# n = 81*q + m - 40 with 0 <= m < 81: digits 0..3 of 1^inf + n are those of
# 1^inf + m - 40, and digit 4 + i is digit i of 1^inf + q
_CHUNKS = tuple(_chunk(m) for m in range(81))


def ell(alpha: Address) -> int:
    """Count of digits different from 1 (drives the fiber height)."""
    n, count = alpha._n, 0
    while n:
        n, m = divmod(n + 40, 81)
        count += _CHUNKS[m][1]
    return count


def add(alpha: Address, n: int) -> Address:
    """alpha + n under 3-adic addition with carry upward; n may be negative."""
    return _at(alpha._n + n)


def embed_x(alpha: Address) -> Fraction:
    """Horizontal coordinate sum 2*digit_i / 5^(i+1), in closed form.

    The all-ones tail sums to 1/2 and each digit d at position i moves it by
    2*(d-1)/5^(i+1).  Over the common denominator 2*5^K, K four times the
    chunk count, the numerator is 5^K + 4*num with num = sum (d-1)*5^(K-1-i),
    accumulated by Horner's rule one chunk of four digits at a time.
    """
    n, num, scale = alpha._n, 0, 1
    while n:
        n, m = divmod(n + 40, 81)
        num = 625 * num + _CHUNKS[m][0]
        scale *= 625
    return Fraction(scale + 4 * num, 2 * scale)


def fiber_height(alpha: Address) -> Fraction:
    return Fraction(1, 3 ** ell(alpha))


class FiberPoint:
    __slots__ = ("alpha", "y")

    def __init__(self, alpha: Address, y: Fraction):
        if not (0 <= y <= fiber_height(alpha)):
            raise AddressError("vertical coordinate outside the fiber")
        _setattr(self, "alpha", alpha)
        _setattr(self, "y", y)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.alpha, self.y) == (other.alpha, other.y)
        return NotImplemented

    def __hash__(self):
        return hash((self.alpha, self.y))

    def __repr__(self):
        return f"FiberPoint(alpha={self.alpha!r}, y={self.y!r})"

    @property
    def x(self) -> Fraction:
        return embed_x(self.alpha)


def step(p: FiberPoint) -> FiberPoint:
    """The skew map: shift the base by +1, rescale the fiber linearly."""
    nxt = add(p.alpha, 1)
    factor = Fraction(3 ** ell(p.alpha), 3 ** ell(nxt))
    return FiberPoint(nxt, p.y * factor)


def fiber_diam_traj(alpha: Address, N: int) -> list[Fraction]:
    """diam of the n-th image of the fiber over alpha, n = 0..N (exact)."""
    return [fiber_height(add(alpha, n)) for n in range(N + 1)]


def write_traj_csv(path, alpha: Address, N: int) -> int:
    """CSV rows (n, ell, diam); returns the number of data rows."""
    if N < 0:
        raise ValueError(f"step count must be >= 0, got {N}")
    diam = {}  # ell -> the text of 3^-ell, formatted once per digit count
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "ell", "diam"])
        for n in range(N + 1):
            k = ell(add(alpha, n))
            if k not in diam:
                diam[k] = format_rat(Fraction(1, 3**k))
            w.writerow([n, k, diam[k]])
    return N + 1


# ---------------------------------------------------------------------------
# scrambled-set cardinality on one fiber


def pair_limsup_distance(alpha: Address, y1: Fraction, y2: Fraction) -> Fraction:
    """limsup of the orbit distance of two points on one fiber.

    Same-fiber points keep equal horizontal coordinates forever, and the
    vertical gap at time n is |y1-y2| * 3^(ell(alpha) - ell(alpha+n)); the
    least value of ell(alpha+n) over n >= 1 is 1, attained infinitely often,
    so the limsup is |y1-y2| * 3^(ell(alpha)-1).
    """
    return abs(y1 - y2) * Fraction(3 ** ell(alpha), 3)


class EpsScrambledResult:
    def __init__(self, size: int, analytic_bound: int, epsilon: Fraction, grid: int):
        _setattr(self, "size", size)
        _setattr(self, "analytic_bound", analytic_bound)
        _setattr(self, "epsilon", epsilon)
        _setattr(self, "grid", grid)

    __setattr__ = __delattr__ = _frozen


def eps_scrambled_max(alpha: Address, epsilon, grid: int = 1000) -> EpsScrambledResult:
    """Largest grid subset of the fiber that is pairwise epsilon-scrambled.

    Pairs must satisfy :func:`pair_limsup_distance` > epsilon exactly; on the
    grid this is a gap threshold, so a left-to-right greedy sweep attains the
    maximum.  The analytic ceiling floor(1/(3 epsilon)) + 1 is reported
    alongside.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise AddressError("epsilon must be positive")
    if grid < 10:
        raise AddressError("grid resolution must be at least 10")
    H = fiber_height(alpha)
    pts = [H * Fraction(i, grid) for i in range(grid + 1)]
    chosen = 0
    last = None
    for y in pts:
        if last is None or pair_limsup_distance(alpha, y, last) > epsilon:
            chosen += 1
            last = y
    bound = int(Fraction(1) / (3 * epsilon)) + 1
    return EpsScrambledResult(size=chosen, analytic_bound=bound,
                              epsilon=epsilon, grid=grid)


# ---------------------------------------------------------------------------
# rectangle pattern of the ambient planar set


class Rect:
    __slots__ = ("word", "x0", "x1", "y0", "y1")

    def __init__(self, word: str, x0: Fraction, x1: Fraction, y0: Fraction,
                 y1: Fraction):
        # word: base-3, most significant digit first in construction order
        _setattr(self, "word", word)
        _setattr(self, "x0", x0)
        _setattr(self, "x1", x1)
        _setattr(self, "y0", y0)
        _setattr(self, "y1", y1)

    __setattr__ = __delattr__ = _frozen

    def child(self, i: int) -> "Rect":
        theta = Fraction(1) if i == 1 else Fraction(1, 3)
        w = self.x1 - self.x0
        h = self.y1 - self.y0
        return Rect(
            word=self.word + str(i),
            x0=self.x0 + Fraction(2 * i, 5) * w,
            x1=self.x0 + Fraction(2 * i + 1, 5) * w,
            y0=self.y0,
            y1=self.y0 + theta * h,
        )


def rect_pattern(depth: int) -> list[Rect]:
    """All rectangles of the depth-th construction stage (3^depth of them)."""
    if depth < 0:
        raise AddressError("depth must be nonnegative")
    level = [Rect("", Fraction(0), Fraction(1), Fraction(0), Fraction(1))]
    for _ in range(depth):
        level = [r.child(i) for r in level for i in range(3)]
    return level


def write_pattern_csv(path, depth: int) -> int:
    rects = rect_pattern(depth)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["word", "x0", "x1", "y0", "y1"])
        for r in rects:
            w.writerow(
                [r.word or "-", format_rat(r.x0), format_rat(r.x1),
                 format_rat(r.y0), format_rat(r.y1)]
            )
    return len(rects)


# ---------------------------------------------------------------------------
# endpoint-tree extension


def gehman_extend(depth: int):
    """Binary endpoint tree of the given depth with the cylinder-level map.

    The tree is the depth-m binary approximation of the all-order-3 dendrite;
    each leaf carries the length-m digit prefix of the address orbit of the
    all-ones point, and the map advances leaves cyclically along that orbit
    (the wrap at leaf 2^m - 1 is a truncation artifact).  Interior vertices
    map to their parents, so every interior vertex reaches the root fixed
    point within `depth` steps.  This is a cylinder-resolution model: leaf
    dynamics reproduce the base-odometer cylinder action, not the full
    endpoint homeomorphism.
    """
    from dendro.gallery import gehman_tree

    depth = int(depth)
    if depth < 2:
        raise AddressError("depth must be >= 2")
    D = gehman_tree(depth)
    leaves = [v for v in D.vertices if D.degree(v) == 1 and v != "g"]
    leaves.sort()
    n_leaves = len(leaves)
    labels = {}
    for j, leaf in enumerate(leaves):  # leaf j carries 1^inf + j
        alpha = add(Address.ones(), j)
        labels[leaf] = "".join(str(alpha.digit(i)) for i in range(depth))
    parent_of = {}
    for e in D.edges:
        parent_of[e.v] = e.u  # construction emits parent -> child edges
    leaf_index = {leaf: j for j, leaf in enumerate(leaves)}
    vertex_images = {"g": PointRef(vertex="g")}
    for v in D.vertices:
        if v == "g":
            continue
        if v in leaf_index:
            j = leaf_index[v]
            vertex_images[v] = PointRef(vertex=leaves[(j + 1) % n_leaves])
        else:
            vertex_images[v] = PointRef(vertex=parent_of[v])
    Fmap = TreeMap(D, D, vertex_images)
    D.descriptor = dict(D.descriptor or {})
    D.descriptor.update(
        {
            "family": "gehman",
            "params": {"depth": depth},
            "leaf_cylinders": labels,
        }
    )
    return D, Fmap
