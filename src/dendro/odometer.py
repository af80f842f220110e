"""Skew product over the 3-adic adding machine, with exact fiber geometry.

The base space is the set of digit sequences over {0,1,2} with addition mod 3
carrying from position 0 upward.  Only addresses with finitely many digits
different from 1 are represented; these are exactly the addresses whose
vertical fiber is nondegenerate, and they form a single orbit of the +1 map.

An address alpha embeds horizontally at x = sum 2*alpha_i / 5^(i+1); its
fiber is the vertical segment of height 3^(-ell(alpha)) where ell counts the
non-1 digits.  The skew map sends (x_alpha, y) to (x_{alpha+1}, y rescaled
linearly onto the new fiber), a homeomorphism.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from dendro.metric_tree import PointRef
from dendro.serialize import format_rat
from dendro.tree_map import TreeMap


class AddressError(ValueError):
    pass


@dataclass(frozen=True)
class Address:
    """3-adic address with finitely many digits different from 1.

    ``digits`` maps position -> digit for the non-1 digits only (canonical).
    """

    digits: tuple = ()  # sorted tuple of (position, digit) with digit != 1

    def __post_init__(self):
        seen = set()
        for pos, d in self.digits:
            if d not in (0, 2):
                raise AddressError("stored digits must be 0 or 2")
            if pos < 0 or pos in seen:
                raise AddressError("bad digit positions")
            seen.add(pos)
        if tuple(sorted(self.digits)) != self.digits:
            raise AddressError("digits must be sorted by position")

    @classmethod
    def _trusted(cls, digits: tuple) -> "Address":
        """Address from digits that are already canonical; skips validation."""
        alpha = object.__new__(cls)
        object.__setattr__(alpha, "digits", digits)
        return alpha

    def digit(self, pos: int) -> int:
        for p, d in self.digits:
            if p == pos:
                return d
        return 1

    @staticmethod
    def ones() -> "Address":
        return Address(())

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
        if not self.digits:
            return "1^inf"
        top = max(p for p, _ in self.digits)
        body = "".join(str(self.digit(i)) for i in range(top + 1))
        return body + "1^inf"

    def __str__(self):
        return self.literal()


def ell(alpha: Address) -> int:
    """Count of digits different from 1 (drives the fiber height)."""
    return len(alpha.digits)


@cache
def _zero_head(k: int) -> tuple:
    """Canonical digits of the prefix 0^k, which a carry through k 2s leaves."""
    return tuple((i, 0) for i in range(k))


def add(alpha: Address, n: int) -> Address:
    """alpha + n under 3-adic addition with carry upward; n may be negative."""
    if n == 0:
        return alpha
    if n == 1:
        # the carry runs through the leading 2s (each becomes 0) and stops at
        # the first other digit: a 0 becomes 1 (dropped), a 1 becomes 2
        digits = alpha.digits
        k = 0
        for pos, d in digits:
            if pos != k or d != 2:
                break
            k += 1
        head = _zero_head(k)
        if k < len(digits) and digits[k] == (k, 0):
            return Address._trusted(head + digits[k + 1:])
        return Address._trusted(head + ((k, 2),) + digits[k:])
    # one signed carry: it ends because only finitely many digits differ
    # from 1, and past them a carry of c becomes floor((1 + c) / 3)
    out = dict(alpha.digits)
    pos, carry = 0, n
    while carry:
        s = out.get(pos, 1) + carry
        digit, carry = s % 3, s // 3
        if digit == 1:
            out.pop(pos, None)
        else:
            out[pos] = digit
        pos += 1
    return Address._trusted(tuple(sorted(out.items())))


def embed_x(alpha: Address) -> Fraction:
    """Horizontal coordinate sum 2*digit_i / 5^(i+1), in closed form.

    The all-ones tail sums to 1/2 and each stored digit d at position i moves
    it by 2*(d-1)/5^(i+1).  Over the common denominator 2*5^(top+1), top the
    highest stored position, the numerator is 5^(top+1) + 4*num with
    num = sum (d-1)*5^(top-i), accumulated by Horner's rule.
    """
    num = 0
    top = 0
    for pos, d in alpha.digits:
        num = num * 5 ** (pos - top) + d - 1
        top = pos
    scale = 5 ** (top + 1)
    return Fraction(scale + 4 * num, 2 * scale)


def fiber_height(alpha: Address) -> Fraction:
    return Fraction(1, 3 ** ell(alpha))


@dataclass(frozen=True)
class FiberPoint:
    alpha: Address
    y: Fraction

    def __post_init__(self):
        if not (0 <= self.y <= fiber_height(self.alpha)):
            raise AddressError("vertical coordinate outside the fiber")

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
    out = []
    cur = alpha
    for _ in range(N + 1):
        out.append(fiber_height(cur))
        cur = add(cur, 1)
    return out


def write_traj_csv(path, alpha: Address, N: int) -> int:
    """CSV rows (n, ell, diam); returns the number of data rows."""
    if N < 0:
        raise ValueError(f"step count must be >= 0, got {N}")
    cur = alpha
    rows = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "ell", "diam"])
        for n in range(N + 1):
            w.writerow([n, ell(cur), format_rat(fiber_height(cur))])
            rows += 1
            cur = add(cur, 1)
    return rows


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


@dataclass(frozen=True)
class EpsScrambledResult:
    size: int
    analytic_bound: int
    epsilon: Fraction
    grid: int


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


@dataclass(frozen=True)
class Rect:
    word: str  # base-3 word, most significant first in construction order
    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

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
    cur = Address.ones()
    for j, leaf in enumerate(leaves):
        prefix = "".join(str(cur.digit(i)) for i in range(depth))
        labels[leaf] = prefix
        cur = add(cur, 1)
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
            "leaf_cylinders": {leaf: labels[leaf] for leaf in leaves},
        }
    )
    return D, Fmap
