"""Typed bilinear group contexts on top of the pairing engine.

A GroupContext bundles the two source groups, the target group, the
scalar field Z_p (p is the prime group order, not the field prime), the
pairing, and the two hash maps used by the scheme:

    hash_to_bits(data)   -> 32-byte digest (SHA-256)
    hash_to_scalar(data) -> big-endian digest value reduced mod p

Note the coupling: hash_to_scalar is exactly the reduction of
hash_to_bits.  Both profiles share this construction.

Security level.  Both profiles are the supersingular curve
y^2 = x^3 + x with embedding degree 2, so a discrete logarithm reduces to
one in F_q2 (Menezes, Okamoto and Vanstone, 1993).  SYMMETRIC_512's
1024-bit F_q2 gives at most about 80 bits.  ASYMMETRIC_159's 318-bit
F_q2 is far below the 595-bit F_p2 logarithm computed in 2015
(Barbulescu, Gaudry, Guillevic and Morain): it is a test and benchmark
profile that protects nothing.  Both are the same type-1 construction
with the distortion map; "asymmetric" names a tag discipline only.

Elements carry their group tag ("s1", "s2", "gt"); mixing groups in a
group operation or feeding the pairing arguments in the wrong order
raises GroupMismatchError rather than silently computing garbage.  In
the symmetric profile the two source groups coincide and everything is
tagged "s1".  Unreduced pairing values carry "miller" until final_exp
reduces them; they never serialize.

A key-side element made with GroupElement.fixed (g2, and every key
point in absc) keeps its Miller lines, computed by its first pairing;
pairings against it only evaluate them (pairing.fixed_miller).  Any
other element pairs through the full loop (pairing.tate_miller), which
walks it too: the s1 argument is always the evaluation point.  A fixed
element also keeps a window table, built by its first power and used by
every later one: g1, g2, absc's h and a publisher's key_sign are raised
that way.  GroupContext.pow_many raises several fixed bases as one
pairing.pt_mul_fixed batch, which shares its inversions, and ** on a
fixed base is a batch of one.  A fixed element that is never raised,
such as a device key, builds no table; any other base goes through
pairing.pt_mul.  GroupContext.scale_many multiplies points by short
ints, unreduced, as one pairing.pt_mul_many batch: absc scales
evaluation points by integer Lagrange coefficients that way.
GroupContext(profile) returns the process's one context for the
profile, so the generators' tables, g2's lines and the cached
e(g1, g2) are built once per process.

Serialized form (all big-endian, fixed width per profile):

    s1:  0x02 || x || y
    s2:  0x0a || x || y        of the distortion preimage
    gt:  0x04 || a || b        for a + b*i in F_q2

Points travel uncompressed, so decoding one takes an on-curve check
(y^2 = x^3 + x) and no square root.  Point files written with the
earlier compressed form (0x02/0x03 or 0x0a/0x0b by the parity of y,
then x) fail the length check.

Decoding has two paths.  deserialize_element is strict: wrong tag for
the requested group, out-of-range coordinates, an off-curve point,
wrong length, or an element outside the order-p subgroup are all
rejected.  deserialize_evaluation_point runs the same checks but the
subgroup one (a pt_mul by p, nearly all of a strict decode's cost) and
rejects y = 0.  It is sound only where the subgroup question is settled
another way: absc signs every ciphertext point but psi into pi, which
pairings only evaluate at (see the pairing module docstring), and psi,
which e(C, psi) walks, is refused by that walk unless p*psi = O
(pairing.tate_miller).  A device's key points (absc's
attribute_key_from_json and nodes.DeviceNode's key_ver) are decoded
the same way: each is fixed, and its first pairing builds its lines by
a walk that refuses it unless it has order p (pairing.miller_lines).
The strict path stays for the points that are raised or never walked:
the public parameters h and t (absc.public_params_from_json), a
publisher's key pair (absc.PublicParams.publisher_keys) and the
authority's g2^(alpha/beta) (absc.master_key_from_json).  Identity
elements never occur in honest protocol data and are not serializable.
"""

import functools
import hashlib
import random
from enum import Enum

from . import pairing as _pr


class CurveProfile(str, Enum):
    SYMMETRIC_512 = "SYMMETRIC_512"
    ASYMMETRIC_159 = "ASYMMETRIC_159"


class ConfigurationError(ValueError):
    """Unknown profile or unusable group configuration."""


class DecodeError(ValueError):
    """Malformed or non-canonical serialized value."""


class GroupMismatchError(TypeError):
    """Operation mixing elements of different groups or contexts."""


_SYSTEM_RNG = random.SystemRandom()

_TAGS = {"s1": 0x02, "s2": 0x0A}
_GT_TAG = 0x04
_FQ2_GROUPS = ("gt", "miller")


class Scalar:
    """An element of Z_p, always reduced mod p."""

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.value = value % modulus
        self.modulus = modulus

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise GroupMismatchError(f"expected Scalar, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise GroupMismatchError("scalars from different fields")

    def __add__(self, other):
        self._check(other)
        return Scalar(self.value + other.value, self.modulus)

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.value - other.value, self.modulus)

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.value * other.value, self.modulus)

    def __neg__(self):
        return Scalar(-self.value, self.modulus)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(pow(self.value, -1, self.modulus), self.modulus)

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.value == other.value
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"Scalar({self.value:#x})"

    def to_bytes(self, width):
        return self.value.to_bytes(width, "big")


class GroupElement:
    """A tagged group element (or "miller" value), multiplicative notation."""

    __slots__ = ("ctx", "group", "point", "lines", "table")

    def __init__(self, ctx, group, point):
        self.ctx = ctx
        self.group = group
        self.point = point
        self.lines = None  # Miller lines of a fixed pairing argument
        self.table = None  # window table of a fixed base for **

    def _check(self, other):
        if not isinstance(other, GroupElement):
            raise GroupMismatchError(f"expected GroupElement, got {type(other).__name__}")
        if other.ctx is not self.ctx or other.group != self.group:
            raise GroupMismatchError(
                f"cannot combine {self.group} and {other.group} elements")

    def __mul__(self, other):
        self._check(other)
        q = self.ctx.params.q
        if self.group in _FQ2_GROUPS:
            return GroupElement(self.ctx, self.group,
                                _pr.fq2_mul(self.point, other.point, q))
        return GroupElement(self.ctx, self.group, _pr.pt_add(self.point, other.point, q))

    def __pow__(self, k):
        if self.table is not None and self.group not in _FQ2_GROUPS:
            return self.ctx.pow_many([(self, k)])[0]
        k = self.ctx._exponent(k)
        q = self.ctx.params.q
        if self.group in _FQ2_GROUPS:
            return GroupElement(self.ctx, self.group, _pr.fq2_exp(self.point, k, q))
        return GroupElement(self.ctx, self.group, _pr.pt_mul(self.point, k, q))

    def inverse(self):
        q = self.ctx.params.q
        if self.group in _FQ2_GROUPS:
            # order-p subgroup elements have norm 1, so conjugation inverts
            # (a "miller" value: once reduced)
            return GroupElement(self.ctx, self.group, _pr.fq2_conj(self.point, q))
        return GroupElement(self.ctx, self.group, _pr.pt_neg(self.point, q))

    def fixed(self):
        """This element as a long-lived pairing argument or base, such as a key.

        Pairings against the returned copy walk its Miller lines once,
        on first use, and keep them on it (GroupContext.miller); its
        first power, by ** or GroupContext.pow_many, builds its window
        table (pairing.fixed_base_table) and keeps that too.
        """
        if self.lines is not None:
            return self
        el = GroupElement(self.ctx, self.group, self.point)
        el.lines, el.table = (), []  # not yet computed
        return el

    @property
    def is_identity(self):
        if self.group in _FQ2_GROUPS:
            return self.point == _pr.FQ2_ONE
        return self.point is None

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.ctx is other.ctx
                and self.group == other.group and self.point == other.point)

    def __hash__(self):
        return hash((self.ctx, self.group, self.point))

    def __repr__(self):
        if self.is_identity:
            return f"<{self.group} identity>"
        if self.group == "miller":
            return "<miller unreduced>"
        return f"<{self.group} {self.to_bytes().hex()[:16]}...>"

    def to_bytes(self):
        return self.ctx.serialize_element(self)


class GroupContext:
    """Bilinear group setting for one curve profile, one per process."""

    def __new__(cls, profile):
        try:
            return _CONTEXTS[CurveProfile(profile)]
        except ValueError:
            raise ConfigurationError(f"unsupported profile: {profile!r}") from None

    @classmethod
    def _build(cls, params):
        ctx = object.__new__(cls)
        ctx.profile = CurveProfile(params.name)
        ctx.params = params
        ctx.p = params.r
        ctx.symmetric = params.symmetric
        # group tag used for key-side ("second source") elements
        ctx.key_group = "s1" if ctx.symmetric else "s2"
        g2 = params.g1 if ctx.symmetric else params.g2pre
        ctx.g2 = GroupElement(ctx, ctx.key_group, g2).fixed()
        ctx.g1 = ctx.g2 if ctx.symmetric else GroupElement(ctx, "s1", params.g1).fixed()
        return ctx

    # -- scalars ------------------------------------------------------------

    def scalar(self, value):
        return Scalar(value, self.p)

    def random_scalar(self, rng=None, nonzero=True):
        rng = rng or _SYSTEM_RNG
        lo = 1 if nonzero else 0
        return Scalar(rng.randrange(lo, self.p), self.p)

    def _exponent(self, k):
        """k, an int or a Scalar of this field, reduced mod p."""
        if isinstance(k, Scalar):
            if k.modulus != self.p:
                raise GroupMismatchError("scalar from a different field")
            k = k.value
        elif not isinstance(k, int):
            raise GroupMismatchError(f"exponent must be int or Scalar, got {type(k).__name__}")
        return k % self.p

    # -- powers -------------------------------------------------------------

    def pow_many(self, pairs):
        """[base ** k for (base, k) in a list of pairs], for fixed point bases.

        Every power reads its base's window table, built by the base's
        first power, and all of them are one pairing.pt_mul_fixed batch,
        so the batch shares its inversions.  An identity base gives the
        identity.
        """
        jobs = []
        for base, k in pairs:
            self._want(base)
            if base.table is None or base.group in _FQ2_GROUPS:
                raise ValueError("pow_many takes fixed points as bases")
            k = self._exponent(k)
            if base.point is None:
                continue
            if not base.table:  # first power; a racing thread builds the same table
                base.table[:] = _pr.fixed_base_table(base.point, self.params)
            jobs.append((base.table, k))
        points = iter(_pr.pt_mul_fixed(jobs, self.params.q))
        return [GroupElement(self, base.group,
                             None if base.point is None else next(points))
                for base, _ in pairs]

    def scale_many(self, pairs):
        """[a ** k for (a, k) in a list of pairs], for source-group points
        a and nonzero ints k of either sign, as one pairing.pt_mul_many
        batch: one inversion for all.  k is not reduced mod p, so a short
        k costs a few doublings whatever a's order; a point scaled to the
        point at infinity comes back as the identity.
        """
        jobs = []
        for a, k in pairs:
            self._want(a)
            if a.group in _FQ2_GROUPS or not isinstance(k, int) or k == 0:
                raise ValueError("scale_many takes points and nonzero ints")
            if a.point is not None:
                jobs.append((a.point, k))
        points = iter(_pr.pt_mul_many(jobs, self.params.q))
        return [GroupElement(self, a.group, None if a.point is None else next(points))
                for a, _ in pairs]

    # -- hashing ------------------------------------------------------------

    def hash_to_bits(self, data):
        """SHA-256 digest of data, 32 bytes."""
        return hashlib.sha256(data).digest()

    def hash_to_scalar(self, data):
        """SHA-256 digest interpreted big-endian, reduced mod p."""
        return Scalar(int.from_bytes(hashlib.sha256(data).digest(), "big"), self.p)

    # -- pairing ------------------------------------------------------------

    def miller(self, *pairs):
        """Unreduced product of e(a, b) over (a, b) pairs, as a "miller" element.

        final_exp maps it to the product of the pairings, and it is a
        homomorphism, so products, powers and inverses of these values
        need one final exponentiation in all; e(a^-1, b) = e(a, b)^-1
        gives ratios.  Every pair walks b and only evaluates at a, so
        only b needs to be in the order-p subgroup: pairs whose b is
        fixed (GroupElement.fixed) share one loop over the b's stored
        lines, and any other pair runs tate_miller over b.  Both walks,
        tate_miller and the first use's miller_lines, raise ValueError
        unless b has order p; a b refused that way keeps no lines.  A
        pair whose a is the identity or has y = 0 is skipped: such an a
        lies in rE, where the reduced pairing is 1 (pairing module
        docstring, "Walked and evaluated points").
        """
        q = self.params.q
        f = _pr.FQ2_ONE
        fixed = []
        for a, b in pairs:
            self._want(a, "s1")
            self._want(b, self.key_group)
            if a.point is None or a.point[1] == 0 or b.point is None:
                continue
            if b.lines is None:  # walk b, evaluate at a, as the stored lines do
                f = _pr.fq2_mul(f, _pr.tate_miller(b.point, a.point, self.params), q)
                continue
            if not b.lines:  # first use; a racing thread builds the same table
                b.lines = _pr.miller_lines(b.point, self.params)
            fixed.append((b.lines, a.point))
        if fixed:
            f = _pr.fq2_mul(f, _pr.fixed_miller(fixed, self.params), q)
        return GroupElement(self, "miller", f)

    def final_exp(self, m):
        """Reduce a "miller" element into the target group."""
        self._want(m, "miller")
        return GroupElement(self, "gt", _pr.tate_final_exp(m.point, self.params))

    def pair(self, a, b):
        """e(a, b) into the target group; argument order is s1 then s2."""
        return self.final_exp(self.miller((a, b)))

    def pair_ratio(self, a1, b1, a2, b2):
        """e(a1, b1) / e(a2, b2) with one shared final exponentiation."""
        return self.final_exp(self.miller((a1, b1), (a2.inverse(), b2)))

    @functools.cache
    def pairing_of_generators(self):
        """e(g1, g2), computed once per process."""
        return self.pair(self.g1, self.g2)

    def _want(self, el, group=None):
        if not isinstance(el, GroupElement) or el.ctx is not self:
            raise GroupMismatchError("element from a different context")
        if group is not None and el.group != group:
            raise GroupMismatchError(f"expected {group} element, got {el.group}")

    # -- identities ---------------------------------------------------------

    def identity(self, group):
        if group in _FQ2_GROUPS:
            return GroupElement(self, group, _pr.FQ2_ONE)
        if group in ("s1", "s2"):
            return GroupElement(self, group, None)
        raise ConfigurationError(f"unknown group: {group!r}")

    # -- serialization ------------------------------------------------------

    def serialize_element(self, el):
        self._want(el)
        if el.is_identity or el.group == "miller":
            raise ValueError("identity and unreduced elements are not serializable")
        w = self.params.fq_bytes
        if el.group == "gt":
            a, b = el.point
            return bytes([_GT_TAG]) + a.to_bytes(w, "big") + b.to_bytes(w, "big")
        x, y = el.point
        return bytes([_TAGS[el.group]]) + x.to_bytes(w, "big") + y.to_bytes(w, "big")

    def deserialize_element(self, data, group):
        """Strict decode of one element of the requested group."""
        if group not in ("s1", "s2", "gt"):
            raise ConfigurationError(f"unknown group: {group!r}")
        if group == "s2" and self.symmetric:
            group = "s1"
        if not isinstance(data, (bytes, bytearray)):
            raise DecodeError("expected bytes")
        w = self.params.fq_bytes
        q = self.params.q
        if group == "gt":
            if len(data) != 1 + 2 * w or data[0] != _GT_TAG:
                raise DecodeError("bad target-group encoding")
            a = int.from_bytes(data[1:1 + w], "big")
            b = int.from_bytes(data[1 + w:], "big")
            if a >= q or b >= q:
                raise DecodeError("coordinate out of range")
            el = (a, b)
            if el == _pr.FQ2_ONE or _pr.fq2_exp(el, self.p, q) != _pr.FQ2_ONE:
                raise DecodeError("not in the target subgroup")
            return GroupElement(self, "gt", el)
        pt = self._curve_point(data, group)
        if _pr.pt_mul(pt, self.p, q) is not None:
            raise DecodeError("point outside the order-p subgroup")
        return GroupElement(self, group, pt)

    def deserialize_evaluation_point(self, data, group="s1"):
        """Decode of a point whose subgroup check falls to its pairing.

        deserialize_element's checks but the subgroup one (tag, length,
        range, on the curve), plus y != 0.  The reduced pairing cannot
        see a cofactor-order shift of a point it only evaluates at
        (pairing module docstring), so the caller must bind those bytes
        another way: absc signs them into pi.  A point that a pairing
        walks, as e(C, psi) walks psi and a key's first pairings walk
        its points, is refused by that walk unless it has order p.
        """
        if not isinstance(data, (bytes, bytearray)):
            raise DecodeError("expected bytes")
        if group == "s2" and self.symmetric:
            group = "s1"
        pt = self._curve_point(data, group)
        if pt[1] == 0:
            raise DecodeError("point of order two")
        return GroupElement(self, group, pt)

    def _curve_point(self, data, group):
        """Length, tag, range and on-curve checks of a point encoding."""
        w = self.params.fq_bytes
        q = self.params.q
        if len(data) != 1 + 2 * w:
            raise DecodeError("bad element length")
        if data[0] != _TAGS[group]:
            raise DecodeError(f"tag {data[0]:#04x} is not a {group} encoding")
        pt = int.from_bytes(data[1:1 + w], "big"), int.from_bytes(data[1 + w:], "big")
        if pt[0] >= q or pt[1] >= q:
            raise DecodeError("coordinate out of range")
        if not _pr.pt_is_on_curve(pt, q):
            raise DecodeError("point is not on the curve")
        return pt

    def __repr__(self):
        return f"GroupContext({self.profile.value})"


_CONTEXTS = {ctx.profile: ctx
             for ctx in map(GroupContext._build, (_pr.SYM512, _pr.ASYM159))}
