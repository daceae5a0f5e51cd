"""Ciphertext-policy attribute-based signcryption.

One signcryption carries two layers: a random 256-bit content key
encrypts the message with AES-256-CBC, and the content key itself is
masked under the access policy, so only attribute sets satisfying the
tree can strip the mask.  The signature layer binds the message, the
session randomness and the whole payload but pi and psi to the sender's
signing key.

Setup:    h = g1^beta, t = e(g1, g2)^alpha; master key
          (beta, g2^(alpha/beta)).
KeyGen:   d_enc = g2^((alpha + r_enc)/beta) = g2^(alpha/beta) *
          g2^(r_enc/beta), and per attribute j d_j = g2^(r_enc + H2(j) * r_j),
          d'_j = g2^(r_j).  Signing pair: key_sign = g2^(alpha/beta) *
          g2^(r_sign/beta), key_ver = g2^(r_sign).  Every power is of the
          fixed base g2, and each algorithm raises all of them in one
          batch (GroupContext.pow_many), so key generation runs no
          variable-base scalar multiplication.  Holding g2^(alpha/beta)
          in place of g2^alpha exposes nothing more: each alone unmasks
          any payload, as t^s = e(w, g2^alpha) = e(C, g2^(alpha/beta)).
SignCrypt: share s over the tree; C = h^s, per-leaf C_y = g1^(q_y(0)),
          C'_y = g1^(H2(attr) * q_y(0)); c_tilde = key_sym XOR
          H1(ser(t^s)); w = g1^s; delta = e(C, g2)^zeta, computed as
          e(h, g2)^(s * zeta) with e(h, g2) cached on the public
          parameters by the first signcrypt, so signcrypt pairs nothing;
          pi = H1(msg) + H2(ser(delta) || B); psi = g2^zeta * key_sign^pi.
          Every base signcrypt raises (g1, g2, h, key_sign) is fixed, so
          each power reads the base's window table (GroupElement.fixed),
          and C, w, g2^zeta and every leaf's pair are one batch;
          key_sign^pi, which needs pi, is a second.
DeSignCrypt: recover A = e(g1,g2)^(r_enc * s) from the leaf components,
          unmask via e(C, d_enc)/A = t^s, decrypt, then check
          delta' = e(C, psi) / (e(w, key_ver) * t^s)^pi against pi.
          A and t^s are built from unreduced Miller values (each leaf's
          ratio raised to its flattened Lagrange coefficient), so t^s
          takes one final exponentiation and delta' a second.  Every
          key-side point keeps its Miller lines (GroupElement.fixed), so
          only e(C, psi) runs a full Miller loop once a key is warm, and
          a leaf's two pairings share one loop over their lines.

Extension of the paper's scheme: B, in pi.  The paper signs
pi = H1(msg) + H2(ser(delta)), which binds only the message and the
session randomness, so anyone could swap a leaf component the reader
does not use, or shift any evaluated point by one of cofactor order,
and get a payload that still verifies.  Here B is the SHA-256 of the
payload bytes before pi (policy, c_tilde, C, the leaves, w, iv and
body), so every field but pi and psi is signed: the standard
whole-ciphertext binding (Canetti, Halevi & Katz, EUROCRYPT 2004).
DeSignCrypt recomputes B from the decoded fields.  Because of B,
payload_from_bytes decodes C, w and the leaf points, which pairings
only evaluate at, without a subgroup check
(GroupContext.deserialize_evaluation_point).  psi is decoded the same
way, in the key group: e(C, psi) walks it, and the walk raises unless
p*psi = O (pairing.tate_miller), which designcrypt turns into a
failure.  Payloads signed without B do not verify.

Wire form.  A payload is one binary string, its fields in a fixed
order: the policy text's length (4 bytes, big-endian) and the text,
c_tilde (32 bytes), C, w, each leaf's C_y and C'_y in tree.leaves()
order, iv (16 bytes), the body, pi (r_bytes, big-endian) and psi.
Points keep their to_bytes() encoding, tag byte included, and the body
is every byte between the iv and the fixed-width tail.  Decoding is
slicing: the shape step that relays and devices share checks field
lengths, the policy text (it must be policy_to_text of its own parse)
and takes the leaf count from the tree; devices then decode the
points.  Every field has one encoding, so bytes that decode are the
payload_bytes of what they decode to, by construction, and one signed
payload has one digest.

Keys.  A device's key points (d_enc, every d_j and d'_j, and a
publisher's key_ver) are decoded the same way, on the curve only
(attribute_key_from_json, nodes.DeviceNode).  Each is a fixed pairing
argument that designcrypt only walks: its first pairing builds its
Miller lines, and that walk raises unless the point has order p
(pairing.miller_lines), which designcrypt turns into a failure before
any value built from the point is used.  So a device decodes every
point, its key's included, with one on-curve check and no pt_mul.  A
corrupt key file therefore loads and fails at first use.  The points
that are raised or never walked stay strict: h, t, key_sign and the
master key's g2^(alpha/beta), which master_key_from_json also checks
against h and t.

All hash-derived scalars are SHA-256 digests reduced mod p; the mask on
the content key is the raw 32-byte digest.  Failure is a value: every
decryption/verification problem surfaces as None, never as a partially
recovered message.
"""

from dataclasses import dataclass, field, replace

from cryptography.hazmat.primitives import padding as _padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .groups import DecodeError, GroupContext, Scalar, _SYSTEM_RNG
from .policy import (AccessTree, lagrange_coeff, normalize_attribute,
                     parse_policy, policy_to_text, satisfies, share_secret)

KEY_BYTES = 32
IV_BYTES = 16


def _rand_bytes(rng, n):
    return rng.getrandbits(8 * n).to_bytes(n, "big")


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def hex_bytes(text, width=None):
    """Decode canonical (lowercase, even-length) hex; DecodeError otherwise.

    bytes.fromhex also takes upper case and whitespace between bytes, so
    the text is canonical only if the bytes' .hex() gives it back.
    """
    try:
        data = bytes.fromhex(text)
    except (TypeError, ValueError):
        raise DecodeError("expected lowercase hex") from None
    if data.hex() != text:
        raise DecodeError("expected lowercase hex")
    if width is not None and len(data) != width:
        raise DecodeError(f"expected {width} hex-encoded bytes")
    return data


def json_object(obj, keys, what):
    """obj, if it is a JSON object whose every key in keys has the given
    type; DecodeError naming what and the key otherwise."""
    if not isinstance(obj, dict):
        raise DecodeError(f"{what} is not an object")
    for key, kind in keys.items():
        if not isinstance(obj.get(key), kind):
            raise DecodeError(f"{what}: {key} missing or not a {kind.__name__}")
    return obj


@dataclass(frozen=True)
class PublicParams:
    ctx: GroupContext
    h: object  # g1^beta, a fixed base (GroupElement.fixed)
    t: object  # e(g1, g2)^alpha
    _h_g2: object = field(default=None, init=False, repr=False, compare=False)
    _publisher: tuple = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        object.__setattr__(self, "h", self.h.fixed())

    def h_g2(self):
        """e(h, g2), computed by the first signcrypt and kept."""
        if self._h_g2 is None:
            object.__setattr__(self, "_h_g2", self.ctx.pair(self.h, self.ctx.g2))
        return self._h_g2

    def publisher_keys(self, key_sign_hex, key_ver_hex):
        """(SigningKey, VerificationKey) from a publisher's key hex.

        Strict-decoded on first use (DecodeError on anything but canonical
        hex of two key-group points); the last decoded pair is kept, with
        the window table the signing key builds, until another pair comes.
        """
        pair = (key_sign_hex, key_ver_hex)
        if self._publisher is None or self._publisher[0] != pair:
            decode = self.ctx.deserialize_element
            keys = (SigningKey(decode(hex_bytes(key_sign_hex), "s2")),
                    VerificationKey(decode(hex_bytes(key_ver_hex), "s2")))
            object.__setattr__(self, "_publisher", (pair, keys))
        return self._publisher[1]


@dataclass(frozen=True)
class MasterKey:
    beta: Scalar
    g2_alpha_over_beta: object  # g2^(alpha/beta)


@dataclass(frozen=True)
class AttributeKey:
    """Decryption key for one attribute set; comps maps attr -> (d_j, d'_j).

    Its points are fixed pairing arguments (GroupElement.fixed): each
    keeps the Miller lines of its first pairing for the life of the key.
    """
    d_enc: object
    attributes: frozenset
    comps: dict

    def __post_init__(self):
        object.__setattr__(self, "d_enc", self.d_enc.fixed())
        object.__setattr__(self, "comps", {a: (d.fixed(), dp.fixed())
                                           for a, (d, dp) in self.comps.items()})


@dataclass(frozen=True)
class SigningKey:
    key_sign: object  # a fixed base: signcrypt raises it to pi

    def __post_init__(self):
        object.__setattr__(self, "key_sign", self.key_sign.fixed())


@dataclass(frozen=True)
class VerificationKey:
    key_ver: object  # a fixed pairing argument, like AttributeKey's points

    def __post_init__(self):
        object.__setattr__(self, "key_ver", self.key_ver.fixed())


@dataclass(frozen=True)
class SignedCiphertext:
    tree: AccessTree
    c_tilde: bytes          # masked content key
    c: object               # h^s
    leaf_c: dict            # leaf arena index -> (C_y, C'_y)
    w: object               # g1^s
    pi: Scalar
    psi: object


@dataclass(frozen=True)
class MessageCiphertext:
    iv: bytes
    body: bytes


# ---------------------------------------------------------------------------
# symmetric layer

def sym_encrypt(key, msg, rng=None):
    """AES-256-CBC with PKCS#7 padding and a fresh random IV."""
    if len(key) != KEY_BYTES:
        raise ValueError("content key must be 32 bytes")
    rng = rng or _SYSTEM_RNG
    iv = _rand_bytes(rng, IV_BYTES)
    padder = _padding.PKCS7(128).padder()
    data = padder.update(msg) + padder.finalize()
    enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return MessageCiphertext(iv, enc.update(data) + enc.finalize())


def sym_decrypt(key, ct):
    """Inverse of sym_encrypt; None on any malformed input or bad padding."""
    if len(key) != KEY_BYTES or len(ct.iv) != IV_BYTES:
        return None
    if not ct.body or len(ct.body) % 16:
        return None
    dec = Cipher(algorithms.AES(key), modes.CBC(ct.iv)).decryptor()
    data = dec.update(ct.body) + dec.finalize()
    unpadder = _padding.PKCS7(128).unpadder()
    try:
        return unpadder.update(data) + unpadder.finalize()
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# the four scheme algorithms

def setup(profile_or_ctx, rng=None):
    """Generate public parameters and the master key."""
    ctx = (profile_or_ctx if isinstance(profile_or_ctx, GroupContext)
           else GroupContext(profile_or_ctx))
    rng = rng or _SYSTEM_RNG
    alpha = ctx.random_scalar(rng)
    beta = ctx.random_scalar(rng)
    h, g2_alpha_over_beta = ctx.pow_many([(ctx.g1, beta),
                                         (ctx.g2, alpha * beta.inverse())])
    t = ctx.pairing_of_generators() ** alpha
    return PublicParams(ctx, h, t), MasterKey(beta, g2_alpha_over_beta)


def _attr_hash(ctx, attr):
    return ctx.hash_to_scalar(attr.encode("utf-8"))


def keygen(pp, mk, attributes, rng=None):
    """Issue a decryption key for a non-empty attribute set."""
    ctx = pp.ctx
    rng = rng or _SYSTEM_RNG
    attrs = frozenset(normalize_attribute(a) for a in attributes)
    if not attrs:
        raise ValueError("attribute set must be non-empty")
    r_enc = ctx.random_scalar(rng)
    order = sorted(attrs)
    jobs = [(ctx.g2, r_enc * mk.beta.inverse())]
    for attr in order:
        r_j = ctx.random_scalar(rng)
        jobs += [(ctx.g2, r_enc + _attr_hash(ctx, attr) * r_j), (ctx.g2, r_j)]
    g2_renc_beta, *powers = ctx.pow_many(jobs)
    comps = dict(zip(order, zip(powers[::2], powers[1::2])))
    return AttributeKey(mk.g2_alpha_over_beta * g2_renc_beta, attrs, comps)


def signing_keygen(pp, mk, rng=None):
    """Issue a signing/verification pair (no attributes involved)."""
    ctx = pp.ctx
    rng = rng or _SYSTEM_RNG
    r_sign = ctx.random_scalar(rng)
    key_ver, g2_r_beta = ctx.pow_many([(ctx.g2, r_sign),
                                      (ctx.g2, r_sign * mk.beta.inverse())])
    return (SigningKey(mk.g2_alpha_over_beta * g2_r_beta),
            VerificationKey(key_ver))


def signcrypt(pp, signing_key, msg, tree, rng=None, transcript=None):
    """Encrypt msg under the tree and sign; returns (SignedCiphertext, MessageCiphertext)."""
    ctx = pp.ctx
    rng = rng or _SYSTEM_RNG
    if not isinstance(msg, (bytes, bytearray)) or len(msg) == 0:
        raise ValueError("message must be non-empty bytes")
    msg = bytes(msg)
    if isinstance(tree, str):
        tree = parse_policy(tree)

    key_sym = _rand_bytes(rng, KEY_BYTES)
    ct_msg = sym_encrypt(key_sym, msg, rng)

    s = ctx.random_scalar(rng)
    shares = share_secret(tree, s, rng)
    zeta = ctx.random_scalar(rng)
    t_s = pp.t ** s
    c_tilde = _xor(key_sym, ctx.hash_to_bits(t_s.to_bytes()))
    g1 = ctx.g1
    leaves = tree.leaves()
    jobs = [(pp.h, s), (g1, s), (ctx.g2, zeta)]
    for idx in leaves:
        q0 = shares[idx]
        jobs += [(g1, q0), (g1, _attr_hash(ctx, tree.nodes[idx].attribute) * q0)]
    c, w, g2_zeta, *powers = ctx.pow_many(jobs)
    leaf_c = dict(zip(leaves, zip(powers[::2], powers[1::2])))

    st = SignedCiphertext(tree, c_tilde, c, leaf_c, w, None, None)
    delta = pp.h_g2() ** (s * zeta)  # = e(C, g2)^zeta
    pi = _pi(ctx, msg, delta, st, ct_msg)
    psi = g2_zeta * (signing_key.key_sign ** pi)
    st = replace(st, pi=pi, psi=psi)
    if transcript is not None:
        transcript.update(s=s, zeta=zeta, delta=delta, t_s=t_s,
                          key_sym=key_sym, shares=shares)
    return st, ct_msg


def _decrypt_core(pp, st, key, node):
    """The decryption tree at a node, unreduced: a "miller" element, or None
    if the key's attributes do not satisfy the subtree rooted there.

    Each chosen leaf contributes m(C_y, d_j) / m(C'_y, d'_j) raised to
    its flattened coefficient, the product of the Lagrange coefficients
    on its path, so the tree needs no final exponentiation of its own.
    """
    ctx = pp.ctx
    tree = st.tree
    sat = satisfies(tree, key.attributes, root=node)
    if not sat.satisfied:
        return None

    def core(idx, coeff):
        n = tree.nodes[idx]
        if n.is_leaf:
            c_y, c_y_prime = st.leaf_c[idx]
            d_j, d_j_prime = key.comps[n.attribute]
            ratio = ctx.miller((c_y, d_j), (c_y_prime.inverse(), d_j_prime))
            return ratio ** coeff
        positions = sat.chosen[idx]
        acc = ctx.identity("miller")
        for pos in positions:
            acc = acc * core(n.children[pos - 1],
                             coeff * lagrange_coeff(pos, positions, 0, ctx.p))
        return acc

    return core(node, ctx.scalar(1))


def _failed(transcript, reason):
    if transcript is not None:
        transcript["reason"] = reason


def designcrypt(pp, st, ct_msg, key, verification_key, transcript=None):
    """Recover and verify the message; None on any failure.

    Two final exponentiations in all: one for t^s, one for delta'.
    Every pairing walks its key-side point, and the walk raises unless
    the point has order p (GroupContext.miller): a key point's first
    walk, which builds its lines, fails as key-not-in-subgroup, before
    the message is decrypted, and psi's as psi-not-in-subgroup.
    """
    ctx = pp.ctx
    try:
        a = _decrypt_core(pp, st, key, st.tree.root)
        if a is None:
            return _failed(transcript, "unsatisfied")
        t_core = ctx.miller((st.c, key.d_enc)) * a.inverse()
        w_ver = ctx.miller((st.w, verification_key.key_ver))
    except ValueError:
        return _failed(transcript, "key-not-in-subgroup")
    t_s = ctx.final_exp(t_core)
    key_sym = _xor(st.c_tilde, ctx.hash_to_bits(t_s.to_bytes()))
    msg = sym_decrypt(key_sym, ct_msg)
    if transcript is not None:
        transcript.update(t_s=t_s, key_sym=key_sym)
    if msg is None:
        return _failed(transcript, "decrypt-failed")
    try:
        c_psi = ctx.miller((st.c, st.psi))
    except ValueError:
        return _failed(transcript, "psi-not-in-subgroup")
    denom = (w_ver * t_core) ** st.pi
    delta_prime = ctx.final_exp(c_psi * denom.inverse())
    if transcript is not None:
        transcript["delta_prime"] = delta_prime
    if _pi(ctx, msg, delta_prime, st, ct_msg) != st.pi:
        return _failed(transcript, "verify-failed")
    return msg


# ---------------------------------------------------------------------------
# wire form: one binary payload (module docstring, "Wire form")

POLICY_LEN_BYTES = 4


def _signed_bytes(st, ct_msg):
    """The payload up to pi: every field that B signs."""
    text = policy_to_text(st.tree).encode("utf-8")
    parts = [len(text).to_bytes(POLICY_LEN_BYTES, "big"), text, st.c_tilde,
             st.c.to_bytes(), st.w.to_bytes()]
    for idx in st.tree.leaves():
        parts += [point.to_bytes() for point in st.leaf_c[idx]]
    parts += [ct_msg.iv, ct_msg.body]
    return b"".join(parts)


def _pi(ctx, msg, delta, st, ct_msg):
    """pi = H1(msg) + H2(ser(delta) || B), B the SHA-256 of the payload up to pi."""
    b = ctx.hash_to_bits(_signed_bytes(st, ct_msg))
    return ctx.hash_to_scalar(msg) + ctx.hash_to_scalar(delta.to_bytes() + b)


def payload_bytes(st, ct_msg):
    """The bytes of one signcrypted payload; input to the ledger digest."""
    return (_signed_bytes(st, ct_msg) + st.pi.to_bytes(st.psi.ctx.params.r_bytes)
            + st.psi.to_bytes())


def _payload_shape(ctx, data):
    """Shape step shared by relays and devices: field lengths, policy
    text and leaf count, no curve math; the point fields stay bytes.

    Every field has one encoding (fixed widths, pi below p, the policy's
    own canonical text, the body between a fixed-width head and tail), so
    bytes that pass are the payload_bytes of what they decode to, and one
    signed payload has one digest.
    """
    width = 1 + 2 * ctx.params.fq_bytes
    r_bytes = ctx.params.r_bytes
    head = POLICY_LEN_BYTES + int.from_bytes(data[:POLICY_LEN_BYTES], "big")
    if len(data) < head:
        raise DecodeError("policy length exceeds the payload")
    try:
        text = data[POLICY_LEN_BYTES:head].decode("utf-8")
        tree = parse_policy(text)
    except ValueError as exc:
        raise DecodeError(f"bad policy: {exc}") from None
    if policy_to_text(tree) != text:
        raise DecodeError("policy text is not in canonical form")
    leaves = tree.leaves()
    sizes = [KEY_BYTES, width, width] + [width] * (2 * len(leaves)) + [IV_BYTES]
    body_len = len(data) - head - sum(sizes) - r_bytes - width
    if body_len <= 0 or body_len % 16:
        raise DecodeError("body must be a positive multiple of the block size")
    fields, pos = [], head
    for size in sizes + [body_len, r_bytes, width]:
        fields.append(data[pos:pos + size])
        pos += size
    c_tilde, c, w, *points, iv, body, pi_raw, psi = fields
    pi = int.from_bytes(pi_raw, "big")
    if pi >= ctx.p:
        raise DecodeError("pi out of range")
    leaf_c = dict(zip(leaves, zip(points[::2], points[1::2])))
    return (SignedCiphertext(tree, c_tilde, c, leaf_c, w, Scalar(pi, ctx.p), psi),
            MessageCiphertext(iv, body))


def payload_from_bytes(ctx, data):
    """Full decode, the devices' decoder: the shape step, then every point
    on the curve only.  C, w and the leaf points are signed into pi and
    only evaluated at; designcrypt's walk of psi checks its subgroup."""
    st, ct_msg = _payload_shape(ctx, data)
    pt = ctx.deserialize_evaluation_point
    return replace(st, c=pt(st.c), w=pt(st.w), psi=pt(st.psi, "s2"),
                   leaf_c={idx: (pt(a), pt(b))
                           for idx, (a, b) in st.leaf_c.items()}), ct_msg


def check_payload_shape(ctx, data):
    """The shape step of payload_from_bytes alone, for relays."""
    _payload_shape(ctx, data)


# ---------------------------------------------------------------------------
# key (de)serialization for handoff files

def attribute_key_to_json(key):
    return {
        "d_enc": key.d_enc.to_bytes().hex(),
        "comps": {a: [d.to_bytes().hex(), dp.to_bytes().hex()]
                  for a, (d, dp) in sorted(key.comps.items())},
    }


def attribute_key_from_json(ctx, obj):
    """Decode a key's points on the curve only; the first pairing against
    each walks it and refuses it unless it has order p (module docstring)."""
    pt = ctx.deserialize_evaluation_point
    try:
        d_enc = pt(hex_bytes(obj["d_enc"]), "s2")
        raw = obj["comps"]
        if not isinstance(raw, dict) or not raw:
            raise DecodeError("attribute key comps must be a non-empty object")
        comps = {attr: (pt(hex_bytes(d_hex), "s2"), pt(hex_bytes(dp_hex), "s2"))
                 for attr, (d_hex, dp_hex) in raw.items()}
        return AttributeKey(d_enc, frozenset(comps), comps)
    except DecodeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed attribute key: {exc}") from None


def public_params_to_json(pp):
    return {"profile": pp.ctx.profile.value,
            "h": pp.h.to_bytes().hex(),
            "t": pp.t.to_bytes().hex()}


def public_params_from_json(obj):
    try:
        ctx = GroupContext(obj["profile"])
        return PublicParams(ctx,
                            ctx.deserialize_element(hex_bytes(obj["h"]), "s1"),
                            ctx.deserialize_element(hex_bytes(obj["t"]), "gt"))
    except DecodeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"malformed public parameters: {exc}") from None


def master_key_to_json(pp, mk):
    return {"beta": mk.beta.to_bytes(pp.ctx.params.r_bytes).hex(),
            "g2_alpha_over_beta": mk.g2_alpha_over_beta.to_bytes().hex()}


def master_key_from_json(pp, obj):
    """Decode a master key; DecodeError unless it is pp's: 1 <= beta < p,
    g1^beta = h and e(h, g2^(alpha/beta)) = t."""
    ctx = pp.ctx
    try:
        beta = int.from_bytes(hex_bytes(obj["beta"], ctx.params.r_bytes), "big")
        point = ctx.deserialize_element(hex_bytes(obj["g2_alpha_over_beta"]), "s2")
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed master key: {exc}") from None
    if not 0 < beta < ctx.p:
        raise DecodeError("beta out of range")
    mk = MasterKey(ctx.scalar(beta), point)
    if ctx.g1 ** mk.beta != pp.h or ctx.pair(pp.h, point) != pp.t:
        raise DecodeError("master key does not match the public parameters")
    return mk
