"""Signcryption scheme: algebraic identities, round trips, wire form."""

import dataclasses
import hashlib
import random
import time

import pytest

import oracles
from policycast import absc, pairing
from policycast.groups import DecodeError, GroupContext, GroupElement
from policycast.nodes import DeviceNode, ManualClock
from policycast.policy import lagrange_coeff, parse_policy, satisfies


def attr_hash(ctx, attr):
    return ctx.hash_to_scalar(attr.encode("utf-8"))


def enc_randomness_pairing(ctx, key, attr):
    """e(g1, g2)^(r_enc) recovered from one attribute component pair."""
    d_j, d_j_prime = key.comps[attr]
    return ctx.pair_ratio(ctx.g1, d_j, ctx.g1,
                          d_j_prime ** attr_hash(ctx, attr))


# ---------------------------------------------------------------------------
# setup / keygen identities

def test_setup_identities(scheme):
    pp, mk = scheme
    ctx = pp.ctx
    t0 = ctx.pairing_of_generators()
    # t = e(g1, g2)^alpha = e(h, g2^(alpha/beta)) and h = g1^beta
    assert ctx.pair(ctx.g1, mk.g2_alpha_over_beta ** mk.beta) == pp.t
    assert ctx.pair(pp.h, mk.g2_alpha_over_beta) == pp.t
    assert ctx.pair(pp.h, ctx.g2) == t0 ** mk.beta


def test_setup_deterministic_under_seed():
    a1 = absc.setup("ASYMMETRIC_159", random.Random(42))
    a2 = absc.setup("ASYMMETRIC_159", random.Random(42))
    assert a1[0].h.to_bytes() == a2[0].h.to_bytes()
    assert a1[0].t.to_bytes() == a2[0].t.to_bytes()
    assert a1[1].beta == a2[1].beta


def test_keygen_component_identities(scheme):
    # every attribute pair must encode the same r_enc, and d_enc must tie
    # it to the master secret: e(h, d_enc) = t * e(g1, g2)^(r_enc)
    pp, mk = scheme
    ctx = pp.ctx
    rng = random.Random(61)
    key = absc.keygen(pp, mk, ["lock", "cam", "hub"], rng)
    values = {a: enc_randomness_pairing(ctx, key, a) for a in key.attributes}
    assert len(set(v.to_bytes() for v in values.values())) == 1
    e_renc = next(iter(values.values()))
    assert ctx.pair(pp.h, key.d_enc) == pp.t * e_renc


def test_keygen_normalizes_and_validates(scheme_asym):
    pp, mk = scheme_asym
    key = absc.keygen(pp, mk, ["  lock ", "lock", "cam"], random.Random(3))
    assert key.attributes == frozenset({"lock", "cam"})
    with pytest.raises(ValueError):
        absc.keygen(pp, mk, [], random.Random(3))
    with pytest.raises(ValueError):
        absc.keygen(pp, mk, ["and"], random.Random(3))


def test_keygen_randomness_is_fresh(scheme_asym):
    pp, mk = scheme_asym
    k1 = absc.keygen(pp, mk, ["a"], random.Random(1))
    k2 = absc.keygen(pp, mk, ["a"], random.Random(2))
    assert k1.d_enc != k2.d_enc
    assert k1.comps["a"] != k2.comps["a"]


def test_signing_pair_identity(scheme):
    # e(h, key_sign) = t * e(g1, key_ver)
    pp, mk = scheme
    ctx = pp.ctx
    sk, vk = absc.signing_keygen(pp, mk, random.Random(67))
    assert ctx.pair(pp.h, sk.key_sign) == pp.t * ctx.pair(ctx.g1, vk.key_ver)


# ---------------------------------------------------------------------------
# symmetric layer

def test_sym_round_trip_sizes():
    rng = random.Random(71)
    key = bytes(range(32))
    for size in (1, 15, 16, 17, 31, 1000):
        msg = bytes(rng.getrandbits(8) for _ in range(size))
        ct = absc.sym_encrypt(key, msg, rng)
        assert len(ct.body) % 16 == 0
        assert absc.sym_decrypt(key, ct) == msg


def test_sym_wrong_key_never_recovers():
    rng = random.Random(73)
    msg = b"the quick brown fox jumps over the lazy dog"
    key = bytes(32)
    ct = absc.sym_encrypt(key, msg, rng)
    rejected = 0
    for i in range(100):
        wrong = (i + 1).to_bytes(32, "big")
        out = absc.sym_decrypt(wrong, ct)
        assert out != msg
        rejected += out is None
    # bad padding must dominate; garbage passthrough is the rare case
    assert rejected > 50


class _FixedIvRng:
    def __init__(self, iv):
        self.iv = iv

    def getrandbits(self, bits):
        assert bits == 8 * len(self.iv)
        return int.from_bytes(self.iv, "big")


def test_sym_encrypt_matches_published_cbc_vector():
    # AES-256-CBC vector (SP 800-38A F.2.5): the first block of our
    # PKCS#7-padded ciphertext must equal the no-padding reference block
    key = bytes.fromhex("603deb1015ca71be2b73aef0857d7781"
                        "1f352c073b6108d72d9810a30914dff4")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    ct = absc.sym_encrypt(key, pt, _FixedIvRng(iv))
    assert ct.iv == iv
    assert ct.body[:16].hex() == "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
    assert len(ct.body) == 32  # full block of padding appended


def test_sym_encrypt_rejects_short_key():
    with pytest.raises(ValueError):
        absc.sym_encrypt(b"short", b"x", random.Random(1))


# ---------------------------------------------------------------------------
# signcrypt / designcrypt

def test_round_trip_both_profiles(scheme):
    pp, mk = scheme
    rng = random.Random(79)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha", "beta"], rng)
    msg = b"rotate credentials now"
    st, ct = absc.signcrypt(pp, sk, msg, "alpha and beta", rng)
    assert absc.designcrypt(pp, st, ct, key, vk) == msg
    other = absc.keygen(pp, mk, ["alpha", "gamma"], rng)
    assert absc.designcrypt(pp, st, ct, other, vk) is None


def test_signcrypt_input_validation(scheme_asym):
    pp, mk = scheme_asym
    rng = random.Random(83)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    with pytest.raises(ValueError):
        absc.signcrypt(pp, sk, b"", "alpha", rng)
    with pytest.raises(ValueError):
        absc.signcrypt(pp, sk, "text not bytes", "alpha", rng)
    with pytest.raises(ValueError):
        absc.signcrypt(pp, sk, b"x", "alpha and", rng)


def test_decrypt_node_single_leaf(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(89)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha"], rng)
    transcript = {}
    st, _ = absc.signcrypt(pp, sk, b"m", "alpha", rng, transcript)
    got = oracles.decrypt_node(pp, st, key)
    e_renc = enc_randomness_pairing(ctx, key, "alpha")
    assert got == e_renc ** transcript["s"]


def test_decrypt_node_interior_gate(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(97)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha", "beta", "gamma"], rng)
    transcript = {}
    st, _ = absc.signcrypt(pp, sk, b"m", "(alpha, beta, gamma)@2", rng,
                           transcript)
    e_renc = enc_randomness_pairing(ctx, key, "alpha")
    assert oracles.decrypt_node(pp, st, key) == e_renc ** transcript["s"]
    # a partial key fails the gate
    partial = absc.keygen(pp, mk, ["alpha"], rng)
    assert oracles.decrypt_node(pp, st, partial) is None


def test_honest_transcripts_agree(scheme):
    pp, mk = scheme
    rng = random.Random(101)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha", "beta"], rng)
    enc_t, dec_t = {}, {}
    st, ct = absc.signcrypt(pp, sk, b"payload", "alpha and beta", rng, enc_t)
    assert absc.designcrypt(pp, st, ct, key, vk, dec_t) == b"payload"
    assert dec_t["t_s"] == enc_t["t_s"]
    assert dec_t["key_sym"] == enc_t["key_sym"]
    assert dec_t["delta_prime"] == enc_t["delta"]
    assert "reason" not in dec_t


def plain(el):
    """el without stored Miller lines: pairings against it run tate_miller."""
    return GroupElement(el.ctx, el.group, el.point)


def test_designcrypt_matches_reduced_reference(scheme):
    # designcrypt reduces once for t^s and once for delta'; the reference
    # reduces every pairing and Lagrange-combines in the target group
    pp, mk = scheme
    ctx = pp.ctx
    rng = random.Random(113)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["a", "b", "c", "d"], rng)
    enc_t, dec_t = {}, {}
    st, ct = absc.signcrypt(pp, sk, b"payload", "(a, (b, c, e)@2, d)@2", rng, enc_t)
    assert absc.designcrypt(pp, st, ct, key, vk, dec_t) == b"payload"
    sat = satisfies(st.tree, key.attributes)

    def value(idx):
        n = st.tree.nodes[idx]
        if n.is_leaf:
            c_y, c_y_prime = st.leaf_c[idx]
            d_j, d_j_prime = key.comps[n.attribute]
            return ctx.pair_ratio(c_y, plain(d_j), c_y_prime, plain(d_j_prime))
        positions = sat.chosen[idx]
        acc = ctx.identity("gt")
        for pos in positions:
            acc = acc * value(n.children[pos - 1]) ** lagrange_coeff(
                pos, positions, 0, ctx.p)
        return acc

    t_s = ctx.pair(st.c, plain(key.d_enc)) * value(st.tree.root).inverse()
    denom = (ctx.pair(st.w, plain(vk.key_ver)) * t_s) ** st.pi
    delta = ctx.pair(st.c, st.psi) * denom.inverse()
    assert dec_t["t_s"] == t_s == enc_t["t_s"]
    assert dec_t["delta_prime"] == delta == enc_t["delta"]
    assert oracles.decrypt_node(pp, st, key) == value(st.tree.root)
    # the fast path still rejects a tampered psi
    t = {}
    bad = dataclasses.replace(st, psi=st.psi * ctx.g2)
    assert absc.designcrypt(pp, bad, ct, key, vk, t) is None
    assert t["reason"] == "verify-failed"


def test_key_lines_are_built_on_first_use_only(scheme, monkeypatch):
    pp, mk = scheme
    ctx = pp.ctx
    builds = []
    real = pairing.miller_lines

    def counting(P, params):
        builds.append(P)
        return real(P, params)

    monkeypatch.setattr(pairing, "miller_lines", counting)
    rng = random.Random(127)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["a", "b"], rng)
    loaded = absc.attribute_key_from_json(ctx, absc.attribute_key_to_json(key))
    assert builds == []
    st, ct = absc.signcrypt(pp, sk, b"m", "a and b", rng)
    builds.clear()  # signcrypt may fill ctx.g2's lines, once per process
    assert absc.designcrypt(pp, st, ct, loaded, vk) == b"m"
    assert len(builds) == 1 + 2 * 2 + 1  # d_enc, each d_j and d'_j, key_ver
    builds.clear()
    assert absc.designcrypt(pp, st, ct, loaded, vk) == b"m"
    assert builds == []


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_keygen_matches_raw_point_reference(scheme, seed):
    # the batched fixed-base powers and g2^(alpha/beta) give the keys of
    # the formula (g2^alpha * g2^r)^(1/beta), byte for byte
    pp, mk = scheme
    attrs = ["cam", "lock", "hub", "door"][:seed - 2]
    got = absc.keygen(pp, mk, attrs, random.Random(seed))
    want = oracles.keygen_reference(pp, mk, attrs, random.Random(seed))
    assert absc.attribute_key_to_json(got) == absc.attribute_key_to_json(want)
    got = absc.signing_keygen(pp, mk, random.Random(seed))
    want = oracles.signing_keygen_reference(pp, mk, random.Random(seed))
    assert ([k.to_bytes() for k in (got[0].key_sign, got[1].key_ver)]
            == [k.to_bytes() for k in (want[0].key_sign, want[1].key_ver)])


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_signcrypt_matches_raw_point_reference(scheme, seed):
    pp, mk = scheme
    rng = random.Random(400 + seed)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    policy = "(alpha, beta, gamma)@2 and delta"
    got = absc.signcrypt(pp, sk, b"one for the group", policy, random.Random(seed))
    want = oracles.signcrypt_reference(pp, sk, b"one for the group", policy,
                                       random.Random(seed))
    assert absc.payload_bytes(*got) == absc.payload_bytes(*want)


def test_warm_signcrypt_does_no_generic_work(scheme, monkeypatch):
    # every base is fixed and e(h, g2) is kept: no pt_mul, Miller loop or
    # final exponentiation once the tables exist
    pp, mk = scheme
    rng = random.Random(131)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    absc.signcrypt(pp, sk, b"warm-up", "a and b", rng)
    calls = []

    def counting(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("pt_mul", "tate_miller", "miller_lines", "fixed_miller",
                 "tate_final_exp", "fixed_base_table"):
        monkeypatch.setattr(pairing, name, counting(name, getattr(pairing, name)))
    absc.signcrypt(pp, sk, b"warm", "(a, b, c)@2 and d", rng)
    assert calls == []


def test_public_params_keep_the_last_publisher_keys(scheme_asym, monkeypatch):
    pp, mk = scheme_asym
    pp = absc.PublicParams(pp.ctx, pp.h, pp.t)  # nothing kept yet
    rng = random.Random(139)
    pairs = []
    for _ in range(2):
        sk, vk = absc.signing_keygen(pp, mk, rng)
        pairs.append((sk.key_sign.to_bytes().hex(), vk.key_ver.to_bytes().hex()))
    decodes = []
    real = GroupContext.deserialize_element

    def counting(self, data, group):
        decodes.append(group)
        return real(self, data, group)

    monkeypatch.setattr(GroupContext, "deserialize_element", counting)
    first = pp.publisher_keys(*pairs[0])
    assert first[0].key_sign.to_bytes().hex() == pairs[0][0]
    assert first[1].key_ver.to_bytes().hex() == pairs[0][1]
    assert pp.publisher_keys(*pairs[0]) is first and len(decodes) == 2
    second = pp.publisher_keys(*pairs[1])  # another pair replaces the kept one
    assert second[0].key_sign.to_bytes().hex() == pairs[1][0]
    assert pp.publisher_keys(*pairs[1]) is second and len(decodes) == 4
    with pytest.raises(DecodeError):
        pp.publisher_keys("0a" + "00" * 2 * pp.ctx.params.fq_bytes, pairs[0][1])
    assert pp.publisher_keys(*pairs[1]) is second  # a bad key is not kept


def test_publisher_key_hex_is_decoded_canonically(scheme_asym):
    pp, mk = scheme_asym
    pp = absc.PublicParams(pp.ctx, pp.h, pp.t)
    sk, vk = absc.signing_keygen(pp, mk, random.Random(141))
    sign_hex, ver_hex = sk.key_sign.to_bytes().hex(), vk.key_ver.to_bytes().hex()
    for bad in (("zz", "zz"), (sign_hex.upper(), ver_hex), (sign_hex, ver_hex.upper()),
                (sign_hex + "0", ver_hex), (sign_hex, None)):
        with pytest.raises(DecodeError):
            pp.publisher_keys(*bad)
    assert pp.publisher_keys(sign_hex, ver_hex)[1].key_ver == vk.key_ver


def test_designcrypt_failure_reasons(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(103)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha"], rng)
    st, ct = absc.signcrypt(pp, sk, b"payload", "alpha", rng)

    t = {}
    outsider = absc.keygen(pp, mk, ["delta"], rng)
    assert absc.designcrypt(pp, st, ct, outsider, vk, t) is None
    assert t["reason"] == "unsatisfied"

    t = {}
    bad_pi = dataclasses.replace(st, pi=st.pi + ctx.scalar(1))
    assert absc.designcrypt(pp, bad_pi, ct, key, vk, t) is None
    assert t["reason"] == "verify-failed"

    t = {}
    bad_mask = dataclasses.replace(st, c_tilde=bytes(32))
    assert absc.designcrypt(pp, bad_mask, ct, key, vk, t) is None
    assert t["reason"] in ("decrypt-failed", "verify-failed")


def test_wrong_verification_key_rejects(scheme_asym):
    pp, mk = scheme_asym
    rng = random.Random(107)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    _, vk2 = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha"], rng)
    st, ct = absc.signcrypt(pp, sk, b"payload", "alpha", rng)
    assert absc.designcrypt(pp, st, ct, key, vk) == b"payload"
    assert absc.designcrypt(pp, st, ct, key, vk2) is None


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="keygen gives away g2^(r_enc); open, ROADMAP item 8")
def test_one_unrelated_attribute_cannot_unmask_through_g2_r_enc(scheme):
    # any one pair (d_j, d'_j) yields d_j * d'_j^(-H2(j)) = g2^(r_enc), and
    # e(C, d_enc) / e(w, g2^(r_enc)) = t^s strips the content-key mask
    pp, mk = scheme
    ctx = pp.ctx
    rng = random.Random(113)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["camera"], rng)
    msg = b"for hvac units on floor 3"
    st, ct = absc.signcrypt(pp, sk, msg, "hvac and floor3", rng)
    assert absc.designcrypt(pp, st, ct, key, vk) is None  # the policy bars it
    d_j, d_j_prime = key.comps["camera"]
    g2_r_enc = d_j * d_j_prime ** -attr_hash(ctx, "camera")
    t_s = ctx.pair(st.c, key.d_enc) * ctx.pair(st.w, g2_r_enc).inverse()
    mask = ctx.hash_to_bits(t_s.to_bytes())
    key_sym = bytes(a ^ b for a, b in zip(st.c_tilde, mask))
    assert absc.sym_decrypt(key_sym, ct) != msg


def test_large_payload_wide_policy(scheme_sym):
    pp, mk = scheme_sym
    rng = random.Random(109)
    attrs = [f"a{i:02d}" for i in range(19)]
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, attrs, rng)
    msg = rng.getrandbits(8 * (1 << 20)).to_bytes(1 << 20, "big")
    t0 = time.perf_counter()
    st, ct = absc.signcrypt(pp, sk, msg, " and ".join(attrs), rng)
    t1 = time.perf_counter()
    assert absc.designcrypt(pp, st, ct, key, vk) == msg
    t2 = time.perf_counter()
    print(f"1 MiB under a 19-attribute gate: signcrypt {t1 - t0:.2f}s, "
          f"designcrypt {t2 - t1:.2f}s")


# ---------------------------------------------------------------------------
# wire form

def roundtrip_payload(ctx, st, ct):
    data = absc.payload_bytes(st, ct)
    return absc.payload_from_bytes(ctx, data)


def test_wire_round_trip(scheme):
    pp, mk = scheme
    ctx = pp.ctx
    rng = random.Random(113)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha", "beta", "gamma"], rng)
    st, ct = absc.signcrypt(pp, sk, b"msg", "(alpha, beta, gamma)@2", rng)
    st2, ct2 = roundtrip_payload(ctx, st, ct)
    assert st2 == st
    assert ct2 == ct
    assert absc.designcrypt(pp, st2, ct2, key, vk) == b"msg"
    # canonical bytes are stable across a round trip
    data = absc.payload_bytes(st, ct)
    assert absc.payload_bytes(st2, ct2) == data
    # each field sits where the documented layout puts it, and the
    # fields tile the payload
    text = b"(alpha, beta, gamma)@2"
    expected = {"policy_len": len(text).to_bytes(4, "big"), "policy": text,
                "c_tilde": st.c_tilde, "c": st.c.to_bytes(), "w": st.w.to_bytes()}
    for i, idx in enumerate(st.tree.leaves()):
        expected[("c_y", i)], expected[("c_y_prime", i)] = (
            point.to_bytes() for point in st.leaf_c[idx])
    expected.update(iv=ct.iv, body=ct.body, pi=st.pi.to_bytes(ctx.params.r_bytes),
                    psi=st.psi.to_bytes())
    fields = oracles.payload_fields(ctx, data)
    assert list(fields) == list(expected)
    assert b"".join(data[a:b] for a, b in fields.values()) == data
    assert {name: data[a:b] for name, (a, b) in fields.items()} == expected


def test_st_decode_strictness(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(127)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    st, ct = absc.signcrypt(pp, sk, b"msg", "alpha and beta", rng)
    data = absc.payload_bytes(st, ct)
    fields = oracles.payload_fields(ctx, data)
    absc.payload_from_bytes(ctx, data)

    def put(name, new):
        return oracles.splice(data, fields[name], new)

    def reject(bad):
        with pytest.raises(DecodeError):
            absc.payload_from_bytes(ctx, bad)

    reject(put("c", data[slice(*fields["c"])][:-1]))          # point width
    reject(put("c_tilde", data[slice(*fields["c_tilde"])][1:]))
    reject(put("pi", ctx.p.to_bytes(ctx.params.r_bytes, "big")))  # out of range
    reject(put("policy_len", len(data).to_bytes(4, "big")))
    reject(put("psi", data[slice(*fields["c"])]))             # wrong group tag
    reject(oracles.with_policy_text(ctx, data, "alpha and"))
    reject(oracles.with_policy_text(ctx, data, "alpha  and beta"))
    reject(oracles.with_policy_text(ctx, data, "(alpha, beta)@2"))  # not canonical
    reject(oracles.with_policy_text(ctx, data, "alpha and beta and gamma"))
    leaf = (fields[("c_y", 1)][0], fields[("c_y_prime", 1)][1])
    reject(oracles.splice(data, leaf, b""))                   # leaf count
    reject(data[:-1])
    reject(data + b"\x00")


def test_ct_decode_strictness(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(139)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    st, ct = absc.signcrypt(pp, sk, b"m" * 20, "alpha", rng)
    data = absc.payload_bytes(st, ct)
    fields = oracles.payload_fields(ctx, data)
    assert fields["body"][1] - fields["body"][0] == 32
    for body in (b"", b"\x11" * 15, b"\x11" * 17, b"\x11" * 31):
        with pytest.raises(DecodeError, match="block size"):
            absc.payload_from_bytes(ctx, oracles.splice(data, fields["body"], body))
    with pytest.raises(DecodeError):  # a 15-byte iv shifts the body
        absc.payload_from_bytes(ctx, oracles.splice(data, fields["iv"], b"\x00" * 15))
    _, ct16 = absc.payload_from_bytes(ctx, oracles.splice(data, fields["body"],
                                                           b"\x11" * 16))
    assert ct16 == absc.MessageCiphertext(ct.iv, b"\x11" * 16)


def test_payload_decode_strictness(ctx_asym):
    with pytest.raises(DecodeError):
        absc.payload_from_bytes(ctx_asym, b"\xff\xfe not json")
    with pytest.raises(DecodeError):
        absc.payload_from_bytes(ctx_asym, b"[1, 2]")
    with pytest.raises(DecodeError):
        absc.payload_from_bytes(ctx_asym, b"{\"st\": {}}")


def test_payload_decoder_fuzz(scheme):
    # every input is refused with DecodeError or decodes, and what
    # decodes re-encodes to the same bytes: canonical by construction
    pp, mk = scheme
    ctx = pp.ctx
    rng = random.Random(173)
    sk, _ = absc.signing_keygen(pp, mk, rng)
    st, ct = absc.signcrypt(pp, sk, b"fuzz" * 10, "(alpha, beta, gamma)@2", rng)
    data = absc.payload_bytes(st, ct)
    fields = oracles.payload_fields(ctx, data)
    outcomes = {"decoded": 0, "refused": 0}

    def feed(bad):
        try:
            absc.check_payload_shape(ctx, bad)
            shape_ok = True
        except DecodeError:
            shape_ok = False
        try:
            st_m, ct_m = absc.payload_from_bytes(ctx, bad)
        except DecodeError:
            outcomes["refused"] += 1
            return "refused"
        assert shape_ok
        assert absc.payload_bytes(st_m, ct_m) == bad
        outcomes["decoded"] += 1
        return "decoded"

    assert feed(data) == "decoded"
    for n in range(len(data)):  # every length, so every field boundary too
        feed(data[:n])
    assert outcomes["decoded"] == 1
    must_refuse = [
        data + b"\x00",
        oracles.splice(data, fields["policy_len"], len(data).to_bytes(4, "big")),
        oracles.splice(data, fields["policy_len"], b"\xff" * 4),
        oracles.splice(data, fields["pi"], ctx.p.to_bytes(ctx.params.r_bytes, "big")),
        oracles.splice(data, fields["body"], b""),
        oracles.splice(data, fields["body"], b"\x11" * 15),
        oracles.splice(data, fields["body"], b"\x11" * 17),
    ]
    must_refuse += [oracles.with_policy_text(ctx, data, text) for text in (
        " (alpha, beta, gamma)@2", "(alpha, beta, gamma)@2 ",
        "(alpha,beta,gamma)@2", "(alpha, beta, gamma) @2",
        "((alpha, beta, gamma)@2)", "(alpha, beta, gamma)@02",
        "(alpha, (beta), gamma)@2", "", "(" * 400 + "alpha" + ")" * 400)]
    for bad in must_refuse:
        assert feed(bad) == "refused"
    assert feed(oracles.splice(data, fields["body"], b"\x11" * 16)) == "decoded"
    for _ in range(2500):
        bent = bytearray(data)
        bent[rng.randrange(len(bent))] ^= rng.randrange(1, 256)
        feed(bytes(bent))
    assert outcomes["decoded"] > 100 and outcomes["refused"] > 1000


def test_hex_bytes_contract():
    assert absc.hex_bytes("00ff") == b"\x00\xff"
    assert absc.hex_bytes("00ff", 2) == b"\x00\xff"
    for bad in ("00FF", "0", "xyz", 42, None, "00ff ", " 00ff", "00 ff",
                "00ff\n", "０１", "٣٣", "0x00", b"00"):
        with pytest.raises(DecodeError):
            absc.hex_bytes(bad)
    with pytest.raises(DecodeError):
        absc.hex_bytes("00ff", 3)


def test_attribute_key_wire_round_trip(scheme_asym):
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(131)
    key = absc.keygen(pp, mk, ["alpha", "beta"], rng)
    obj = absc.attribute_key_to_json(key)
    back = absc.attribute_key_from_json(ctx, obj)
    assert back.d_enc == key.d_enc
    assert back.attributes == key.attributes
    assert back.comps == key.comps
    for comps in ({}, list(obj["comps"].items())):
        with pytest.raises(DecodeError):
            absc.attribute_key_from_json(ctx, {"d_enc": obj["d_enc"], "comps": comps})


def test_public_params_wire_round_trip(scheme):
    pp, _ = scheme
    back = absc.public_params_from_json(absc.public_params_to_json(pp))
    assert back.h == pp.h
    assert back.t == pp.t
    assert back.ctx.profile == pp.ctx.profile
    with pytest.raises(DecodeError):
        absc.public_params_from_json({"profile": "SYMMETRIC_512", "h": "00"})


# ---------------------------------------------------------------------------
# the payload is signed: pi binds every byte but pi and psi

# profile -> (policy, device attributes, a leaf the device does not use)
BINDING_CASES = {
    "ASYMMETRIC_159": ("(alpha, beta, gamma, delta)@3", ["alpha", "beta", "gamma"],
                       "delta"),
    "SYMMETRIC_512": ("alpha or beta", ["alpha"], "beta"),
}


@pytest.fixture
def signed_payload(scheme):
    """(pp, key, vk, payload bytes, unused leaf) on each profile."""
    pp, mk = scheme
    policy, attrs, unused = BINDING_CASES[pp.ctx.profile.value]
    rng = random.Random(149)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, attrs, rng)
    st, ct = absc.signcrypt(pp, sk, b"bound payload", policy, rng)
    return pp, key, vk, absc.payload_bytes(st, ct), unused


def leaf_number(policy, attr):
    """The position of attr's leaf in leaf order, as payload_fields counts."""
    tree = parse_policy(policy)
    return [tree.nodes[idx].attribute for idx in tree.leaves()].index(attr)


def device_receive(pp, key, vk, payload):
    """Outcome and alarm details of a fresh device handed this payload."""
    pid = "ee" * 16
    dev = DeviceNode("dev", pp, key, {pid: vk.key_ver.to_bytes().hex()}, 15,
                     clock=ManualClock(18))
    header = {"index": 1, "timestamp": 18,
              "payload_digest": hashlib.sha256(payload).hexdigest()}
    outcome = dev.receive(header, pid, payload)
    return outcome, [e["detail"] for e in dev.events if e["event"] == "integrity-alarm"]


def assert_verify_fails(pp, key, vk, payload):
    transcript = {}
    st, ct = absc.payload_from_bytes(pp.ctx, payload)
    assert absc.designcrypt(pp, st, ct, key, vk, transcript) is None
    assert transcript["reason"] == "verify-failed"
    assert device_receive(pp, key, vk, payload) == ("alarm", ["designcrypt-failed"])


def test_swapped_unused_leaf_fails_verification(signed_payload):
    # anyone can compute g1^k; without the payload in pi, swapping it in
    # for a leaf the reader never pairs still recovered the message
    pp, key, vk, data, unused = signed_payload
    ctx = pp.ctx
    assert device_receive(pp, key, vk, data) == ("accepted", [])
    fresh = (ctx.g1 ** ctx.random_scalar(random.Random(151))).to_bytes()
    i = leaf_number(BINDING_CASES[ctx.profile.value][0], unused)
    bad = oracles.splice(data, oracles.payload_fields(ctx, data)[("c_y", i)], fresh)
    assert bad != data
    assert_verify_fails(pp, key, vk, bad)


def test_cofactor_shifted_points_fail_verification(signed_payload):
    # C, w and a used C_y are only evaluated at, so the pairings cannot
    # see the shift (designcrypt gets as far as the check); pi does
    pp, key, vk, data, _ = signed_payload
    ctx = pp.ctx
    rng = random.Random(157)
    policy, attrs, _ = BINDING_CASES[ctx.profile.value]
    fields = oracles.payload_fields(ctx, data)

    def shifted(name):
        span = fields[name]
        pt = ctx.deserialize_element(data[slice(*span)], "s1").point
        moved = pairing.pt_add(pt, oracles.cofactor_point(ctx.params, rng),
                               ctx.params.q)
        return oracles.splice(data, span, GroupElement(ctx, "s1", moved).to_bytes())

    for name in ("c", "w", ("c_y", leaf_number(policy, attrs[0]))):
        assert_verify_fails(pp, key, vk, shifted(name))


def test_cofactor_shifted_psi_fails_designcrypt(signed_payload):
    # psi decodes on the curve only; e(C, psi) walks it, and the walk
    # refuses a psi outside the subgroup before any verification
    pp, key, vk, data, _ = signed_payload
    ctx = pp.ctx
    rng = random.Random(163)
    span = oracles.payload_fields(ctx, data)["psi"]
    psi = ctx.deserialize_element(data[slice(*span)], "s2")
    moved = pairing.pt_add(psi.point, oracles.cofactor_point(ctx.params, rng),
                           ctx.params.q)
    bad = oracles.splice(data, span, GroupElement(ctx, psi.group, moved).to_bytes())
    st, ct = absc.payload_from_bytes(ctx, bad)
    assert st.psi.point == moved
    transcript = {}
    assert absc.designcrypt(pp, st, ct, key, vk, transcript) is None
    assert transcript["reason"] == "psi-not-in-subgroup"
    assert device_receive(pp, key, vk, bad) == ("alarm", ["designcrypt-failed"])


def test_key_load_does_no_pt_mul_and_no_strict_decode(signed_payload,
                                                      monkeypatch):
    # every key point is walked by its first pairing, which checks its
    # subgroup, so loading a key and building the device decode each
    # point on the curve only, and the cold receive adds no pt_mul either
    pp, key, vk, data, _ = signed_payload
    ctx = pp.ctx
    key_json = absc.attribute_key_to_json(key)
    calls = []
    real_mul, real_decode = pairing.pt_mul, GroupContext.deserialize_element

    def mul(P, k, q):
        calls.append("pt_mul")
        return real_mul(P, k, q)

    def decode(self, data, group):
        calls.append("deserialize_element")
        return real_decode(self, data, group)

    monkeypatch.setattr(pairing, "pt_mul", mul)
    monkeypatch.setattr(GroupContext, "deserialize_element", decode)
    loaded = absc.attribute_key_from_json(ctx, key_json)
    assert loaded.comps == key.comps and loaded.d_enc == key.d_enc
    assert device_receive(pp, loaded, vk, data) == ("accepted", [])
    assert calls == []


@pytest.mark.parametrize("point", ["d_enc", "d_j", "d_j_prime", "key_ver"])
def test_cofactor_shifted_key_point_loads_and_fails_designcrypt(signed_payload,
                                                                point):
    # a key point outside the subgroup decodes, and its first walk, the
    # one that builds its lines, refuses it before any value built from
    # it is used: designcrypt fails and the device alarms, every time
    pp, key, vk, data, _ = signed_payload
    ctx = pp.ctx
    used = BINDING_CASES[ctx.profile.value][1][0]

    def shifted(el):
        moved = pairing.pt_add(el.point, oracles.cofactor_point(
            ctx.params, random.Random(167)), ctx.params.q)
        assert pairing.pt_mul(moved, ctx.p, ctx.params.q) is not None
        return GroupElement(ctx, ctx.key_group, moved)

    key_json = absc.attribute_key_to_json(key)
    d_hex, dp_hex = key_json["comps"][used]
    if point == "d_enc":
        key_json["d_enc"] = shifted(key.d_enc).to_bytes().hex()
    elif point == "d_j":
        key_json["comps"][used] = [shifted(key.comps[used][0]).to_bytes().hex(),
                                   dp_hex]
    elif point == "d_j_prime":
        key_json["comps"][used] = [d_hex,
                                   shifted(key.comps[used][1]).to_bytes().hex()]
    else:
        vk = absc.VerificationKey(shifted(vk.key_ver))
    loaded = absc.attribute_key_from_json(ctx, key_json)
    st, ct = absc.payload_from_bytes(ctx, data)
    for _ in range(2):  # a refused point keeps no lines, so it is walked again
        transcript = {}
        assert absc.designcrypt(pp, st, ct, loaded, vk, transcript) is None
        assert transcript["reason"] == "key-not-in-subgroup"
    assert device_receive(pp, loaded, vk, data) == ("alarm", ["designcrypt-failed"])


def test_order_two_point_alarms_at_decode(signed_payload):
    pp, key, vk, data, _ = signed_payload
    fields = oracles.payload_fields(pp.ctx, data)
    zero = b"\x02" + b"\x00" * 2 * pp.ctx.params.fq_bytes  # (0, 0)
    bad = oracles.splice(data, fields["c"], zero)
    with pytest.raises(DecodeError, match="order two"):
        absc.payload_from_bytes(pp.ctx, bad)
    outcome, alarms = device_receive(pp, key, vk, bad)
    assert outcome == "alarm" and alarms == ["decode: point of order two"]
    psi_tag = data[fields["psi"][0]:fields["psi"][0] + 1]
    psi_zero = oracles.splice(data, fields["psi"], psi_tag + zero[1:])  # key-group tag
    with pytest.raises(DecodeError, match="order two"):
        absc.payload_from_bytes(pp.ctx, psi_zero)


def test_tamper_smoke(scheme_asym):
    # a quick slice of the exhaustive mutation suite: flip one byte in a
    # few decoded components and require designcrypt to fail closed
    pp, mk = scheme_asym
    ctx = pp.ctx
    rng = random.Random(137)
    sk, vk = absc.signing_keygen(pp, mk, rng)
    key = absc.keygen(pp, mk, ["alpha", "beta"], rng)
    st, ct = absc.signcrypt(pp, sk, b"critical update", "alpha and beta", rng)
    data = absc.payload_bytes(st, ct)
    fields = oracles.payload_fields(ctx, data)
    flips = 0
    for field in ("c_tilde", "c", "w", "psi"):
        start, stop = fields[field]
        bent = bytearray(data)
        bent[rng.randrange(start, stop)] ^= rng.randrange(1, 256)
        try:
            st_bad, ct_bad = absc.payload_from_bytes(ctx, bytes(bent))
        except DecodeError:
            flips += 1
            continue
        assert absc.designcrypt(pp, st_bad, ct_bad, key, vk) is None
        flips += 1
    assert flips == 4
