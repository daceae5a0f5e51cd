"""Group substrate: curve parameters, pairing, serialization, hashing."""

import gc
import hashlib
import random

import pytest

import oracles
from policycast import absc, nodes
from policycast import pairing as pr
from policycast.groups import (ConfigurationError, DecodeError, GroupContext,
                               GroupElement, GroupMismatchError, Scalar)
from policycast.policy import lagrange_coeff

# frozen first-build serializations; any engine change that moves these
# is a compatibility break, not a refactor
PINS = {
    "SYMMETRIC_512": {
        "g1": "025885b6063364b203d5d1600b75f18ce5ec35b7032369e98bd54ade60fcabda"
              "ffb5dace311ce1ce5af9d7a3e8f407a333b48664e1f192cba6180139d8609e50"
              "13626875d7f182c5952f23635eef3f48b49c300e14bbd786ad8732e768379911"
              "288611a6fcf55b863e9e91c58b9ef5a79dfc482bfd7bcb8e3c5094bcbd47dee2"
              "58",
        "g2": None,  # same group
        "t0": "047700183393eb9f33a1419ac68f85c2782fda3c0c511a0ab222fc26f83f4043"
              "f79ad2fc9790c853e2372574916cd876a2e0e899f98260e6e60bf1c2ec12b308"
              "424ccf4055ec621e04b8681fde9ef49924acd574ca27c631232cd3052df93fdf"
              "9bef5f78cb1900d7e368c84079604d0799f3cd3e7bc0c36ec8292a52ed425178"
              "38",
    },
    "ASYMMETRIC_159": {
        "g1": "0215fb97024654d52fd39b41cbbb056c2efc1a0180"
              "243a3b21bc0ee95c7ae5bbbb1ad6bb4a36e67c36",
        "g2": "0a1be0e6c230532f6ca1f73e921a7128d1b5222ef0"
              "3fcd4903e0e03560af496a9683731b2e12439a3e",
        "t0": "0401bf4e5f5412123a47aaa05a04c8e15ae1d9c72935b2a8b925ad88e1490d09"
              "e65e92babebc015bce",
    },
}


@pytest.fixture(scope="module", params=list(PINS))
def ctx(request):
    return GroupContext(request.param)


def test_profile_construction():
    assert GroupContext("SYMMETRIC_512").symmetric
    assert not GroupContext("ASYMMETRIC_159").symmetric
    with pytest.raises(ConfigurationError):
        GroupContext("NO_SUCH_PROFILE")


def test_parameter_sanity(ctx):
    ps = ctx.params
    # q = 3 mod 4 with the supersingular point count q + 1 = r * c
    assert ps.q % 4 == 3
    assert ps.r * ps.c == ps.q + 1
    # Fermat sanity on the pinned primes (full primality was checked at
    # parameter generation time)
    assert pow(2, ps.q - 1, ps.q) == 1
    assert pow(2, ps.r - 1, ps.r) == 1
    assert pr.pt_is_on_curve(ps.g1, ps.q)
    assert pr.pt_mul(ps.g1, ps.r, ps.q) is None
    if ps.g2pre is not None:
        assert pr.pt_is_on_curve(ps.g2pre, ps.q)
        assert pr.pt_mul(ps.g2pre, ps.r, ps.q) is None


def test_generator_pins(ctx):
    pins = PINS[ctx.profile.value]
    assert ctx.g1.to_bytes().hex() == pins["g1"]
    expected_g2 = pins["g2"] or pins["g1"]
    assert ctx.g2.to_bytes().hex() == expected_g2
    assert ctx.pairing_of_generators().to_bytes().hex() == pins["t0"]


def test_scalar_field_matches_int_arithmetic(ctx):
    rng = random.Random(101)
    p = ctx.p
    for _ in range(300):
        a, b = rng.randrange(p), rng.randrange(p)
        sa, sb = ctx.scalar(a), ctx.scalar(b)
        assert (sa + sb).value == (a + b) % p
        assert (sa - sb).value == (a - b) % p
        assert (sa * sb).value == a * b % p
        assert (-sa).value == -a % p
    x = ctx.scalar(rng.randrange(1, p))
    assert (x * x.inverse()).value == 1
    with pytest.raises(ZeroDivisionError):
        ctx.scalar(0).inverse()
    with pytest.raises(GroupMismatchError):
        sa + Scalar(1, p + 2)


def test_fq2_matches_schoolbook(ctx):
    q = ctx.params.q
    rng = random.Random(7)
    for _ in range(100):
        x = (rng.randrange(q), rng.randrange(q))
        y = (rng.randrange(q), rng.randrange(q))
        assert pr.fq2_mul(x, y, q) == oracles.omul(x, y, q)
        assert pr.fq2_sqr(x, q) == oracles.omul(x, x, q)
        if x != (0, 0):
            assert pr.fq2_inv(x, q) == oracles.oinv(x, q)
        e = rng.randrange(1, 1 << 64)
        assert pr.fq2_exp(x, e, q) == oracles.oexp(x, e, q)


def test_point_arithmetic_matches_affine_oracle(ctx):
    ps = ctx.params
    rng = random.Random(13)
    for _ in range(20):
        k = rng.randrange(1, ps.r)
        assert pr.pt_mul(ps.g1, k, ps.q) == oracles.omul_pt(ps.g1, k, ps.q)
    P = pr.pt_mul(ps.g1, 12345, ps.q)
    Q = pr.pt_mul(ps.g1, 99999, ps.q)
    assert pr.pt_add(P, Q, ps.q) == oracles.oadd(P, Q, ps.q)
    assert pr.pt_add(P, P, ps.q) == oracles.oadd(P, P, ps.q)
    assert pr.pt_add(P, pr.pt_neg(P, ps.q), ps.q) is None
    assert pr.pt_mul(ps.g1, ps.r, ps.q) is None


def test_pairing_matches_naive_oracle(ctx):
    # the engine (Jacobian, denominator elimination, factored final
    # power) against the textbook affine loop with denominators
    ps = ctx.params
    rng = random.Random(17)
    base2 = ps.g2pre or ps.g1
    for _ in range(4):
        a = rng.randrange(1, ps.r)
        b = rng.randrange(1, ps.r)
        P = pr.pt_mul(ps.g1, a, ps.q)
        Q = pr.pt_mul(base2, b, ps.q)
        assert oracles.tate_pairing(P, Q, ps) == oracles.naive_tate(P, Q, ps)


def test_source_group_is_cyclic(ctx):
    # r does not divide the cofactor, so E(F_q)[r] is cyclic and
    # e(A, phi(B)) = e(B, phi(A)): a fixed key-side point may be the one
    # the Miller loop walks
    assert ctx.params.c % ctx.params.r != 0


def test_fixed_argument_lines_match_the_pairing(ctx):
    ps = ctx.params
    rng = random.Random(31)
    base2 = ps.g2pre or ps.g1
    for k in range(3):
        A = pr.pt_mul(ps.g1, rng.randrange(1, ps.r), ps.q)
        B = pr.pt_mul(base2, rng.randrange(1, ps.r), ps.q)
        lines = pr.miller_lines(B, ps)
        got = pr.tate_final_exp(pr.fixed_miller([(lines, A)], ps), ps)
        assert got == oracles.tate_pairing(B, A, ps)  # the arguments swapped
        if k < 2:
            assert got == oracles.naive_tate(A, B, ps)
    # several pairs share one loop; a negated point inverts its pairing
    A2 = pr.pt_mul(ps.g1, rng.randrange(1, ps.r), ps.q)
    B2 = pr.pt_mul(base2, rng.randrange(1, ps.r), ps.q)
    pairs = [(lines, A), (pr.miller_lines(B2, ps), pr.pt_neg(A2, ps.q))]
    want = oracles.omul(oracles.naive_tate(A, B, ps),
                        oracles.oinv(oracles.tate_pairing(A2, B2, ps), ps.q), ps.q)
    assert pr.tate_final_exp(pr.fixed_miller(pairs, ps), ps) == want
    # the pinned e(g1, g2) through the stored lines of a new fixed copy of g2
    g2 = GroupElement(ctx, ctx.key_group, ctx.g2.point).fixed()
    assert g2.lines == ()
    assert ctx.pair(ctx.g1, g2).to_bytes().hex() == PINS[ctx.profile.value]["t0"]
    assert len(g2.lines) > 0


def test_pairing_path_follows_the_key_side_element(ctx):
    rng = random.Random(37)
    a = ctx.g1 ** ctx.random_scalar(rng)
    b = ctx.g2 ** ctx.random_scalar(rng)
    assert b.lines is None  # a plain element: tate_miller
    b_fixed = b.fixed()
    assert b_fixed == b and b_fixed.fixed() is b_fixed
    assert ctx.pair(a, b_fixed) == ctx.pair(a, b)
    assert b_fixed.lines and b.lines is None
    want = ctx.pair(a, b) * ctx.pair(ctx.g1, b).inverse()
    assert ctx.pair_ratio(a, b_fixed, ctx.g1, b) == want
    m = ctx.miller((a, b_fixed), (ctx.g1, b))
    assert ctx.final_exp(m) == ctx.pair(a, b) * ctx.pair(ctx.g1, b)
    assert ctx.final_exp(m * m.inverse()).is_identity
    with pytest.raises(ValueError):
        m.to_bytes()  # unreduced values never go on the wire
    with pytest.raises(GroupMismatchError):
        ctx.pair(a, b) * m


def test_fixed_base_table_matches_pt_mul(ctx):
    ps, p = ctx.params, ctx.p
    w = pr.FIXED_WINDOW
    rng = random.Random(41)
    ks = [0, 1, 2 ** w - 1, 2 ** w, p - 1, p] + [rng.randrange(p) for _ in range(50)]
    plain = ctx.g1 ** ctx.random_scalar(rng)
    for el in {ctx.g1, ctx.g2, plain}:
        fixed = el.fixed()
        for k in ks:
            want = pr.pt_mul(el.point, k % p, ps.q)
            assert (fixed ** k).point == want
            assert (fixed ** Scalar(k, p)).point == want
        table = fixed.table
        assert len(table) == -(-ps.r.bit_length() // w)
        assert all(len(row) == 2 ** w - 1 for row in table)
        fixed ** 3
        assert fixed.table is table  # built once, then kept
    assert plain.table is None  # only fixed elements build tables
    assert GroupContext(ctx.profile.value).g1.table is ctx.g1.table  # one per profile
    with pytest.raises(ValueError):
        pr.pt_mul_fixed([(table, 1 << (w * len(table)))], ps.q)


def test_fixed_base_batch_matches_pt_mul(ctx):
    ps, p, q = ctx.params, ctx.p, ctx.params.q
    rng = random.Random(43)
    plain = (ctx.g1 ** ctx.random_scalar(rng)).fixed()
    bases = [ctx.g1, ctx.g2, plain]
    ks = [0, 1, p - 1, p] + [rng.randrange(p) for _ in range(19)]
    jobs = [(rng.choice(bases), k) for k in ks]
    want = [pr.pt_mul(base.point, k % p, q) for base, k in jobs]
    assert [el.point for el in ctx.pow_many(jobs)] == want
    for base in bases:  # the tables the batch built or reused
        assert base.table
    raw = [(base.table, k % p) for base, k in jobs]
    assert pr.pt_mul_fixed(raw, q) == want
    assert pr.pt_mul_fixed([], q) == []
    assert pr.pt_mul_fixed([(ctx.g1.table, p)], q) == [None]  # k = r
    with pytest.raises(ValueError):  # one wide scalar fails the batch
        pr.pt_mul_fixed(raw + [(ctx.g1.table, 1 << (pr.FIXED_WINDOW
                                                    * len(ctx.g1.table)))], q)


def test_fixed_base_tree_edge_cases(ctx):
    q = ctx.params.q
    P = ctx.g1.point
    Q = pr.pt_mul(P, 7, q)
    minus_p = pr.pt_neg(P, q)
    sums = pr._tree_sums([[P, P], [P, minus_p], [P, minus_p, Q], [], [Q],
                          [P, Q, P, Q]], q)
    assert sums == [pr.pt_mul(P, 2, q), None, Q, None, Q, pr.pt_mul(P, 16, q)]


def test_pow_many_keeps_pow_results(ctx):
    rng = random.Random(47)
    k = ctx.random_scalar(rng)
    ident = ctx.identity("s1").fixed()
    got = ctx.pow_many([(ctx.g1, k), (ident, k), (ctx.g2, 0), (ctx.g1, k.value)])
    assert got[0] == ctx.g1 ** k == got[3]
    assert got[1].is_identity and got[2].is_identity
    assert got[2].group == ctx.key_group
    assert (ident ** k).is_identity and (ctx.g1 ** 0).is_identity
    plain = ctx.g1 ** k  # not fixed
    with pytest.raises(ValueError):
        ctx.pow_many([(plain, k)])
    with pytest.raises(GroupMismatchError):
        ctx.pow_many([(ctx.g1, Scalar(3, ctx.p + 2))])


def test_final_exp_ladder_matches_square_and_multiply(ctx):
    ps, q = ctx.params, ctx.params.q
    rng = random.Random(53)
    fs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(50)]
    fs += [(rng.randrange(1, q), 0), (0, rng.randrange(1, q))]  # g = 1, g = -1
    for f in fs:
        assert pr.tate_final_exp(f, ps) == oracles.tate_final_exp_reference(f, ps)
    assert pr.tate_final_exp(fs[-2], ps) == (1, 0)
    assert pr.tate_final_exp(fs[-1], ps) == pr.fq2_exp((q - 1, 0), ps.c, q)


def test_inverses_match_oracle(ctx):
    q, p = ctx.params.q, ctx.p
    rng = random.Random(41)
    for _ in range(50):
        x = (rng.randrange(1, q), rng.randrange(q))
        assert pr.fq2_inv(x, q) == oracles.oinv(x, q)
        y = rng.randrange(1, p)
        assert ctx.scalar(y).inverse().value == oracles.oinv((y, 0), p)[0]
    S = [1, 3, 4, 7]
    for i in S:
        num = den = 1
        for j in S:
            if j != i:
                num, den = num * -j % p, den * (i - j) % p
        want = num * oracles.oinv((den, 0), p)[0] % p
        assert lagrange_coeff(i, S, 0, p).value == want
    f = (rng.randrange(1, q), rng.randrange(q))
    assert pr.tate_final_exp(f, ctx.params) == oracles.oexp(
        f, (q * q - 1) // ctx.params.r, q)


def test_bilinearity(ctx):
    rng = random.Random(19)
    t0 = ctx.pairing_of_generators()
    for _ in range(25):
        a = ctx.random_scalar(rng)
        b = ctx.random_scalar(rng)
        lhs = ctx.pair(ctx.g1 ** a, ctx.g2 ** b)
        assert lhs == t0 ** (a * b)
    assert ctx.pair(ctx.g1 ** 2, ctx.g2 ** 3) == t0 ** 6


def test_non_degenerate_order_p_target(ctx):
    t0 = ctx.pairing_of_generators()
    assert not t0.is_identity
    assert (t0 ** ctx.p).is_identity
    assert ctx.pair(ctx.identity("s1"), ctx.g2).is_identity


def test_pair_ratio_equals_quotient(ctx):
    rng = random.Random(23)
    for _ in range(10):
        a1 = ctx.g1 ** ctx.random_scalar(rng)
        a2 = ctx.g1 ** ctx.random_scalar(rng)
        b1 = ctx.g2 ** ctx.random_scalar(rng)
        b2 = ctx.g2 ** ctx.random_scalar(rng)
        want = ctx.pair(a1, b1) * ctx.pair(a2, b2).inverse()
        assert ctx.pair_ratio(a1, b1, a2, b2) == want


def test_serialization_round_trip(ctx):
    rng = random.Random(29)
    for _ in range(10):
        el = ctx.g1 ** ctx.random_scalar(rng)
        assert ctx.deserialize_element(el.to_bytes(), "s1") == el
        el2 = ctx.g2 ** ctx.random_scalar(rng)
        assert ctx.deserialize_element(el2.to_bytes(), ctx.key_group) == el2
        gt = ctx.pairing_of_generators() ** ctx.random_scalar(rng)
        assert ctx.deserialize_element(gt.to_bytes(), "gt") == gt


def test_symmetric_s2_redirect(ctx):
    data = ctx.g2.to_bytes()
    if ctx.symmetric:
        # s2 requests resolve to the single source group
        assert ctx.deserialize_element(data, "s2") == ctx.g1
    else:
        with pytest.raises(DecodeError):
            ctx.deserialize_element(data, "s1")  # wrong tag for s1


def test_decode_rejects_malformed(ctx):
    w = ctx.params.fq_bytes
    good = ctx.g1.to_bytes()
    with pytest.raises(DecodeError):
        ctx.deserialize_element(b"\x00" * (1 + w), "s1")  # bad tag
    with pytest.raises(DecodeError):
        ctx.deserialize_element(good[:-1], "s1")
    with pytest.raises(DecodeError):
        ctx.deserialize_element(good + b"\x00", "s1")
    with pytest.raises(DecodeError):
        ctx.deserialize_element("not bytes", "s1")
    with pytest.raises(ConfigurationError):
        ctx.deserialize_element(good, "g9")
    # x out of range
    big = good[:1] + ctx.params.q.to_bytes(w, "big") + good[1 + w:]
    with pytest.raises(DecodeError):
        ctx.deserialize_element(big, "s1")


def test_decode_rejects_off_curve_x(ctx):
    q = ctx.params.q
    w = ctx.params.fq_bytes
    found = 0
    for x in range(2, 200):
        rhs = (x * x * x + x) % q
        if pow(rhs, (q - 1) // 2, q) != 1:  # no square root -> not on curve
            data = bytes([0x02]) + x.to_bytes(w, "big") + (1).to_bytes(w, "big")
            with pytest.raises(DecodeError):
                ctx.deserialize_element(data, "s1")
            found += 1
            if found == 3:
                return
    raise AssertionError("no off-curve x found in range")


def test_evaluation_point_ignores_a_cofactor_shift(ctx):
    # the reduced pairing is trivial on rE in its second argument, so the
    # point a pairing only evaluates at may carry a cofactor-order part,
    # through stored lines and through tate_miller alike
    ps = ctx.params
    rng = random.Random(43)
    base2 = ps.g2pre or ps.g1
    for _ in range(3):
        K = pr.pt_mul(base2, rng.randrange(1, ps.r), ps.q)  # walked
        Q = pr.pt_mul(ps.g1, rng.randrange(1, ps.r), ps.q)  # evaluated
        shifted = pr.pt_add(Q, oracles.cofactor_point(ps, rng), ps.q)
        assert pr.pt_mul(shifted, ps.r, ps.q) is not None
        want = oracles.naive_tate(Q, K, ps)
        lines = pr.miller_lines(K, ps)
        for pt in (Q, shifted):
            assert pr.tate_final_exp(pr.fixed_miller([(lines, pt)], ps), ps) == want
            assert pr.tate_final_exp(pr.tate_miller(K, pt, ps), ps) == want
        # a plain key-side element is walked too
        got = ctx.pair(GroupElement(ctx, "s1", Q), GroupElement(ctx, ctx.key_group, K))
        assert got.point == want


def test_miller_walk_matches_the_unchecked_loop(ctx):
    # for a walked point of order r the checked loop computes what the
    # loop without the check did, at subgroup and shifted evaluation points
    ps = ctx.params
    rng = random.Random(59)
    base2 = ps.g2pre or ps.g1
    for _ in range(3):
        K = pr.pt_mul(base2, rng.randrange(1, ps.r), ps.q)
        Q = pr.pt_mul(ps.g1, rng.randrange(1, ps.r), ps.q)
        shifted = pr.pt_add(Q, oracles.cofactor_point(ps, rng), ps.q)
        for pt in (Q, shifted):
            assert pr.tate_miller(K, pt, ps) == oracles.tate_miller_unchecked(K, pt, ps)


def _walk(walker, P, Q, ps):
    """The unreduced pairing with P walked and Q evaluated, by walker: the
    full loop, or P's line table evaluated at Q."""
    if walker == "miller_lines":
        return pr.fixed_miller([(pr.miller_lines(P, ps), Q)], ps)
    return pr.tate_miller(P, Q, ps)


def _agrees(walker, f, g, q):
    """tate_miller computes the unchecked loop's value g; a line table's
    value differs from it by an F_q factor, which the final
    exponentiation kills, so f*conj(g) has no i-part."""
    if walker == "tate_miller":
        return f == g
    return (f[1] * g[0] - f[0] * g[1]) % q == 0


WALKERS = ["tate_miller", "miller_lines"]


@pytest.mark.parametrize("walker", WALKERS)
def test_miller_walk_refuses_points_outside_the_subgroup(ctx, walker):
    # the walk raises exactly when rP != O: for cofactor-order points,
    # alone and added to a subgroup point, and for (0, 0), whose first
    # doubling has Y = 0, so Z is 0 from there to the end
    ps = ctx.params
    rng = random.Random(61)
    base2 = ps.g2pre or ps.g1
    S = pr.pt_mul(base2, rng.randrange(1, ps.r), ps.q)
    Q = pr.pt_mul(ps.g1, rng.randrange(1, ps.r), ps.q)
    walked = [S, (0, 0)]
    for _ in range(6):
        h = oracles.cofactor_point(ps, rng)
        walked += [h, pr.pt_add(S, h, ps.q)]
    refused = 0
    for P in walked:
        if pr.pt_mul(P, ps.r, ps.q) is None:
            assert _agrees(walker, _walk(walker, P, Q, ps),
                           oracles.tate_miller_unchecked(P, Q, ps), ps.q)
        else:
            with pytest.raises(ValueError, match="not of order r"):
                _walk(walker, P, Q, ps)
            refused += 1
    assert refused == len(walked) - 1
    # and through the group layer: a key-side element is walked, by the
    # full loop when plain and by its line build when fixed
    shifted = GroupElement(ctx, ctx.key_group, walked[-1])
    if walker == "miller_lines":
        shifted = shifted.fixed()
    for _ in range(2):  # a refused fixed point keeps no lines
        with pytest.raises(ValueError, match="not of order r"):
            ctx.pair(ctx.g1, shifted)


@pytest.mark.parametrize("walker", WALKERS)
def test_miller_walk_refuses_an_early_vertical_chord(walker):
    # no small-order point of the pinned curves meets a vertical chord
    # before the last step, so the loop runs under a stand-in r over the
    # SYMMETRIC_512 curve: walked along the bits of 11, a point P of
    # order 5 meets T = 4P = -P at the middle step; along those of 5, at
    # the last one; along those of 7, its last chord is at T = 6P = P
    ps = pr.SYM512
    rng = random.Random(67)
    P = None
    while P is None:
        x = rng.randrange(ps.q)
        pt = pr.pt_decompress(x, False, ps.q)
        P = pt and pr.pt_mul(pt, (ps.q + 1) // 5, ps.q)
    assert pr.pt_mul(P, 5, ps.q) is None

    def stand_in(r):
        return pr.CurveParams(f"r={r}", ps.q, r, None, ps.g1, None, True)

    Q = ps.g1
    assert _agrees(walker, _walk(walker, P, Q, stand_in(5)),
                   oracles.tate_miller_unchecked(P, Q, stand_in(5)), ps.q)
    oracles.tate_miller_unchecked(P, Q, stand_in(11))  # stops early, silently
    for r in (7, 11):
        with pytest.raises(ValueError, match="not of order r"):
            _walk(walker, P, Q, stand_in(r))


def test_evaluation_point_decode(ctx):
    ps = ctx.params
    w = ps.fq_bytes
    rng = random.Random(47)
    el = ctx.g1 ** ctx.random_scalar(rng)
    good = el.to_bytes()
    assert ctx.deserialize_evaluation_point(good) == el
    # on the curve, outside the subgroup: only the strict path refuses it
    shifted = GroupElement(ctx, "s1", pr.pt_add(
        el.point, oracles.cofactor_point(ps, rng), ps.q)).to_bytes()
    with pytest.raises(DecodeError, match="subgroup"):
        ctx.deserialize_element(shifted, "s1")
    assert ctx.deserialize_evaluation_point(shifted).to_bytes() == shifted
    # (0, 0): order two, and no line value may vanish
    with pytest.raises(DecodeError, match="order two"):
        ctx.deserialize_evaluation_point(b"\x02" + bytes(2 * w))
    off_x = next(x for x in range(1, 1000)
                 if pr.pt_decompress(x, False, ps.q) is None)
    for bad in (b"\x0a" + good[1:], good[:-1], good + b"\x00",
                good[:1] + ps.q.to_bytes(w, "big") + good[1 + w:],
                good[:1] + off_x.to_bytes(w, "big") + good[1 + w:], good.hex()):
        with pytest.raises(DecodeError):
            ctx.deserialize_evaluation_point(bad)


@pytest.mark.parametrize("group", ["s1", "s2"])
def test_point_encoding_is_tag_x_y(ctx, group):
    # one tag per group, then x and y: a decode is an on-curve check
    ps = ctx.params
    w = ps.fq_bytes
    base = ctx.g1 if group == "s1" else ctx.g2
    el = base ** ctx.random_scalar(random.Random(53))
    data = el.to_bytes()
    x, y = el.point
    tag = data[:1]
    assert data == tag + x.to_bytes(w, "big") + y.to_bytes(w, "big")
    for decode in (ctx.deserialize_element, ctx.deserialize_evaluation_point):
        assert decode(data, group) == el
        cases = {
            "bad element length": (data[:-1], data + b"\x00", data[:1 + w]),
            # gt's tag, a parity tag, the other source group's tag
            "is not a": (b"\x04" + data[1:], b"\x03" + data[1:],
                         bytes([0x0A if tag == b"\x02" else 0x02]) + data[1:]),
            "out of range": (tag + ps.q.to_bytes(w, "big") + data[1 + w:],
                             tag + data[1:1 + w] + ps.q.to_bytes(w, "big")),
            "not on the curve": (tag + data[1:1 + w] + ((y + 1) % ps.q).to_bytes(w, "big"),
                                 tag + data[1 + w:] + data[1:1 + w]),
        }
        for message, encodings in cases.items():
            for bad in encodings:
                with pytest.raises(DecodeError, match=message):
                    decode(bad, group)
    # (0, 0), the one point of order two, is refused by both paths
    zero = tag + bytes(2 * w)
    with pytest.raises(DecodeError, match="order two"):
        ctx.deserialize_evaluation_point(zero, group)
    with pytest.raises(DecodeError, match="subgroup"):
        ctx.deserialize_element(zero, group)
    # the compressed form that older files hold no longer loads
    with pytest.raises(DecodeError, match="length"):
        ctx.deserialize_element(bytes([data[0] | (y & 1)]) + data[1:1 + w], group)


def test_decode_rejects_out_of_subgroup_point(ctx):
    # a curve point whose order is not p: exists whenever the cofactor
    # exceeds 1, which holds for both profiles
    ps = ctx.params
    for x in range(2, 3000):
        pt = pr.pt_decompress(x, False, ps.q)
        if pt is None or pr.pt_mul(pt, ps.r, ps.q) is None:
            continue
        data = bytes([0x02]) + x.to_bytes(ps.fq_bytes, "big") + pt[1].to_bytes(
            ps.fq_bytes, "big")
        with pytest.raises(DecodeError):
            ctx.deserialize_element(data, "s1")
        return
    raise AssertionError("no out-of-subgroup x found in range")


def test_decode_rejects_bad_target_elements(ctx):
    w = ctx.params.fq_bytes
    one = b"\x04" + (1).to_bytes(w, "big") + (0).to_bytes(w, "big")
    with pytest.raises(DecodeError):
        ctx.deserialize_element(one, "gt")  # identity is unserializable
    two = b"\x04" + (2).to_bytes(w, "big") + (0).to_bytes(w, "big")
    with pytest.raises(DecodeError):
        ctx.deserialize_element(two, "gt")  # not in the order-p subgroup
    with pytest.raises(DecodeError):
        ctx.deserialize_element(b"\x04" + bytes(2 * w - 1), "gt")


def test_identity_not_serializable(ctx):
    with pytest.raises(ValueError):
        ctx.identity("s1").to_bytes()
    with pytest.raises(ValueError):
        ctx.identity("gt").to_bytes()


def test_group_mixing_rejected():
    asym = GroupContext("ASYMMETRIC_159")
    sym = GroupContext("SYMMETRIC_512")
    with pytest.raises(GroupMismatchError):
        asym.pair(asym.g2, asym.g1)  # argument order is s1 then s2
    with pytest.raises(GroupMismatchError):
        asym.g1 * asym.g2
    with pytest.raises(GroupMismatchError):
        asym.g1 ** sym.scalar(3)
    with pytest.raises(GroupMismatchError):
        sym.pair(asym.g1, asym.g2)
    with pytest.raises(GroupMismatchError):
        asym.g1 ** 1.5


def test_hash_kats(ctx):
    assert ctx.hash_to_bits(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    assert ctx.hash_to_bits(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    # scalar hash is exactly the digest reduced mod p
    for data in (b"", b"abc", b"attr:A"):
        want = int.from_bytes(hashlib.sha256(data).digest(), "big") % ctx.p
        assert ctx.hash_to_scalar(data).value == want
        assert ctx.hash_to_scalar(data).value == (
            int.from_bytes(ctx.hash_to_bits(data), "big") % ctx.p)


def test_context_determinism(ctx):
    # one context per profile: every lookup returns it
    assert GroupContext(ctx.profile.value) is ctx
    assert GroupContext(ctx.profile) is ctx
    assert GroupContext(ctx.profile).pairing_of_generators() is ctx.pairing_of_generators()


def test_set_ups_leave_no_contexts_behind():
    # with the cyclic collector off, set-ups and decodes leave no context
    # behind: they all use the profile's one context
    enabled = gc.isenabled()
    gc.disable()
    try:
        for profile in PINS:
            rng = random.Random(61)
            for _ in range(3):
                pp, _ = absc.setup(profile, rng)
                absc.public_params_from_json(absc.public_params_to_json(pp))
                ta = nodes.TrustedAuthority(profile, rng)
                nodes.TrustedAuthority.from_json(ta.state_to_json())
        alive = [o.profile for o in gc.get_objects() if type(o) is GroupContext]
    finally:
        if enabled:
            gc.enable()
    for profile in PINS:
        assert alive.count(profile) <= 1
        assert GroupContext(profile) is GroupContext(profile)
