"""Independent reference implementations used only by the tests.

Everything here is written straight from the defining formulas with
schoolbook arithmetic: affine points, explicit vertical-line
denominators in the Miller loop, a full (q^2 - 1)/r final power, and
plain square-and-multiply.  The production engine shares none of these
code paths (it uses Jacobian coordinates, denominator elimination, and a
factored final exponentiation), so agreement is meaningful evidence.
tate_pairing is the exception: the engine's own loop, kept here as the
reference for the stored-line and argument-swapped paths.  So is
signcrypt_reference, which composes it with pt_mul: the textbook paths
that signcrypt's window tables and cached e(h, g2) replace, with
keygen_reference and signing_keygen_reference, key generation by pt_mul
with the formula (g2^alpha * g2^r)^(1/beta); tate_final_exp_reference,
the square-and-multiply final exponentiation that the Lucas ladder
replaces; and decrypt_node, the decryption tree evaluated as the
scheme defines it, one reduced pairing per leaf and Lagrange
coefficients (lagrange_coeff) in the target group, which designcrypt's
single loop over integer coefficients replaces.  tate_miller_unchecked
is the engine's Miller loop as it was before the loop learned to check
its walked point, tree_to_json / tree_from_json a nested JSON form of access trees that
the tests round-trip, and payload_fields the payload's byte layout as
documented, at which the tests splice bytes.
"""

from dataclasses import replace

from policycast import absc
from policycast import pairing as pr
from policycast.groups import GroupElement, Scalar
from policycast.policy import (_flatten, normalize_attribute, parse_policy,
                               share_secret)

FQ2_ONE = (1, 0)


# ---------------------------------------------------------------------------
# schoolbook F_q2 = F_q[i]/(i^2 + 1), elements as (a, b) meaning a + b*i

def omul(x, y, q):
    a, b = x
    c, d = y
    return ((a * c - b * d) % q, (a * d + b * c) % q)


def oinv(x, q):
    a, b = x
    n = pow((a * a + b * b) % q, q - 2, q)
    return (a * n % q, -b * n % q)


def oexp(x, e, q):
    out = FQ2_ONE
    base = x
    while e > 0:
        if e & 1:
            out = omul(out, base, q)
        base = omul(base, base, q)
        e >>= 1
    return out


# ---------------------------------------------------------------------------
# affine arithmetic on y^2 = x^3 + x over F_q

def oadd(P, Q, q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + 1) * pow(2 * y1, q - 2, q) % q
    else:
        lam = (y2 - y1) * pow((x2 - x1) % q, q - 2, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def omul_pt(P, k, q):
    out = None
    add = P
    while k > 0:
        if k & 1:
            out = oadd(out, add, q)
        add = oadd(add, add, q)
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# naive reduced Tate pairing

def _sub_fq2(x, c, q):
    # x - c with x in F_q2 and c in F_q
    return ((x[0] - c) % q, x[1])


def _line_value(A, B, S, q):
    """Value at S (F_q2 point) of the line through A and B of E(F_q).

    A == B means the tangent at A.  Vertical cases return x_S - x_A.
    """
    xs, ys = S
    xa, ya = A
    if A == B:
        if ya == 0:
            return _sub_fq2(xs, xa, q)
        lam = (3 * xa * xa + 1) * pow(2 * ya, q - 2, q) % q
    elif xa == B[0]:
        return _sub_fq2(xs, xa, q)
    else:
        lam = (B[1] - ya) * pow((B[0] - xa) % q, q - 2, q) % q
    # (ys - ya) - lam * (xs - xa)
    t = _sub_fq2(xs, xa, q)
    t = (t[0] * lam % q, t[1] * lam % q)
    return ((ys[0] - ya - t[0]) % q, (ys[1] - t[1]) % q)


def _vertical_value(C, S, q):
    if C is None:
        return FQ2_ONE
    return _sub_fq2(S[0], C[0], q)


def naive_tate(P, Q, params):
    """e(P, phi(Q)) by the textbook Miller loop, denominators included.

    phi is the distortion map (x, y) -> (-x, i*y); the final power is the
    full (q^2 - 1)/r done by square-and-multiply.
    """
    q, r = params.q, params.r
    if P is None or Q is None:
        return FQ2_ONE
    S = (((-Q[0]) % q, 0), (0, Q[1] % q))
    f = FQ2_ONE
    T = P
    for bit in bin(r)[3:]:
        f = omul(f, f, q)
        f = omul(f, _line_value(T, T, S, q), q)
        T = oadd(T, T, q)
        f = omul(f, oinv(_vertical_value(T, S, q), q), q)
        if bit == "1":
            f = omul(f, _line_value(T, P, S, q), q)
            T = oadd(T, P, q)
            f = omul(f, oinv(_vertical_value(T, S, q), q), q)
    assert T is None, "input point does not have order r"
    return oexp(f, (q * q - 1) // r, q)


def tate_pairing(P, Q, params):
    """e(P, phi(Q)) through the engine's plain loop, P walked.

    Unlike naive_tate this composes production code (tate_miller and
    tate_final_exp); the tests use it as the reference for the paths
    that reorder or precompute that loop.
    """
    if P is None or Q is None:
        return FQ2_ONE
    return pr.tate_final_exp(pr.tate_miller(P, Q, params), params)


def tate_final_exp_reference(f, params):
    """pairing.tate_final_exp by square-and-multiply in F_q2: (conj(f)/f)^c."""
    q = params.q
    a, b = f
    n = pow(a * a + b * b, -1, q)
    conj = (a, -b % q)
    finv = (a * n % q, -b * n % q)
    g = pr.fq2_mul(conj, finv, q)
    return pr.fq2_exp(g, params.c, q)


def tate_miller_unchecked(P, Q, params):
    """pairing.tate_miller without its check that rP = O.

    The loop stops at the first vertical chord it meets, wherever that
    is, and returns the value reached so far; for P of order r that is
    the last step, and the value is tate_miller's.
    """
    q = params.q
    xp, yp = P
    xq, yq = Q
    fa, fb = 1, 0
    X, Y, Z = xp, yp, 1
    for bit in params.r_tail:
        Zsq = Z * Z % q
        B = Y * Y % q
        A = X * X % q
        Cc = B * B % q
        D = 2 * ((X + B) * (X + B) - A - Cc) % q
        E = (3 * A + Zsq * Zsq) % q
        X2 = (E * E - 2 * D) % q
        Z2 = 2 * Y * Z % q
        Y2 = (E * (D - X2) - 8 * Cc) % q
        lr = (E * (X + xq * Zsq) - 2 * B) % q
        li = Z2 * Zsq % q * yq % q
        t = (fa + fb) * (fa - fb) % q
        fb = 2 * fa * fb % q
        fa = t
        m1 = fa * lr
        m2 = fb * li
        fa, fb = (m1 - m2) % q, ((fa + fb) * (lr + li) - m1 - m2) % q
        X, Y, Z = X2, Y2, Z2
        if bit == "1":
            Zsq = Z * Z % q
            U2 = xp * Zsq % q
            S2 = yp * Z % q * Zsq % q
            H = (U2 - X) % q
            R = (S2 - Y) % q
            if H == 0 and R != 0:
                X, Y, Z = 0, 1, 0
                break
            H2 = H * H % q
            H3 = H * H2 % q
            X2 = (R * R - H3 - 2 * X * H2) % q
            Y2 = (R * (X * H2 - X2) - Y * H3) % q
            Z2 = Z * H % q
            lr = (Z2 * yp - R * (xq + xp)) % q
            li = -(Z2 * yq) % q
            m1 = fa * lr
            m2 = fb * li
            fa, fb = (m1 - m2) % q, ((fa + fb) * (lr + li) - m1 - m2) % q
            X, Y, Z = X2, Y2, Z2
    return fa, fb


def cofactor_point(params, rng):
    """A random point of E(F_q) of order > 1 dividing the cofactor.

    r times a random curve point: its order-r part is gone, so adding it
    to a subgroup point moves that point out of the subgroup.
    """
    q = params.q
    while True:
        pt = pr.pt_decompress(rng.randrange(q), rng.random() < 0.5, q)
        h = pt and pr.pt_mul(pt, params.r, q)
        if h is not None:
            return h


# ---------------------------------------------------------------------------
# signcrypt on raw points

def signcrypt_reference(pp, signing_key, msg, policy, rng):
    """absc.signcrypt with every power a pt_mul on the raw point and
    delta = e(C, g2)^zeta through tate_pairing; the same rng draws in the
    same order, so the payload bytes must match."""
    ctx = pp.ctx
    ps = ctx.params
    q = ps.q
    tree = parse_policy(policy)

    def s1(k):
        return GroupElement(ctx, "s1", pr.pt_mul(ps.g1, k.value, q))

    key_sym = absc._rand_bytes(rng, absc.KEY_BYTES)
    ct_msg = absc.sym_encrypt(key_sym, msg, rng)
    s = ctx.random_scalar(rng)
    shares = share_secret(tree, s, rng)
    t_s = GroupElement(ctx, "gt", oexp(pp.t.point, s.value, q))
    c_tilde = absc._xor(key_sym, ctx.hash_to_bits(t_s.to_bytes()))
    c = GroupElement(ctx, "s1", pr.pt_mul(pp.h.point, s.value, q))
    leaf_c = {idx: (s1(shares[idx]),
                    s1(absc._attr_hash(ctx, tree.nodes[idx].attribute) * shares[idx]))
              for idx in tree.leaves()}
    st = absc.SignedCiphertext(tree, c_tilde, c, leaf_c, s1(s), None, None)
    zeta = ctx.random_scalar(rng)
    g2 = ctx.g2.point
    delta = GroupElement(ctx, "gt", oexp(tate_pairing(g2, c.point, ps), zeta.value, q))
    pi = absc._pi(ctx, msg, delta, st, ct_msg)
    psi = pr.pt_add(pr.pt_mul(g2, zeta.value, q),
                    pr.pt_mul(signing_key.key_sign.point, pi.value, q), q)
    return replace(st, pi=pi, psi=GroupElement(ctx, ctx.key_group, psi)), ct_msg


def _g2_alpha(mk, q):
    """The master key's g2^alpha, by pt_mul from g2^(alpha/beta)."""
    return pr.pt_mul(mk.g2_alpha_over_beta.point, mk.beta.value, q)


def keygen_reference(pp, mk, attributes, rng):
    """absc.keygen as d_enc = (g2^alpha * g2^r_enc)^(1/beta) and
    d_j = g2^r_enc * g2^(H2(j) * r_j), every power a pt_mul on the raw
    point; the same rng draws in the same order, so the key must match."""
    ctx = pp.ctx
    q = ctx.params.q
    g2 = ctx.g2.point

    def el(P):
        return GroupElement(ctx, ctx.key_group, P)

    attrs = frozenset(normalize_attribute(a) for a in attributes)
    r_enc = ctx.random_scalar(rng)
    g2_renc = pr.pt_mul(g2, r_enc.value, q)
    d_enc = pr.pt_mul(pr.pt_add(_g2_alpha(mk, q), g2_renc, q),
                      mk.beta.inverse().value, q)
    comps = {}
    for attr in sorted(attrs):
        r_j = ctx.random_scalar(rng)
        h_r = (absc._attr_hash(ctx, attr) * r_j).value
        comps[attr] = (el(pr.pt_add(g2_renc, pr.pt_mul(g2, h_r, q), q)),
                       el(pr.pt_mul(g2, r_j.value, q)))
    return absc.AttributeKey(el(d_enc), attrs, comps)


def signing_keygen_reference(pp, mk, rng):
    """absc.signing_keygen as key_sign = (g2^alpha * key_ver)^(1/beta)
    by pt_mul, with the same rng draws."""
    ctx = pp.ctx
    q = ctx.params.q
    r_sign = ctx.random_scalar(rng)
    key_ver = pr.pt_mul(ctx.g2.point, r_sign.value, q)
    key_sign = pr.pt_mul(pr.pt_add(_g2_alpha(mk, q), key_ver, q),
                         mk.beta.inverse().value, q)
    return (absc.SigningKey(GroupElement(ctx, ctx.key_group, key_sign)),
            absc.VerificationKey(GroupElement(ctx, ctx.key_group, key_ver)))


def lagrange_coeff(i, index_set, at, modulus):
    """Lagrange basis coefficient Delta_{i,S}(at) in Z_modulus."""
    s = list(index_set)
    if len(s) != len(set(s)):
        raise ValueError("duplicate indices in S")
    if i not in s:
        raise ValueError("i must be a member of S")
    num, den = 1, 1
    for j in s:
        if j == i:
            continue
        num = num * (at - j) % modulus
        den = den * (i - j) % modulus
    return Scalar(num * pow(den, -1, modulus), modulus)


def decrypt_node(pp, st, key):
    """Evaluate the decryption tree, by the textbook.

    Returns e(g1, g2)^(r_enc * s) when the key's attributes satisfy
    the tree, else None.  Each leaf is one
    reduced pairing ratio e(C_y, d_j) / e(C'_y, d'_j) through
    tate_pairing, and each gate Lagrange-combines the values of its
    first k satisfied children in the target group, each raised to its
    coefficient mod p.
    """
    ctx = pp.ctx
    ps = ctx.params
    q = ps.q
    nodes = st.tree.nodes

    def value(idx):
        n = nodes[idx]
        if n.is_leaf:
            if n.attribute not in key.attributes:
                return None
            c_y, c_y_prime = st.leaf_c[idx]
            d_j, d_j_prime = key.comps[n.attribute]
            return omul(tate_pairing(d_j.point, c_y.point, ps),
                        oinv(tate_pairing(d_j_prime.point, c_y_prime.point, ps), q), q)
        found = {}
        for pos, child in enumerate(n.children, start=1):
            v = value(child)
            if v is not None:
                found[pos] = v
                if len(found) == n.threshold:
                    break
        else:
            return None
        acc = FQ2_ONE
        for pos, v in found.items():
            acc = omul(acc, oexp(v, lagrange_coeff(pos, found, 0, ctx.p).value, q), q)
        return acc

    out = value(st.tree.root)
    return None if out is None else GroupElement(ctx, "gt", out)


# ---------------------------------------------------------------------------
# the payload's byte layout, read from its documentation

def payload_fields(ctx, data):
    """{field: (start, stop)} of payload bytes, in wire order.

    Written from the layout the absc module docstring documents, not
    from absc's code: the policy text's length (4 bytes, big-endian) and
    the text, c_tilde (32 bytes), C, w, ("c_y", i) and ("c_y_prime", i)
    for leaf i in leaf order, iv (16 bytes), the body up to a fixed-width
    tail, pi (r_bytes) and psi; a point is a tag byte, then x and y.
    Tests splice bytes at these ranges, so they check the layout too.
    """
    point = 1 + 2 * ctx.params.fq_bytes
    n = int.from_bytes(data[:4], "big")
    sizes = [("policy_len", 4), ("policy", n), ("c_tilde", 32),
             ("c", point), ("w", point)]
    for i in range(len(parse_policy(data[4:4 + n].decode("utf-8")).leaves())):
        sizes += [(("c_y", i), point), (("c_y_prime", i), point)]
    sizes.append(("iv", 16))
    fields, pos = {}, 0
    for name, size in sizes:
        fields[name] = (pos, pos + size)
        pos += size
    pi_at = len(data) - point - ctx.params.r_bytes
    fields.update(body=(pos, pi_at), pi=(pi_at, len(data) - point),
                  psi=(len(data) - point, len(data)))
    return fields


def splice(data, span, new):
    """data with the bytes in span, a (start, stop) pair, replaced by new."""
    start, stop = span
    return data[:start] + new + data[stop:]


def with_policy_text(ctx, data, text):
    """data with its policy text replaced and the length prefix fixed up."""
    raw = text.encode("utf-8")
    span = (0, payload_fields(ctx, data)["policy"][1])
    return splice(data, span, len(raw).to_bytes(4, "big") + raw)


# ---------------------------------------------------------------------------
# nested JSON form of access trees

def tree_to_json(tree):
    nodes = tree.nodes

    def build(idx):
        node = nodes[idx]
        if node.is_leaf:
            return {"kind": "leaf", "attribute": node.attribute}
        return {"kind": "gate", "k": node.threshold,
                "children": [build(c) for c in node.children]}

    return build(tree.root)


def tree_from_json(obj):
    def to_nested(o):
        if not isinstance(o, dict) or "kind" not in o:
            raise ValueError("bad tree node")
        if o["kind"] == "leaf":
            return {"attr": normalize_attribute(o["attribute"])}
        if o["kind"] == "gate":
            kids = o["children"]
            if not isinstance(kids, list) or not kids:
                raise ValueError("gate needs children")
            return {"k": o["k"], "children": [to_nested(c) for c in kids]}
        raise ValueError(f"unknown node kind {o['kind']!r}")

    return _flatten(to_nested(obj))


# ---------------------------------------------------------------------------
# scalar-arithmetic view of tree secret sharing

def oracle_satisfies(tree, attrs):
    def rec(idx):
        node = tree.nodes[idx]
        if node.is_leaf:
            return node.attribute in attrs
        return sum(1 for c in node.children if rec(c)) >= node.threshold
    return rec(tree.root)


def reconstruct_secret(tree, shares, attrs, p):
    """Lagrange reconstruction of the root secret from leaf shares.

    shares maps leaf arena index -> share (Scalar or int); only leaves
    whose attribute is in attrs may be used.  Returns an int, or None
    when the attribute set does not satisfy the tree.
    """
    def rec(idx):
        node = tree.nodes[idx]
        if node.is_leaf:
            if node.attribute in attrs and idx in shares:
                v = shares[idx]
                return getattr(v, "value", v)
            return None
        points = []
        for pos, child in enumerate(node.children, start=1):
            v = rec(child)
            if v is not None:
                points.append((pos, v))
                if len(points) == node.threshold:
                    break
        if len(points) < node.threshold:
            return None
        acc = 0
        for i, (xi, yi) in enumerate(points):
            num = den = 1
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                num = num * (-xj) % p
                den = den * (xi - xj) % p
            acc = (acc + yi * num % p * pow(den, p - 2, p)) % p
        return acc
    return rec(tree.root)


# ---------------------------------------------------------------------------
# randomized policy generation (distinct leaf attributes, explicit @k gates)

def random_tree_text(rng, n_leaves, max_arity=4):
    """Random policy text with exactly n_leaves distinct attributes.

    Returns (text, attribute list).  Gates are rendered "(...)@k" so the
    full threshold range is exercised, not just and/or.
    """
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"a{counter[0]:02d}"

    def build(n):
        if n == 1:
            return fresh()
        arity = rng.randint(2, min(max_arity, n))
        cuts = sorted(rng.sample(range(1, n), arity - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        subs = [build(sz) for sz in sizes]
        k = rng.randint(1, arity)
        return "(" + ", ".join(subs) + ")@" + str(k)

    text = build(n_leaves)
    return text, [f"a{i + 1:02d}" for i in range(n_leaves)]


def sample_satisfying(tree, rng):
    """Attribute set built by walking k random children through each gate."""
    out = set()

    def walk(idx):
        node = tree.nodes[idx]
        if node.is_leaf:
            out.add(node.attribute)
            return
        for pos in rng.sample(range(len(node.children)), node.threshold):
            walk(node.children[pos])

    walk(tree.root)
    return out


def sample_nonsatisfying(tree, rng, tries=128):
    """Non-empty attribute set that fails the tree.

    Random subsets are rejected until one fails; the foreign marker
    attribute keeps the set non-empty without ever helping a monotone
    tree.  Falls back to the marker alone (no threshold is 0, so an
    attribute absent from every leaf satisfies nothing).
    """
    attrs = sorted(tree.attributes())
    for _ in range(tries):
        k = rng.randint(0, len(attrs) - 1)
        cand = set(rng.sample(attrs, k))
        if not oracle_satisfies(tree, cand):
            cand.add("zz-outsider")
            return cand
    return {"zz-outsider"}
