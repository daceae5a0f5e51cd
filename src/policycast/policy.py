"""Monotone threshold access trees.

A tree is an arena of nodes (index 0 is the root).  Interior nodes carry
a threshold k over their ordered children; leaves carry an attribute
string.  "A and B" desugars to a 2-of-2 gate, "A or B" to 1-of-2, and
"(A, B, C)@2" is an explicit 2-of-3 gate.  Children are indexed 1..n in
listed order; those indices are the x-coordinates of the sharing
polynomials, so order is significant and survives the text round trip.

Attributes are UTF-8 strings, trimmed of surrounding ASCII whitespace and
compared case-sensitively.  The words "and" and "or" are reserved.
Trees are capped at 16 levels and 256 leaves.
"""

import re
from dataclasses import dataclass

from .groups import Scalar

MAX_DEPTH = 16
MAX_LEAVES = 256

_RESERVED = ("and", "or")


class PolicySyntaxError(ValueError):
    """Policy text rejected; position is a character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class AccessNode:
    threshold: int
    children: tuple  # arena indices; empty for leaves
    attribute: str | None = None

    @property
    def is_leaf(self):
        return not self.children


@dataclass(frozen=True)
class AccessTree:
    nodes: tuple
    root: int = 0

    def __post_init__(self):
        _validate_tree(self.nodes, self.root)

    def leaves(self):
        """Arena indices of all leaves, in arena (preorder) order."""
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    def attributes(self):
        return {n.attribute for n in self.nodes if n.is_leaf}

    def depth(self):
        def d(i):
            node = self.nodes[i]
            if node.is_leaf:
                return 1
            return 1 + max(d(c) for c in node.children)
        return d(self.root)


@dataclass(frozen=True)
class SatisfyResult:
    satisfied: bool
    # interior node index -> chosen child indices (1-based), smallest first
    chosen: dict


def normalize_attribute(attr):
    if not isinstance(attr, str):
        raise ValueError("attribute must be a string")
    attr = attr.strip()
    if not attr:
        raise ValueError("attribute must be non-empty")
    if attr in _RESERVED:
        raise ValueError(f"{attr!r} is a reserved word")
    return attr


def _validate_tree(nodes, root):
    if not nodes:
        raise ValueError("tree has no nodes")
    if not 0 <= root < len(nodes):
        raise ValueError("root index out of range")
    seen = set()
    leaves = 0
    stack = [(root, 1)]
    max_depth = 0
    while stack:
        idx, depth = stack.pop()
        if idx in seen:
            raise ValueError("node reachable twice; tree must be acyclic")
        seen.add(idx)
        max_depth = max(max_depth, depth)
        node = nodes[idx]
        if node.is_leaf:
            leaves += 1
            if node.threshold != 1:
                raise ValueError("leaf threshold must be 1")
            normalize_attribute(node.attribute)
            if node.attribute != node.attribute.strip():
                raise ValueError("leaf attribute is not trimmed")
        else:
            if node.attribute is not None:
                raise ValueError("interior node must not carry an attribute")
            if not 1 <= node.threshold <= len(node.children):
                raise ValueError(
                    f"threshold {node.threshold} out of range 1..{len(node.children)}")
            for c in node.children:
                if not 0 <= c < len(nodes):
                    raise ValueError("child index out of range")
                stack.append((c, depth + 1))
    if len(seen) != len(nodes):
        raise ValueError("tree contains unreachable nodes")
    if max_depth > MAX_DEPTH:
        raise ValueError(f"tree depth {max_depth} exceeds {MAX_DEPTH}")
    if leaves > MAX_LEAVES:
        raise ValueError(f"tree has {leaves} leaves, limit is {MAX_LEAVES}")


# ---------------------------------------------------------------------------
# text form

_TOKEN_RE = re.compile(r"\s*(\(|\)|,|@|[^\s(),@]+)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise PolicySyntaxError("unexpected end of policy", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def parse(self):
        node = self.parse_or(0)
        if self.i < len(self.tokens):
            raise PolicySyntaxError(f"unexpected {self.peek()!r}", self.pos())
        return node

    # depth counts the open parentheses: a bound on it keeps the
    # recursion below the interpreter's limit on any input
    def parse_or(self, depth):
        items = [self.parse_and(depth)]
        while self.peek() == "or":
            self.next()
            items.append(self.parse_and(depth))
        if len(items) == 1:
            return items[0]
        return {"k": 1, "children": items}

    def parse_and(self, depth):
        items = [self.parse_atom(depth)]
        while self.peek() == "and":
            self.next()
            items.append(self.parse_atom(depth))
        if len(items) == 1:
            return items[0]
        return {"k": len(items), "children": items}

    def parse_atom(self, depth):
        tok, at = self.next()
        if tok == "(":
            if depth == MAX_DEPTH:
                raise PolicySyntaxError(
                    f"parentheses nest deeper than {MAX_DEPTH}", at)
            items = [self.parse_or(depth + 1)]
            while self.peek() == ",":
                self.next()
                items.append(self.parse_or(depth + 1))
            tok2, at2 = self.next()
            if tok2 != ")":
                raise PolicySyntaxError(f"expected ')', got {tok2!r}", at2)
            if self.peek() == "@":
                self.next()
                ktok, kat = self.next()
                if not ktok.isdigit():
                    raise PolicySyntaxError("threshold must be an integer", kat)
                k = int(ktok)
                if not 1 <= k <= len(items):
                    raise PolicySyntaxError(
                        f"threshold {k} out of range 1..{len(items)}", kat)
                return {"k": k, "children": items}
            if len(items) > 1:
                raise PolicySyntaxError("comma list requires a trailing '@k'", at2)
            return items[0]
        if tok in (")", ",", "@"):
            raise PolicySyntaxError(f"unexpected {tok!r}", at)
        if tok in _RESERVED:
            raise PolicySyntaxError(f"{tok!r} is a reserved word", at)
        return {"attr": tok}


def _flatten(nested):
    nodes = []

    def emit(n):
        idx = len(nodes)
        nodes.append(None)
        if "attr" in n:
            nodes[idx] = AccessNode(1, (), n["attr"])
        else:
            kids = tuple(emit(c) for c in n["children"])
            nodes[idx] = AccessNode(n["k"], kids)
        return idx

    emit(nested)
    return AccessTree(tuple(nodes))


def parse_policy(text):
    """Parse policy text into an AccessTree; raises PolicySyntaxError."""
    if not isinstance(text, str) or not text.strip():
        raise PolicySyntaxError("empty policy", 0)
    return _flatten(_Parser(text).parse())


def policy_to_text(tree):
    """Render a tree back to policy text; inverse of parse_policy."""
    nodes = tree.nodes

    def wrap(idx):
        # and/or chains need parentheses when nested; leaf and "(...)@k"
        # renderings are already self-delimiting
        node = nodes[idx]
        s = render(idx)
        infix = (not node.is_leaf and len(node.children) >= 2
                 and node.threshold in (1, len(node.children)))
        return f"({s})" if infix else s

    def render(idx):
        node = nodes[idx]
        if node.is_leaf:
            return node.attribute
        n = len(node.children)
        if node.threshold == 1 and n >= 2:
            return " or ".join(wrap(c) for c in node.children)
        if node.threshold == n and n >= 2:
            return " and ".join(wrap(c) for c in node.children)
        inner = ", ".join(render(c) for c in node.children)
        return f"({inner})@{node.threshold}"

    return render(tree.root)


# ---------------------------------------------------------------------------
# secret sharing and satisfaction

def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def share_secret(tree, secret, rng=None):
    """Split secret over the tree; returns {leaf index: share q_leaf(0)}.

    Each node x gets a polynomial of degree k_x - 1 with q_x(0) equal to
    the value passed down from its parent (the root gets the secret);
    child i receives q_x(i).
    """
    if not isinstance(secret, Scalar):
        raise ValueError("secret must be a Scalar")
    p = secret.modulus
    from .groups import _SYSTEM_RNG
    rng = rng or _SYSTEM_RNG
    shares = {}

    def assign(idx, value):
        node = tree.nodes[idx]
        if node.is_leaf:
            shares[idx] = Scalar(value, p)
            return
        coeffs = [value] + [rng.randrange(0, p) for _ in range(node.threshold - 1)]
        for pos, child in enumerate(node.children, start=1):
            assign(child, _poly_eval(coeffs, pos, p))

    assign(tree.root, secret.value)
    return shares


def satisfies(tree, attributes):
    """Decide satisfaction and pick a deterministic satisfying frontier.

    For every interior node on the frontier the result records the
    lexicographically smallest set of k satisfying child indices.
    """
    attrs = {normalize_attribute(a) for a in attributes}
    nodes = tree.nodes
    memo = {}

    def ok(idx):
        if idx in memo:
            return memo[idx]
        node = nodes[idx]
        if node.is_leaf:
            out = node.attribute in attrs
        else:
            out = sum(1 for c in node.children if ok(c)) >= node.threshold
        memo[idx] = out
        return out

    if not ok(tree.root):
        return SatisfyResult(False, {})

    chosen = {}

    def pick(idx):
        node = nodes[idx]
        if node.is_leaf:
            return
        good = [pos for pos, c in enumerate(node.children, start=1) if ok(c)]
        take = tuple(good[:node.threshold])
        chosen[idx] = take
        for pos in take:
            pick(node.children[pos - 1])

    pick(tree.root)
    return SatisfyResult(True, chosen)

