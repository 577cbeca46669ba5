"""Parser and writer checks: frozen strings first, round trips second."""

import gc
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mastkit import (
    NewickError,
    RootedTree,
    UnrootedTree,
    canonical_root_edge,
    deroot,
    isomorphic,
    parse_newick,
    root_at_edge,
    write_newick,
)
from mastkit import generators, newick, trees
from mastkit.generators import MODELS, GenSpec, generate
from mastkit.trees import _LabeledTree, rooted_from_arrays, unrooted_from_edges


def test_rooted_parse_preserves_child_order():
    tree = parse_newick("(4,(3,(1,(2,5))));", rooted=True)
    assert isinstance(tree, RootedTree)
    assert tree.seq() == ("4", "3", "1", "2", "5")
    assert write_newick(tree) == "(4,(3,(1,(2,5))));"


def test_unrooted_quartet_parses_to_six_nodes():
    tree = parse_newick("((1,2),(3,4));", rooted=False)
    assert isinstance(tree, UnrootedTree)
    assert len(tree) == 4
    assert tree.num_nodes() == 6
    degrees = sorted(len(tree.adj[v]) for v in range(tree.num_nodes()))
    assert degrees == [1, 1, 1, 1, 3, 3]


def test_unrooted_writer_canonicalizes_two_child_top():
    # A two-child outer group is accepted; the writer re-emits the
    # standard three-child form rooted at an internal node.
    tree = parse_newick("((1,2),(3,4));", rooted=False)
    assert write_newick(tree) == "(1,2,(3,4));"


def test_single_leaf_and_cherry():
    for rooted in (True, False):
        one = parse_newick("1;", rooted=rooted)
        assert len(one) == 1 and write_newick(one) == "1;"
        two = parse_newick("(1,2);", rooted=rooted)
        assert len(two) == 2 and write_newick(two) == "(1,2);"


def test_unrooted_triple():
    tree = parse_newick("(1,2,3);", rooted=False)
    assert len(tree) == 3 and tree.num_nodes() == 4
    assert write_newick(tree) == "(1,2,3);"


def test_rooted_rejects_ternary_group():
    with pytest.raises(NewickError):
        parse_newick("(1,2,3);", rooted=True)


def test_unrooted_rejects_four_child_top():
    with pytest.raises(NewickError):
        parse_newick("(1,(2,3),(4,5),6);", rooted=False)


# One case per raise site of the parser: text, rootedness, offset, message.
ERRORS = [
    ("((1,2);", False, 0, "unbalanced '('"),
    ("(1,2));", False, 5, "unbalanced ')'"),
    ("(1,,2);", False, 3, "expected a subtree, found ','"),
    ("(1,1);", False, 3, "duplicate leaf label '1'"),
    ("(1,2)", False, 5, "unexpected end of input"),
    ("(1,2);x", False, 6, "trailing text after ';'"),
    ("", False, 0, "unexpected end of input"),
    ("(1:,2);", False, 3, "expected a branch length after ':'"),
    ("((1,2): 3,4);", False, 7, "expected a branch length after ':'"),
    ("1,2;", False, 1, "',' outside any group"),
    ("((1),2,3);", False, 1, "group with fewer than two children"),
    ("(1 2,3);", False, 3, "unexpected character '2'"),
    ("(1,2,3,4);", False, None,
     "the outermost group of an unrooted tree needs 3 children, got 4"),
    ("(1,2,(3,4,5));", False, None,
     "unrooted trees are binary; found a group with 3 children"),
    ("((1,2,3),4);", True, None,
     "rooted trees are binary; found a group with 3 children"),
]


@pytest.mark.parametrize(
    "text,rooted,position,message", ERRORS,
    ids=[f"{t}-{p}" + ("-rooted" if r else "") for t, r, p, _ in ERRORS])
def test_error_positions(text, rooted, position, message):
    with pytest.raises(NewickError) as err:
        parse_newick(text, rooted=rooted)
    assert err.value.position == position
    suffix = "" if position is None else f" (at offset {position})"
    assert str(err.value) == message + suffix
    assert _outcome(_oracle_parse, text, rooted) == _outcome(
        parse_newick, text, rooted)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32))
def test_unrooted_round_trip(n, seed):
    tree = generate(GenSpec("uniform", n, seed))
    back = parse_newick(write_newick(tree), rooted=False)
    assert isomorphic(tree, back)
    assert back.taxa == tree.taxa


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=3, max_value=24), seed=st.integers(0, 2**32))
def test_rooted_round_trip_is_exact(n, seed):
    from mastkit import canonical_root_edge, root_at_edge
    base = generate(GenSpec("uniform", n, seed))
    tree = root_at_edge(base, canonical_root_edge(base))
    back = parse_newick(write_newick(tree), rooted=True)
    # Rooted writing preserves child order, so the string is a fixed point.
    assert back.seq() == tree.seq()
    assert write_newick(back) == write_newick(tree)


# -- the character-by-character parser the regex reader replaced ------------
# Kept as the oracle of the differential tests below.

_ORACLE_STOP = set("(),:;'\"[]")


def _oracle_skip_ws(text, i):
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _oracle_read_label(text, i):
    j = i
    n = len(text)
    while j < n and text[j] not in _ORACLE_STOP and not text[j].isspace():
        j += 1
    return text[i:j], j


def _oracle_skip_length(text, i):
    i += 1  # the ':'
    j = i
    n = len(text)
    while j < n and (text[j].isdigit() or text[j] in "+-.eE"):
        j += 1
    if j == i:
        raise NewickError("expected a branch length after ':'", i)
    return j


def _oracle_parse(text, rooted):
    children = []
    labels = []
    seen = set()

    def new_node(kids, lab):
        children.append(kids)
        labels.append(lab)
        return len(children) - 1

    stack = []
    open_pos = []
    i = _oracle_skip_ws(text, 0)
    n = len(text)
    last = -1
    expecting_subtree = True
    while True:
        if i >= n:
            raise NewickError("unexpected end of input", n)
        c = text[i]
        if expecting_subtree:
            if c == "(":
                stack.append([])
                open_pos.append(i)
                i = _oracle_skip_ws(text, i + 1)
                continue
            lab, j = _oracle_read_label(text, i)
            if not lab:
                raise NewickError(f"expected a subtree, found {c!r}", i)
            if lab in seen:
                raise NewickError(f"duplicate leaf label {lab!r}", i)
            seen.add(lab)
            last = new_node([], lab)
            i = _oracle_skip_ws(text, j)
            if i < n and text[i] == ":":
                i = _oracle_skip_ws(text, _oracle_skip_length(text, i))
            if stack:
                stack[-1].append(last)
            expecting_subtree = False
            continue
        if c == ",":
            if not stack:
                raise NewickError("',' outside any group", i)
            i = _oracle_skip_ws(text, i + 1)
            expecting_subtree = True
            continue
        if c == ")":
            if not stack:
                raise NewickError("unbalanced ')'", i)
            kids = stack.pop()
            at = open_pos.pop()
            if len(kids) < 2:
                raise NewickError("group with fewer than two children", at)
            last = new_node(kids, None)
            i = _oracle_skip_ws(text, i + 1)
            ignored, j = _oracle_read_label(text, i)
            i = _oracle_skip_ws(text, j)
            if i < n and text[i] == ":":
                i = _oracle_skip_ws(text, _oracle_skip_length(text, i))
            if stack:
                stack[-1].append(last)
            continue
        if c == ";":
            if stack:
                raise NewickError("unbalanced '('", open_pos[-1])
            i = _oracle_skip_ws(text, i + 1)
            if i < n:
                raise NewickError("trailing text after ';'", i)
            break
        raise NewickError(f"unexpected character {c!r}", i)

    return _oracle_to_rooted(children, labels, last) if rooted \
        else _oracle_to_unrooted(children, labels, last)


def _oracle_to_rooted(children, labels, top):
    for kids in children:
        if len(kids) not in (0, 2):
            raise NewickError(
                f"rooted trees are binary; found a group with {len(kids)} children")
    left = [kids[0] if kids else -1 for kids in children]
    right = [kids[1] if kids else -1 for kids in children]
    return rooted_from_arrays(top, left, right, labels)


def _oracle_to_unrooted(children, labels, top):
    top_kids = children[top]
    if len(top_kids) not in (0, 2, 3):
        raise NewickError(
            f"the outermost group of an unrooted tree needs 3 children, got {len(top_kids)}")
    for v, kids in enumerate(children):
        if v != top and len(kids) not in (0, 2):
            raise NewickError(
                f"unrooted trees are binary; found a group with {len(kids)} children")
    if len(top_kids) == 2:
        return deroot(_oracle_to_rooted(children, labels, top))
    return unrooted_from_edges(
        len(children), [(v, c) for v, kids in enumerate(children) for c in kids],
        labels)


def _arrays(tree):
    """Everything a parsed tree holds, node ids included."""
    if isinstance(tree, RootedTree):
        return ("rooted", tree.left, tree.right, tree.labels)
    return ("unrooted", tree.adj, tree.labels)


def _outcome(parser, text, rooted):
    """The parsed arrays, or the error message and offset."""
    try:
        return _arrays(parser(text, rooted=rooted))
    except NewickError as err:
        return ("error", str(err), err.position)


_SYMBOLS = list("()[],:;'\"") + list("0123456789") + list("abxyE") + [
    "\u00b2", ".", "e", "+", "-", " ", "\t", "\n", "\u00a0"]


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(_SYMBOLS), max_size=24))
# Each change of the parser's state, whatever the draws: an internal
# label then a length, a second length, a label after a leaf, a second
# internal label, text after ';', a ':' where a subtree is due, no text.
@example(text="((a,b)x:1,c,d);")
@example(text="(a:1:2,b,c);")
@example(text="(a b,c,d);")
@example(text="((a,b)x y,c,d);")
@example(text="(a,b,c);d")
@example(text="(:1,b,c);")
@example(text="")
def test_parser_matches_the_character_oracle(text):
    for rooted in (True, False):
        assert _outcome(parse_newick, text, rooted) == _outcome(
            _oracle_parse, text, rooted)


# -- the regex tokenizer the string passes replaced --------------------------
# Kept as the oracle of the tokenizer test below: one token per match, a ':'
# with the label characters that follow it, a label, or any other single
# character, each after the whitespace before it.

_TOKEN = re.compile(r"\s*(:[^\s(),:;'\"\[\]]*|[^\s(),:;'\"\[\]]+|\S)")

# ASCII whitespace, then whitespace past ASCII, then U+FEFF, which is not.
_TOKEN_SYMBOLS = list("(),:;'\"[]") + list("ab19E.+-\u00b2") + list(
    " \t\n\r\x0b\x0c") + ["\x1c", "\x85", "\u00a0", "\u3000", "\ufeff"]


@settings(max_examples=400, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(_TOKEN_SYMBOLS), max_size=32))
@example(text="(a:1,b[c]:2.5e-1, \u3000d\ufeff)x:1;")
@example(text="")
def test_tokens_and_error_offsets_match_the_regex_oracle(text):
    matches = list(_TOKEN.finditer(text))
    assert newick._tokens(text) == [m.group(1) for m in matches]
    for k, match in enumerate(matches):
        assert newick._error(text, k, "m").position == match.start(1)


def test_str_isspace_is_the_regex_whitespace_class():
    # ``_tokens`` cuts with ``str.split``, which splits at ``str.isspace``
    # characters; the regex oracle skips ``\s``.  They agree everywhere.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def test_every_route_keeps_untracked_neighbor_tuples(monkeypatch):
    """Each way an unrooted tree is made stores one tuple per node, with
    the neighbors in the oracle's order (children then parent, or edge
    order), and the garbage collector stops tracking every one of them."""
    cases = []  # (tree, each node's neighbors in the expected order)
    for text in ("(1,2,((3,4),5));", "((1,2),(3,(4,5)));", "1;"):
        oracle = _oracle_parse(text, rooted=False)
        cases.append((parse_newick(text, rooted=False),
                      [list(nbrs) for nbrs in oracle.adj]))
    given = [[4], [4], [5], [5], [5, 0, 1], [4, 3, 2]]
    cases.append((UnrootedTree(given, ["a", "b", "c", "d", None, None]),
                  given))

    # The edge builder's routes: a node lists its edges in the order the
    # builder was given them.
    calls = []

    def recording(num_nodes, edges, labels):
        edges = list(edges)
        calls.append((num_nodes, edges))
        return unrooted_from_edges(num_nodes, edges, labels)

    monkeypatch.setattr(trees, "unrooted_from_edges", recording)
    monkeypatch.setattr(generators, "unrooted_from_edges", recording)

    def built(tree):
        num_nodes, edges = calls[-1]
        nbrs = [[] for _ in range(num_nodes)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tree, nbrs

    for model in MODELS:
        cases.append(built(generate(GenSpec(model, 16, seed=5))))
    cases.append(built(deroot(parse_newick("((1,2),(3,(4,5)));", rooted=True))))
    uniform = generate(GenSpec("uniform", 16, seed=6))
    cases.append(built(uniform.restrict(["2", "3", "5", "7", "11", "13"])))
    cases.append(built(uniform.restrict(["9"])))

    for tree, expected in cases:
        assert all(type(nbrs) is tuple for nbrs in tree.adj)
        assert [list(nbrs) for nbrs in tree.adj] == expected
    gc.collect()
    for tree, _ in cases:
        assert not any(map(gc.is_tracked, tree.adj))


_SPACES = [" ", "\t", "\n", "\u00a0", "  \n"]
_LENGTHS = ["1", "0.25", "2.5e-3", "1E+2", "-0.5", "\u00b23", "7."]
_INTERNAL = ["x", "node7", "0.95", "100"]


def _decorate(compact: str, rng: random.Random) -> str:
    """``compact`` with whitespace between tokens, and branch lengths and
    internal labels after subtrees."""
    out = []
    i = 0
    while i < len(compact):
        c = compact[i]
        if c in "(),;":
            token, i = c, i + 1
        else:
            j = i
            while compact[j] not in "(),;":
                j += 1
            token, i = compact[i:j], j
        out.append(token)
        if token == ")" and rng.random() < 0.5:
            out.append(rng.choice(_SPACES) if rng.random() < 0.5 else "")
            out.append(rng.choice(_INTERNAL))
        if token not in "(,;" and rng.random() < 0.5:
            out.append(rng.choice(_SPACES) if rng.random() < 0.5 else "")
            out.append(":" + rng.choice(_LENGTHS))
        if rng.random() < 0.4:
            out.append(rng.choice(_SPACES))
    lead = rng.choice(_SPACES) if rng.random() < 0.5 else ""
    return lead + "".join(out)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(0, 2**32))
# Long texts, so that errors from the edits sit deep inside them.
@example(n=2000, seed=1)
@example(n=2048, seed=2)
@example(n=1999, seed=3)
def test_decorated_text_parses_to_the_compact_tree(n, seed):
    rng = random.Random(seed)
    tree = generate(GenSpec("uniform", n, seed))
    texts = [(write_newick(tree), False)]
    if n >= 2:
        texts.append(
            (write_newick(root_at_edge(tree, canonical_root_edge(tree))), True))
    for compact, rooted in texts:
        plain = _arrays(parse_newick(compact, rooted=rooted))
        for _ in range(3):
            text = _decorate(compact, rng)
            assert _arrays(parse_newick(text, rooted=rooted)) == plain, text
            assert _outcome(_oracle_parse, text, rooted) == plain, text
            # A few edits make text that fails, or parses, deep inside.
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(chars) + 1)
                if rng.random() < 0.5 and at < len(chars):
                    del chars[at]
                else:
                    chars.insert(at, rng.choice(_SYMBOLS))
            edited = "".join(chars)
            for either in (True, False):
                assert _outcome(parse_newick, edited, either) == _outcome(
                    _oracle_parse, edited, either), edited


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(0, 2**32))
def test_parsed_label_index_matches_a_fresh_one(n, seed):
    tree = generate(GenSpec("uniform", n, seed))
    texts = [(write_newick(tree), False)]  # a three-child top
    if n >= 2:
        rooted = write_newick(root_at_edge(tree, canonical_root_edge(tree)))
        texts += [(rooted, True), (rooted, False)]  # two-child top unrooted
    for text, rooted in texts:
        parsed = parse_newick(text, rooted=rooted)
        fresh = _LabeledTree(parsed.labels)
        assert parsed._leaf_node == fresh._leaf_node
        assert parsed.taxa == fresh.taxa == tree.taxa
        for label, node in fresh._leaf_node.items():
            assert parsed.leaf_node(label) == node
