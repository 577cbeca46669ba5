"""Newick reading and writing.

The accepted grammar is the classic one: nested parenthesized groups with
comma-separated children, optional branch lengths (``:0.42``) and optional
internal-node labels, terminated by ``;``.  Branch lengths and internal
labels are parsed and discarded; only the shape and the leaf labels matter
here.  Labels are unquoted runs of characters other than ``( ) , : ; ' "
[ ]`` and whitespace.

Rooted trees require every group to have exactly two children.  Unrooted
trees require the outermost group to have three children (two are accepted
and merged, so the output of rooted writers round-trips) and every nested
group to have two.

The reader tokenizes the whole text with C-level string passes (a token
is a label, a ``:`` with the branch length after it, or any other single
character; whitespace is skipped): each of ``( ) , ; ' " [ ]`` gets
spaces around it, each ``:`` one before it, and ``str.split`` cuts the
result.  It then builds the adjacency in one loop over the tokens as
groups close.  A leaf starts as ``()``, a group's
children become its tuple when it closes, and each child gets its parent
added then, so no list per node outlives the parse (why tuples: see
:class:`~mastkit.trees.UnrootedTree`).  A small state says what the next
token may be, so each token is read once and never looked ahead to.  An
error's text offset is found only when it is raised, by finding each
token in the text in turn up to the bad one.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional

from .trees import (
    RootedTree,
    TreeError,
    UnrootedTree,
    canonical_root_edge,
    deroot,
    leaf_ranks,
    orient_at_edge,
    rooted_from_arrays,
)

# ``\d`` is exactly ``str.isdecimal``.
_LENGTH = re.compile(r"[\d+\-.eE]+")
_NOT_LABEL = frozenset("(),:;'\"[]")


class NewickError(TreeError):
    """Malformed Newick text; ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


def _tokens(text: str) -> list[str]:
    """The tokens of ``text``: a ':' with the label characters that follow
    it (a branch length, checked later), a label, or any other single
    character.  ``str.split`` cuts at ``str.isspace`` characters, which are
    exactly those of ``re``'s ``\\s``."""
    for c in "(),;'\"[]":
        if c in text:
            text = text.replace(c, f" {c} ")
    return text.replace(":", " :").split()


def _error(text: str, k: int, message: str, past: int = 0) -> NewickError:
    """The error ``past`` characters into token ``k`` of ``text``.

    Tokens are whitespace-free and in text order, with only whitespace
    between them, so each one is found where the one before it ends."""
    end = 0
    for tok in islice(_tokens(text), k + 1):
        start = text.find(tok, end)
        end = start + len(tok)
    return NewickError(message, start + past)


def _check_length(text: str, tok: str, k: int) -> None:
    """Check the branch length of ``tok``, the ':' token ``k``."""
    if _LENGTH.fullmatch(tok, 1):
        return
    # A length's digits are those of ``str.isdigit``, which also takes
    # digits such as '²' that ``\d`` leaves to this loop.
    j = 1
    while j < len(tok) and (tok[j].isdigit() or tok[j] in "+-.eE"):
        j += 1
    if j == 1:
        raise _error(text, k, "expected a branch length after ':'", 1)
    if j < len(tok):
        raise _error(text, k, f"unexpected character {tok[j]!r}", j)


def parse_newick(text: str, rooted: bool):
    """Parse one tree; returns :class:`RootedTree` or :class:`UnrootedTree`.

    Nodes are numbered as they close, leaves and groups alike, and each
    lists its children, then its parent.  The first error in text order
    is raised, with its offset; running out of tokens before ``;`` is the
    token loop's ``else``.
    """
    tokens = _tokens(text)
    adj: list[tuple[int, ...]] = []
    labels: list[Optional[str]] = []
    leaf_node: dict[str, int] = {}
    kids: list[int] = []  # the innermost open group's children (or the top)
    outer: list[list[int]] = []  # the children of the groups around it
    open_at: list[int] = []  # the token index of each open group's '('
    wide = None  # (id, arity) of the first group with over two children
    # The state says what the next token may be: a subtree alone, or else
    # ',', ')' or ';' and before them an internal label then a length
    # (after ')'), a length (after a leaf or an internal label) or nothing
    # (after a length).  Locals, not module constants: the loop reads them
    # on every token.
    subtree, label_next, length_next, end_next = range(4)
    state = subtree
    for k, tok in enumerate(tokens):
        if state == subtree:
            if tok == "(":
                outer.append(kids)
                kids = []
                open_at.append(k)
                continue
            if tok[0] in _NOT_LABEL:
                raise _error(text, k, f"expected a subtree, found {tok[0]!r}")
            if tok in leaf_node:
                raise _error(text, k, f"duplicate leaf label {tok!r}")
            node = len(adj)
            leaf_node[tok] = node
            adj.append(())
            labels.append(tok)
            kids.append(node)
            state = length_next
        elif tok == ",":
            if not open_at:
                raise _error(text, k, "',' outside any group")
            state = subtree
        elif tok == ")":
            if not open_at:
                raise _error(text, k, "unbalanced ')'")
            at = open_at.pop()
            if len(kids) < 2:
                raise _error(text, at, "group with fewer than two children")
            node = len(adj)
            if len(kids) > 2 and wide is None:
                wide = (node, len(kids))
            for kid in kids:
                adj[kid] += (node,)
            adj.append(tuple(kids))
            labels.append(None)
            kids = outer.pop()
            kids.append(node)
            state = label_next
        elif tok == ";":
            if open_at:
                raise _error(text, open_at[-1], "unbalanced '('")
            if k + 1 < len(tokens):
                raise _error(text, k + 1, "trailing text after ';'")
            break
        elif tok[0] == ":" and state != end_next:
            _check_length(text, tok, k)
            state = end_next
        elif state == label_next and tok[0] not in _NOT_LABEL:
            state = length_next  # the internal label is discarded
        else:
            raise _error(text, k, f"unexpected character {tok[0]!r}")
    else:
        raise NewickError("unexpected end of input", len(text))

    top = len(adj) - 1  # the outermost subtree closes last
    if rooted:
        if wide:
            raise NewickError(
                f"rooted trees are binary; found a group with {wide[1]} children")
        return _to_rooted(adj, labels, top)
    if len(adj[top]) not in (0, 2, 3):
        raise NewickError(
            f"the outermost group of an unrooted tree needs 3 children, got {len(adj[top])}")
    if wide and wide[0] != top:
        raise NewickError(
            f"unrooted trees are binary; found a group with {wide[1]} children")
    if len(adj[top]) == 2:
        return deroot(_to_rooted(adj, labels, top))
    # The parse ids are final here, so the tree takes the label index as is.
    return UnrootedTree(adj, labels, _checked=True, _leaf_node=leaf_node)


def _to_rooted(adj: list[tuple[int, ...]], labels: list[Optional[str]],
               top: int) -> RootedTree:
    # A group's tuple starts with its two children.
    left = [a[0] if lab is None else -1 for a, lab in zip(adj, labels)]
    right = [a[1] if lab is None else -1 for a, lab in zip(adj, labels)]
    return rooted_from_arrays(top, left, right, labels)


def _emit(left: list[int], right: list[int], labels: list[Optional[str]],
          stack: list) -> str:
    """Newick text for the items on ``stack``, taken from its end: strings
    are written as they are, node ids as their subtrees."""
    parts: list[str] = []
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            parts.append(x)
        elif left[x] == -1:
            parts.append(labels[x])
        else:
            parts.append("(")
            stack += (")", right[x], ",", left[x])
    parts.append(";")
    return "".join(parts)


def write_newick(tree) -> str:
    """Serialize a tree.

    Rooted trees keep their child order.  An unrooted tree is written in
    its canonical form: the canonical rooting (at the pendant edge of the
    smallest taxon, every child pair ordered by smallest taxon, see
    :func:`~mastkit.trees.orient_at_edge`, whose arrays it reads) with the
    root suppressed, so the smallest taxon opens a three-way top group.
    Equal trees therefore serialize identically regardless of internal
    node numbering.
    """
    if isinstance(tree, RootedTree):
        return _emit(tree.left, tree.right, tree.labels, [tree.root])
    if isinstance(tree, UnrootedTree):
        if len(tree) == 1:
            return f"{tree.labels[0]};"
        left, right, labels, _, _ = orient_at_edge(
            tree, canonical_root_edge(tree), ranks=leaf_ranks(tree))
        leaf, rest = left[-1], right[-1]  # the new root's children
        # Two leaves give (x,y); more suppress the root: (x,A,B);
        kids = [rest] if left[rest] == -1 else [right[rest], ",", left[rest]]
        return _emit(left, right, labels, [")", *kids, ",", leaf, "("])
    raise TypeError(f"not a tree: {tree!r}")
