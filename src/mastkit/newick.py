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
"""

from __future__ import annotations

import re
from typing import Optional

from .trees import (
    RootedTree,
    TreeError,
    UnrootedTree,
    canonical_root_edge,
    deroot,
    root_at_edge,
    rooted_from_arrays,
)

# ``\s`` is exactly ``str.isspace`` and ``\d`` exactly ``str.isdecimal``.
_SPACE = re.compile(r"\s*")
# What follows a subtree: a label (group 1), then optionally ':' and a
# branch length (group 2), with the whitespace around each.
_TAIL = re.compile(r"\s*([^\s(),:;'\"\[\]]*)\s*(?::([\d+\-.eE]*)\s*)?")


class NewickError(TreeError):
    """Malformed Newick text; ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


def _past_tail(text: str, tail: re.Match) -> int:
    """The offset after ``tail``, checking its branch length if it has one."""
    if tail.group(2) is None:
        return tail.end()
    start, j = tail.span(2)
    # A length's digits are those of ``str.isdigit``, which also takes
    # digits such as '²' that ``\d`` leaves to this loop.
    while j < len(text) and (text[j].isdigit() or text[j] in "+-.eE"):
        j += 1
    if j == start:
        raise NewickError("expected a branch length after ':'", start)
    return _SPACE.match(text, j).end()


def parse_newick(text: str, rooted: bool):
    """Parse one tree; returns :class:`RootedTree` or :class:`UnrootedTree`.

    Nodes are numbered as they close, leaves and groups alike, and each
    lists its children, then its parent.
    """
    adj: list[list[int]] = []
    labels: list[Optional[str]] = []
    seen: set[str] = set()
    stack: list[list[int]] = []  # the children of each open group
    open_pos: list[int] = []
    wide = None  # (id, arity) of the first group with over two children
    n = len(text)
    i = _SPACE.match(text).end()
    expecting_subtree = True
    while True:
        if i >= n:
            raise NewickError("unexpected end of input", n)
        c = text[i]
        if expecting_subtree:
            if c == "(":
                stack.append([])
                open_pos.append(i)
                i = _SPACE.match(text, i + 1).end()
                continue
            tail = _TAIL.match(text, i)
            lab = tail.group(1)
            if not lab:
                raise NewickError(f"expected a subtree, found {c!r}", i)
            if lab in seen:
                raise NewickError(f"duplicate leaf label {lab!r}", i)
            seen.add(lab)
            node = len(adj)
            adj.append([])
            labels.append(lab)
            expecting_subtree = False
        elif c == ",":
            if not stack:
                raise NewickError("',' outside any group", i)
            i = _SPACE.match(text, i + 1).end()
            expecting_subtree = True
            continue
        elif c == ")":
            if not stack:
                raise NewickError("unbalanced ')'", i)
            kids = stack.pop()
            at = open_pos.pop()
            if len(kids) < 2:
                raise NewickError("group with fewer than two children", at)
            node = len(adj)
            if len(kids) > 2 and wide is None:
                wide = (node, len(kids))
            for kid in kids:
                adj[kid].append(node)
            adj.append(kids)
            labels.append(None)
            tail = _TAIL.match(text, i + 1)  # the internal label is discarded
        elif c == ";":
            if stack:
                raise NewickError("unbalanced '('", open_pos[-1])
            i = _SPACE.match(text, i + 1).end()
            if i < n:
                raise NewickError("trailing text after ';'", i)
            break
        else:
            raise NewickError(f"unexpected character {c!r}", i)
        i = _past_tail(text, tail)
        if stack:
            stack[-1].append(node)

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
    return UnrootedTree(adj, labels, _checked=True)


def _to_rooted(adj: list[list[int]], labels: list[Optional[str]],
               top: int) -> RootedTree:
    # A group's list starts with its two children.
    left = [a[0] if lab is None else -1 for a, lab in zip(adj, labels)]
    right = [a[1] if lab is None else -1 for a, lab in zip(adj, labels)]
    return rooted_from_arrays(top, left, right, labels)


def _emit(tree: RootedTree, stack: list) -> str:
    """Newick text for the items on ``stack``, taken from its end: strings
    are written as they are, node ids as their subtrees."""
    left, right, labels = tree.left, tree.right, tree.labels
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
    :func:`~mastkit.trees.root_at_edge`) with the root suppressed, so the
    smallest taxon opens a three-way top group.  Equal trees therefore
    serialize identically regardless of internal node numbering.
    """
    if isinstance(tree, RootedTree):
        return _emit(tree, [tree.root])
    if isinstance(tree, UnrootedTree):
        if len(tree) == 1:
            return f"{tree.labels[0]};"
        rooted = root_at_edge(tree, canonical_root_edge(tree))
        leaf, rest = rooted.children(rooted.root)
        if rooted.is_leaf(rest):  # two leaves: (x,y);
            return _emit(rooted, [rooted.root])
        a, b = rooted.children(rest)
        return _emit(rooted, [")", b, ",", a, ",", leaf, "("])
    raise TypeError(f"not a tree: {tree!r}")
