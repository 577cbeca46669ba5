"""Newick reading and writing.

The accepted grammar is the classic one: nested parenthesized groups with
comma-separated children, optional branch lengths (``:0.42``) and optional
internal-node labels, terminated by ``;``.  Branch lengths and internal
labels are parsed and discarded; only the shape and the leaf labels matter
here.  Labels are unquoted runs of characters other than ``( ) , : ;`` and
whitespace.

Rooted trees require every group to have exactly two children.  Unrooted
trees require the outermost group to have three children (two are accepted
and merged, so the output of rooted writers round-trips) and every nested
group to have two.
"""

from __future__ import annotations

from typing import Optional

from .trees import (
    RootedTree,
    TreeError,
    UnrootedTree,
    canonical_root_edge,
    deroot,
    root_at_edge,
    rooted_from_arrays,
    unrooted_from_edges,
)

_LABEL_STOP = set("(),:;'\"[]")


class NewickError(TreeError):
    """Malformed Newick text; ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


def _skip_ws(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _read_label(text: str, i: int) -> tuple[str, int]:
    j = i
    n = len(text)
    while j < n and text[j] not in _LABEL_STOP and not text[j].isspace():
        j += 1
    return text[i:j], j


def _skip_length(text: str, i: int) -> int:
    """Consume ``:<number>``, returning the index after the number."""
    i += 1  # the ':'
    j = i
    n = len(text)
    while j < n and (text[j].isdigit() or text[j] in "+-.eE"):
        j += 1
    if j == i:
        raise NewickError("expected a branch length after ':'", i)
    return j


def parse_newick(text: str, rooted: bool):
    """Parse one tree; returns :class:`RootedTree` or :class:`UnrootedTree`."""
    children: list[list[int]] = []
    labels: list[Optional[str]] = []
    seen: set[str] = set()

    def new_node(kids: list[int], lab: Optional[str]) -> int:
        children.append(kids)
        labels.append(lab)
        return len(children) - 1

    stack: list[list[int]] = []
    open_pos: list[int] = []
    i = _skip_ws(text, 0)
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
                i = _skip_ws(text, i + 1)
                continue
            lab, j = _read_label(text, i)
            if not lab:
                raise NewickError(f"expected a subtree, found {c!r}", i)
            if lab in seen:
                raise NewickError(f"duplicate leaf label {lab!r}", i)
            seen.add(lab)
            last = new_node([], lab)
            i = _skip_ws(text, j)
            if i < n and text[i] == ":":
                i = _skip_ws(text, _skip_length(text, i))
            if stack:
                stack[-1].append(last)
            expecting_subtree = False
            continue
        if c == ",":
            if not stack:
                raise NewickError("',' outside any group", i)
            i = _skip_ws(text, i + 1)
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
            i = _skip_ws(text, i + 1)
            ignored, j = _read_label(text, i)  # internal label, discarded
            i = _skip_ws(text, j)
            if i < n and text[i] == ":":
                i = _skip_ws(text, _skip_length(text, i))
            if stack:
                stack[-1].append(last)
            continue
        if c == ";":
            if stack:
                raise NewickError("unbalanced '('", open_pos[-1])
            i = _skip_ws(text, i + 1)
            if i < n:
                raise NewickError("trailing text after ';'", i)
            break
        raise NewickError(f"unexpected character {c!r}", i)

    return _to_rooted(children, labels, last) if rooted \
        else _to_unrooted(children, labels, last)


def _to_rooted(children: list[list[int]], labels: list[Optional[str]],
               top: int) -> RootedTree:
    for kids in children:
        if len(kids) not in (0, 2):
            raise NewickError(
                f"rooted trees are binary; found a group with {len(kids)} children")
    left = [kids[0] if kids else -1 for kids in children]
    right = [kids[1] if kids else -1 for kids in children]
    return rooted_from_arrays(top, left, right, labels)


def _to_unrooted(children: list[list[int]], labels: list[Optional[str]],
                 top: int) -> UnrootedTree:
    top_kids = children[top]
    if len(top_kids) not in (0, 2, 3):
        raise NewickError(
            f"the outermost group of an unrooted tree needs 3 children, got {len(top_kids)}")
    for v, kids in enumerate(children):
        if v != top and len(kids) not in (0, 2):
            raise NewickError(
                f"unrooted trees are binary; found a group with {len(kids)} children")
    if len(top_kids) == 2:
        return deroot(_to_rooted(children, labels, top))
    return unrooted_from_edges(
        len(children), [(v, c) for v, kids in enumerate(children) for c in kids],
        labels)


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
