"""Program shapes: parse and compile a text once per shape, not per text.

A served workload sends one program over and over with different OIDs —
``raise: mod[emp251].sal -> (S, S2) <= emp251.sal -> S, S2 = S + 1.``
for one employee, then for the next — and reads the same way.  The paper
treats an update-program as a mapping from ``ob`` to ``ob'`` (Section 2.2);
these texts are one mapping with different constants.  So the parser and
the compiler key their work by the text's *shape*:

* :data:`~repro.lang.lexer.LITERAL_PATTERN` splits a text into its
  skeleton (punctuation and whitespace) and its literal slots, each of a
  class — OID identifier, integer, decimal, string, variable, comment, or
  one of the keywords ``ins`` / ``del`` / ``mod`` / ``not`` the parser
  branches on.  The lexer's tokens are cut at the same places, by
  construction;
* the first text of a ``(skeleton, classes)`` pair is parsed normally,
  and the slots the parser consumed as object-id terms become its
  *parameters* (a negated number keeps its sign);
* the full key adds the verbatim text of every other slot and which
  parameters are equal: stratification unifies ground terms, so whether
  two constants are equal decides its precedence edges.

Everything derived from the first text — its AST and, for a program, its
:class:`~repro.core.evaluation.CompiledProgram`; for a query body, its
:class:`~repro.core.query.PreparedQuery` — is the shape's template.  A
later text of the same key maps the template's OIDs to its own
(:func:`~repro.core.rules.map_constants`, ``CompiledProgram.bind``,
``PreparedQuery.bind``): one split, two dictionary probes and a rebind of
the generated functions' globals, with no tokenizing, parsing,
stratifying, planning or code generation.  The result equals what a fresh
parse and compile of the text would give.

A text that fails to parse, or a program that fails to compile, creates
no shape; neither does one in which an integer and a decimal parameter
are equal (``1`` and ``1.0``), because mapping OIDs by equality could not
tell them apart.  Rules and bodies built as ASTs bind by their own shape
key in :mod:`repro.core.codegen` (:func:`~repro.core.rules.abstract_constants`).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable

from repro.core.caches import Template, TemplateCache
from repro.core.terms import Oid, intern_oid
from repro.lang.lexer import LITERAL_PATTERN, Token

__all__ = ["ShapeCache", "TextTemplate"]

_KEYWORDS = frozenset(("ins", "del", "mod", "not"))


def _slot_class(slot: str) -> str:
    """The class of one literal slot (see the module doc)."""
    first = slot[0]
    if first in "%#":
        return "%"
    if first in "'\"":
        return "'"
    if first.isdecimal():
        return "." if "." in slot else "0"
    if slot in _KEYWORDS:
        return slot
    if first.isupper() or first == "_":
        return "V"
    return "o"


#: How a parameter slot's text becomes its OID, by slot class.
_CONVERTERS: dict[str, Callable[[str], Oid]] = {
    "o": intern_oid,
    "'": lambda text: intern_oid(text[1:-1]),
    "0": lambda text: intern_oid(int(text)),
    ".": lambda text: intern_oid(float(text)),
}
_NEGATED: dict[str, Callable[[str], Oid]] = {
    "0": lambda text: intern_oid(-int(text)),
    ".": lambda text: intern_oid(-float(text)),
}


def _pattern(values: list[Oid]) -> tuple[int, ...]:
    """Which parameters are equal: each one's first equal position."""
    first: dict[Oid, int] = {}
    return tuple(first.setdefault(value, index) for index, value in enumerate(values))


def _key(shape: tuple, slots: list[str], fixed: tuple[int, ...], values: list[Oid]) -> tuple:
    """The full key: the shape, the text of every slot that is not a
    parameter, and which parameters are equal."""
    return (shape, tuple([slots[index] for index in fixed]), _pattern(values))


#: A text split for lookup, with its parameters when its layout is known.
Probe = namedtuple("Probe", "text shape slots values")


class TextTemplate(Template):
    """A shape's template with the text it was built from, which names
    the artifact."""

    __slots__ = ("text",)

    def __init__(self, text: str, values: tuple, ast, artifact) -> None:
        super().__init__(values, ast, artifact)
        self.text = text


class ShapeCache(TemplateCache):
    """Templates by full key, and each ``(skeleton, classes)`` pair's
    parameter slots (its layout)."""

    def __init__(self, maxsize: int) -> None:
        super().__init__(maxsize)
        self._layouts: dict[tuple, tuple] = {}

    def lookup(self, text: str) -> tuple[Template | None, Probe]:
        """The template of ``text``'s shape, if one is known, and the probe
        that locates it; ``probe.values`` holds the text's parameters."""
        parts = LITERAL_PATTERN.split(text)
        slots = parts[1::2]
        shape = (tuple(parts[0::2]), tuple(map(_slot_class, slots)))
        layout = self._layouts.get(shape)
        if layout is None:
            return None, Probe(text, shape, slots, None)
        params, fixed = layout
        values = [convert(slots[index]) for index, convert in params]
        return self.get(_key(shape, slots, fixed, values)), Probe(text, shape, slots, values)

    def remember(
        self,
        probe: Probe,
        tokens: list[Token],
        consumed: list[tuple[int, bool]],
        ast,
        artifact,
    ) -> TextTemplate | None:
        """Keep ``ast`` (and ``artifact``) as the template of ``probe``'s
        shape, after a parse of the probed text that ``consumed`` the
        tokens at these indexes as object-id terms (``True``: after a
        minus sign).  Returns None — keeping nothing — when the shape
        cannot be templated."""
        literal_slots = [
            index for index, cls in enumerate(probe.shape[1]) if cls != "%"
        ]
        literal_tokens = [
            index
            for index, token in enumerate(tokens)
            if token.type in ("IDENT", "NUMBER", "STRING")
        ]
        if len(literal_slots) != len(literal_tokens):  # pragma: no cover
            return None  # the split and the lexer disagree: never template
        slot_of = dict(zip(literal_tokens, literal_slots))
        classes = probe.shape[1]
        params = []
        for token_index, negated in consumed:
            slot = slot_of[token_index]
            if negated:
                convert = _NEGATED[classes[slot]]
            else:  # an identifier may be a keyword read as an OID
                convert = _CONVERTERS.get(classes[slot], intern_oid)
            params.append((slot, convert))  # in slot order, as read
        taken = {slot for slot, _convert in params}
        fixed = tuple(index for index in range(len(classes)) if index not in taken)
        values = [convert(probe.slots[index]) for index, convert in params]
        if any(
            value is not values[first]
            for value, first in zip(values, _pattern(values))
        ):
            return None  # an integer equals a decimal: see the module doc
        template = TextTemplate(probe.text, tuple(values), ast, artifact)
        with self._lock:
            self._layouts[probe.shape] = (tuple(params), fixed)
            while len(self._layouts) > self.maxsize:
                del self._layouts[next(iter(self._layouts))]
        self.put(_key(probe.shape, probe.slots, fixed, values), template)
        return template

    def clear(self) -> None:
        with self._lock:
            self._layouts.clear()
        super().clear()
