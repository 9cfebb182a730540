"""Recursive-descent parser for update programs and object-base files.

See :mod:`repro.lang` for the grammar overview.  The parser builds the AST
of :mod:`repro.core` directly — there is no separate parse tree.  Paper
notations handled here:

* the path shorthand ``E.isa -> empl / sal -> S`` expands into one
  version-atom per step (Section 2.3's ``v.m1->r1/m2->r2/...``);
* the delete-all head ``del[V].*`` (the paper's ``del[v].``);
* rule labels (``rule1: ...``) name rules for stratification reports.
"""

from __future__ import annotations

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.caches import Template, register_cache
from repro.core.errors import ProgramError, ReproError, TermError
from repro.core.evaluation import compile_program
from repro.core.exprs import BinOp, Expr, Neg
from repro.core.objectbase import ObjectBase
from repro.core.query import PreparedQuery
from repro.core.rules import UpdateProgram, UpdateRule, map_constants
from repro.core.terms import Term, UpdateKind, Var, VersionId, VersionVar, intern_oid
from repro.lang.errors import ParseError
from repro.lang.lexer import Token, tokenize
from repro.lang.shapes import ShapeCache

__all__ = [
    "parse_program",
    "parse_rule",
    "parse_body",
    "prepare_query",
    "parse_object_base",
    "parse_term",
    "parse_derived_rules",
]

_KIND_NAMES = {"ins": UpdateKind.INSERT, "del": UpdateKind.DELETE, "mod": UpdateKind.MODIFY}
_COMPARISONS = {"EQ": "=", "NE": "!=", "LT": "<", "GT": ">", "LE": "=<", "GE": ">="}
#: Token comparison spelling -> core operator spelling.
_COMPARISON_OPS = {"=": "=", "!=": "!=", "<": "<", ">": ">", "=<": "<=", ">=": ">="}


class _Parser:
    """Token-stream cursor with the usual expect/accept helpers.

    ``consumed`` lists ``(token index, negated)`` for every token read as
    an OID of an object-id term, in reading order — the parameters of the
    text's shape (:mod:`repro.lang.shapes`)."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.position = 0
        self.consumed: list[tuple[int, bool]] = []

    # -- cursor ---------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.type != "EOF":
            self.position += 1
        return token

    def accept(self, token_type: str) -> Token | None:
        if self.peek().type == token_type:
            return self.advance()
        return None

    def expect(self, token_type: str, context: str) -> Token:
        token = self.peek()
        if token.type != token_type:
            raise self.error(f"expected {context}, found {token.describe()}")
        return self.advance()

    def error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    def at_end(self) -> bool:
        return self.peek().type == "EOF"

    # -- terms ------------------------------------------------------------
    def parse_vid_term(self) -> Term:
        """A version-id-term: ``ident``, ``Variable``, ``'quoted oid'``,
        number, ``?VersionVariable``, or ``kind( vid )``."""
        token = self.peek()
        if token.type == "QMARK":
            self.advance()
            name = self.expect("IDENT", "a version-variable name after '?'")
            return VersionVar(name.value)
        if token.type == "IDENT" and token.value in _KIND_NAMES:
            if self.peek(1).type == "LPAREN":
                self.advance()
                self.expect("LPAREN", "'(' after version functor")
                inner = self.parse_vid_term()
                self.expect("RPAREN", "')' closing version functor")
                return VersionId(_KIND_NAMES[token.value], inner)
        return self.parse_object_id_term()

    def parse_object_id_term(self) -> Term:
        """An object-id-term: OID or variable (no functors)."""
        token = self.advance()
        if token.type == "IDENT":
            if token.value[0].isupper() or token.value[0] == "_":
                return Var(token.value)
            self.consumed.append((self.position - 1, False))
            # Interned: parsed programs, bases and queries share one Oid
            # object per symbol, so index probes compare by identity.
            return intern_oid(token.value)
        if token.type == "STRING":
            self.consumed.append((self.position - 1, False))
            return intern_oid(token.value)
        if token.type == "NUMBER":
            self.consumed.append((self.position - 1, False))
            return intern_oid(_number(token.value))
        if token.type == "MINUS" and self.peek().type == "NUMBER":
            number = self.advance()
            self.consumed.append((self.position - 1, True))
            return intern_oid(-_number(number.value))
        raise ParseError(
            f"expected a term, found {token.describe()}", token.line, token.column
        )

    # -- expressions -------------------------------------------------------
    def parse_expr(self) -> Expr:
        left = self.parse_expr_term()
        while self.peek().type in ("PLUS", "MINUS"):
            op = self.advance()
            right = self.parse_expr_term()
            left = BinOp("+" if op.type == "PLUS" else "-", left, right)
        return left

    def parse_expr_term(self) -> Expr:
        left = self.parse_expr_factor()
        while self.peek().type in ("STAR", "SLASH"):
            op = self.advance()
            right = self.parse_expr_factor()
            left = BinOp("*" if op.type == "STAR" else "/", left, right)
        return left

    def parse_expr_factor(self) -> Expr:
        token = self.peek()
        if token.type == "LPAREN":
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN", "')' closing the expression")
            return inner
        if token.type == "MINUS":
            self.advance()
            return Neg(self.parse_expr_factor())
        if token.type in ("IDENT", "STRING", "NUMBER"):
            term = self.parse_object_id_term()
            return term
        raise self.error(f"expected an expression, found {token.describe()}")

    # -- atoms ---------------------------------------------------------------
    def parse_method_application(self) -> tuple[str, tuple[Term, ...], Term]:
        """``method [@ arg {, arg}] -> result`` for version atoms and
        ins/del update atoms."""
        method, args = self.parse_method_and_args()
        self.expect("ARROW", "'->' before the method result")
        result = self.parse_object_id_term()
        return method, args, result

    def parse_method_and_args(self) -> tuple[str, tuple[Term, ...]]:
        name_token = self.expect("IDENT", "a method name")
        args: list[Term] = []
        if self.accept("AT"):
            args.append(self.parse_object_id_term())
            while self.peek().type == "COMMA" and _looks_like_arg(self.peek(1)):
                self.advance()
                args.append(self.parse_object_id_term())
        return name_token.value, tuple(args)

    def parse_update_atom(self, *, in_head: bool) -> UpdateAtom:
        kind_token = self.expect("IDENT", "ins/del/mod")
        kind = _KIND_NAMES.get(kind_token.value)
        if kind is None:
            raise ParseError(
                f"expected ins/del/mod, found {kind_token.value!r}",
                kind_token.line,
                kind_token.column,
            )
        self.expect("LBRACKET", "'[' after the update kind")
        target = self.parse_vid_term()
        self.expect("RBRACKET", "']' closing the update target")
        self.expect("DOT", "'.' after the update target")

        if self.peek().type == "STAR":
            star = self.advance()
            if kind is not UpdateKind.DELETE:
                raise ParseError(
                    "only del[..] supports the delete-all form '.*'",
                    star.line,
                    star.column,
                )
            if not in_head:
                raise ParseError(
                    "del[..].* may only occur in rule heads",
                    star.line,
                    star.column,
                )
            return UpdateAtom(kind, target, None, (), None, None, delete_all=True)

        method, args = self.parse_method_and_args()
        self.expect("ARROW", "'->' before the update result")
        if kind is UpdateKind.MODIFY:
            self.expect("LPAREN", "'(' starting the (old, new) result pair")
            old = self.parse_object_id_term()
            self.expect("COMMA", "',' between old and new result")
            new = self.parse_object_id_term()
            self.expect("RPAREN", "')' closing the result pair")
            return self._build_atom(kind, target, method, args, old, new)
        result = self.parse_object_id_term()
        return self._build_atom(kind, target, method, args, result, None)

    def _build_atom(self, kind, target, method, args, result, result2) -> UpdateAtom:
        try:
            return UpdateAtom(kind, target, method, args, result, result2)
        except (ProgramError, TermError) as exc:
            raise self.error(str(exc)) from exc

    def parse_version_atoms(self) -> list[VersionAtom]:
        """A version-term with path shorthand: one atom per path step."""
        host = self.parse_vid_term()
        self.expect("DOT", "'.' after the version term")
        atoms = []
        method, args, result = self.parse_method_application()
        atoms.append(self._version_atom(host, method, args, result))
        while self.accept("SLASH"):
            method, args, result = self.parse_method_application()
            atoms.append(self._version_atom(host, method, args, result))
        return atoms

    def _version_atom(self, host, method, args, result) -> VersionAtom:
        try:
            return VersionAtom(host, method, args, result)
        except TermError as exc:
            raise self.error(str(exc)) from exc

    def parse_literals(self) -> list[Literal]:
        """One body literal — or several, when the path shorthand expands."""
        negated = False
        token = self.peek()
        if token.type == "TILDE":
            self.advance()
            negated = True
        elif token.type == "IDENT" and token.value == "not" and _starts_atom(self.peek(1)):
            self.advance()
            negated = True

        atoms = self.parse_atom_group()
        if negated and len(atoms) > 1:
            raise self.error(
                "the path shorthand cannot be negated as a whole; "
                "negate the individual version-terms instead"
            )
        return [Literal(atom, not negated) for atom in atoms]

    def parse_atom_group(self) -> list:
        token = self.peek()
        # update-term?  kind '[' ...
        if (
            token.type == "IDENT"
            and token.value in _KIND_NAMES
            and self.peek(1).type == "LBRACKET"
        ):
            return [self.parse_update_atom(in_head=False)]

        # version-term?  A term followed by '.'
        if _starts_vid(token) and not _starts_comparison_ahead(self, token):
            return self.parse_version_atoms()

        # otherwise: a built-in comparison between expressions
        left = self.parse_expr()
        op_token = self.advance()
        if op_token.type == "IMPLIES":
            raise ParseError(
                "'<=' is the implication arrow; write '=<' for less-or-equal",
                op_token.line,
                op_token.column,
            )
        if op_token.type not in _COMPARISONS:
            raise ParseError(
                f"expected a comparison operator, found {op_token.describe()}",
                op_token.line,
                op_token.column,
            )
        right = self.parse_expr()
        spelled = _COMPARISONS[op_token.type]
        return [BuiltinAtom(_COMPARISON_OPS[spelled], left, right)]

    # -- rules -----------------------------------------------------------------
    def parse_rule(self) -> UpdateRule:
        name = ""
        if self.peek().type == "IDENT" and self.peek(1).type == "COLON":
            name = self.advance().value
            self.advance()  # colon
        head = self.parse_update_atom(in_head=True)
        body = self._parse_rule_body()
        self.expect("DOT", "'.' terminating the rule")
        return UpdateRule(head, tuple(body), name)

    def _parse_rule_body(self) -> list[Literal]:
        body: list[Literal] = []
        if self.accept("IMPLIES"):
            body.extend(self.parse_literals())
            while self.peek().type in ("COMMA", "HAT"):
                self.advance()
                body.extend(self.parse_literals())
        return body

    def parse_derived_rule(self) -> tuple[VersionAtom, tuple[Literal, ...], str]:
        """A derived-method rule: a *version-term* head (Section 6's
        derived objects, implemented in :mod:`repro.ext.derived`)."""
        name = ""
        if self.peek().type == "IDENT" and self.peek(1).type == "COLON":
            name = self.advance().value
            self.advance()
        host = self.parse_vid_term()
        self.expect("DOT", "'.' after the head's version term")
        method, args, result = self.parse_method_application()
        head = self._version_atom(host, method, args, result)
        body = self._parse_rule_body()
        self.expect("DOT", "'.' terminating the rule")
        return head, tuple(body), name

    def parse_program(self, name: str) -> UpdateProgram:
        rules = []
        while not self.at_end():
            rules.append(self.parse_rule())
        return UpdateProgram(rules, name)

    # -- object bases ---------------------------------------------------------
    def parse_fact_clauses(self) -> list[VersionAtom]:
        atoms: list[VersionAtom] = []
        while not self.at_end():
            atoms.extend(self.parse_version_atoms())
            self.expect("DOT", "'.' terminating the fact")
        return atoms


def _number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


def _starts_vid(token: Token) -> bool:
    return token.type in ("IDENT", "STRING", "QMARK", "NUMBER", "MINUS")


def _looks_like_arg(token: Token) -> bool:
    """After ``@a,`` decide whether the next token continues the argument
    list (a term) or starts the next body literal."""
    return token.type in ("IDENT", "STRING", "NUMBER", "MINUS")


def _starts_atom(token: Token) -> bool:
    return token.type in ("IDENT", "STRING", "NUMBER", "LPAREN", "MINUS", "TILDE", "QMARK")


def _starts_comparison_ahead(parser: _Parser, token: Token) -> bool:
    """Disambiguate ``S > 4500`` (comparison) from ``s.sal -> X`` (atom):
    an identifier followed by anything except '.' or '(' (functor) begins
    an expression."""
    if token.type == "QMARK":
        return False  # ?W always hosts a version-term
    if token.type in ("STRING", "NUMBER"):
        # numeric/quoted hosts: "0.sal -> x" is an atom, "0 > S" is not
        return parser.peek(1).type != "DOT"
    if token.type == "MINUS":
        # "-1.sal -> x" is an atom on the OID -1; "-1 < S" is not
        return not (
            parser.peek(1).type == "NUMBER" and parser.peek(2).type == "DOT"
        )
    if token.type != "IDENT":
        return True
    next_type = parser.peek(1).type
    if token.value in _KIND_NAMES and next_type == "LPAREN":
        return False  # mod(E)... is a version term
    return next_type != "DOT"


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------


#: Bound of the program-shape cache (``program.shapes``).
_PROGRAM_SHAPES = 256
#: Bound of the query-body shape cache, which is the read path's one cache
#: (``query.prepared``; entries weigh about 1 kB each).
_PREPARED_CACHE_SIZE = 256

_programs = ShapeCache(_PROGRAM_SHAPES)
_bodies = ShapeCache(_PREPARED_CACHE_SIZE)
register_cache("program.shapes", _programs.stats, _programs.clear)
register_cache("query.prepared", _bodies.stats, _bodies.clear)


def parse_program(text: str, name: str = "program") -> UpdateProgram:
    """Parse a whole update-program.

    The program carries its :class:`~repro.core.evaluation.CompiledProgram`
    (``program.compiled``), made once per program shape
    (:mod:`repro.lang.shapes`) and bound to this text's constants; it is
    None when the program does not compile, and the error surfaces where
    the program is compiled or run."""
    template, probe = _programs.lookup(text)
    _programs.count(template is not None)
    if template is not None:
        constants = template.constants(probe.values)
        if constants is None:  # the template's own text, again
            program = UpdateProgram(template.ast, name)
            program.compiled = template.artifact
        else:
            program = UpdateProgram(map_constants(template.ast, constants), name)
            program.compiled = template.artifact.bind(program, constants)
        return program
    parser = _Parser(text)
    program = parser.parse_program(name)
    try:
        program.compiled = compile_program(program)
    except ReproError:
        return program  # compiled, and refused, again where it is run
    _programs.remember(
        probe, parser.tokens, parser.consumed, program.rules, program.compiled
    )
    return program


def parse_rule(text: str) -> UpdateRule:
    """Parse exactly one rule (trailing input is an error)."""
    parser = _Parser(text)
    rule = parser.parse_rule()
    if not parser.at_end():
        raise parser.error("unexpected input after the rule")
    return rule


def _parse_literals(parser: _Parser) -> tuple[Literal, ...]:
    literals = list(parser.parse_literals())
    while parser.peek().type in ("COMMA", "HAT"):
        parser.advance()
        literals.extend(parser.parse_literals())
    if not parser.at_end():
        raise parser.error("unexpected input after the query")
    return tuple(literals)


def _body(text: str) -> tuple[Template, dict | None]:
    """The template of ``text``'s body shape and the constants that map it
    to ``text`` — None when the template's OIDs are ``text``'s own.  A
    body whose shape cannot be templated comes in a template of its own."""
    template, probe = _bodies.lookup(text)
    if template is not None:
        return template, template.constants(probe.values)
    parser = _Parser(text)
    literals = _parse_literals(parser)
    template = _bodies.remember(probe, parser.tokens, parser.consumed, literals, None)
    return template or Template((), literals, None), None


def parse_body(text: str) -> tuple[Literal, ...]:
    """Parse a conjunction of body literals (the query syntax), once per
    body shape (:mod:`repro.lang.shapes`)."""
    template, constants = _body(text)
    if constants is None:
        return template.ast
    return map_constants(template.ast, constants)


def prepare_query(query, *, name: str | None = None) -> PreparedQuery:
    """Coerce ``query`` — a :class:`~repro.core.query.PreparedQuery`, a
    literal sequence, or concrete-syntax text — into a prepared query.
    Text goes through the bounded process-wide body-shape cache
    ``query.prepared``, so a text of a known shape skips the parser and the
    compile: the shape's prepared query is bound to its constants."""
    if isinstance(query, PreparedQuery):
        return query
    if isinstance(query, str):
        name = name or query
        template, constants = _body(query)
        prepared = template.artifact
        _bodies.count(prepared is not None)
        if prepared is None:
            prepared = template.artifact = PreparedQuery(template.ast, name=name)
        if constants is not None:
            return prepared.bind(
                map_constants(template.ast, constants), constants, name=name
            )
        if prepared.name != name:
            return PreparedQuery(prepared.body, name=name)
        return prepared
    literals = tuple(query)
    # Default programmatic names render the body, so distinct unnamed
    # queries stay tellable-apart in error messages and pushes.
    derived = ", ".join(str(literal) for literal in literals) or "<empty>"
    return PreparedQuery(literals, name=name or derived)


def parse_term(text: str) -> Term:
    """Parse a single (version-id-)term."""
    parser = _Parser(text)
    term = parser.parse_vid_term()
    if not parser.at_end():
        raise parser.error("unexpected input after the term")
    return term


def parse_derived_rules(text: str) -> list[tuple[VersionAtom, tuple[Literal, ...], str]]:
    """Parse derived-method rules (version-term heads), e.g.::

        senior: X.senior -> yes <= X.sal -> S, S > 4000.

    Returns ``(head, body, name)`` triples; :mod:`repro.ext.derived` wraps
    them into a :class:`~repro.ext.derived.DerivedProgram`.
    """
    parser = _Parser(text)
    rules = []
    while not parser.at_end():
        rules.append(parser.parse_derived_rule())
    return rules


def parse_object_base(text: str, *, ensure_exists: bool = True) -> ObjectBase:
    """Parse an object-base file: ground version-terms terminated by '.'.

    ``ensure_exists`` adds the Section 3 ``o.exists -> o`` bookkeeping for
    every host OID (docs/DESIGN.md D3).
    """
    atoms = _Parser(text).parse_fact_clauses()
    base = ObjectBase()
    for atom in atoms:
        if not atom.is_ground():
            raise ParseError(
                f"object bases hold ground facts only: {atom}", 1, 1
            )
        base.add(atom.to_fact())
    if ensure_exists:
        base.ensure_exists()
    return base
