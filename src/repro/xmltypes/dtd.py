"""A DTD parser covering the subset relevant to the paper's data model.

Supported declarations:

* ``<!ELEMENT name content-spec>`` with content specifications ``EMPTY``,
  ``ANY``, mixed content ``(#PCDATA | a | b)*`` and children content models
  built from sequences ``,``, choices ``|`` and the ``?``, ``*``, ``+``
  occurrence operators;
* ``<!ENTITY % name "replacement">`` parameter entities and their references
  ``%name;`` (the XHTML DTD makes heavy use of them, both in content models
  and in attribute lists);
* ``<!ATTLIST element (name type default)*>`` declarations, with the types
  ``CDATA``, the tokenised types (``ID``, ``IDREF``, ``NMTOKEN``, ...),
  ``NOTATION`` lists and enumerations, and the defaults ``#REQUIRED``,
  ``#IMPLIED``, ``#FIXED "v"`` and plain default values.  Attribute *values*
  stay outside the data model: the analyses only use which attributes an
  element declares and which of them are required.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ParseError
from repro.xmltypes import content as cm

if TYPE_CHECKING:
    from repro.xmltypes.ast import GrammarIndex


@dataclass(frozen=True)
class ElementDeclaration:
    """One ``<!ELEMENT ...>`` declaration."""

    name: str
    content: cm.ContentModel


#: Attribute default kinds (the ``DefaultDecl`` production of XML 1.0).
REQUIRED = "#REQUIRED"
IMPLIED = "#IMPLIED"
FIXED = "#FIXED"
DEFAULTED = "#DEFAULT"


@dataclass(frozen=True)
class AttributeDeclaration:
    """One attribute definition from an ``<!ATTLIST ...>`` declaration.

    ``attribute_type`` is the declared type keyword (``CDATA``, ``ID``, ...)
    or ``"enumeration"`` for ``(tok | tok | ...)`` lists, whose tokens are
    kept in ``values``.  ``default`` is one of :data:`REQUIRED`,
    :data:`IMPLIED`, :data:`FIXED` or :data:`DEFAULTED`; ``value`` holds the
    fixed/default attribute value when one was declared.
    """

    name: str
    attribute_type: str = "CDATA"
    values: tuple[str, ...] = ()
    default: str = IMPLIED
    value: str | None = None

    @property
    def required(self) -> bool:
        """Whether a valid element must carry the attribute.

        Only ``#REQUIRED`` forces the attribute to be physically present;
        ``#FIXED`` and plain defaults are supplied by validators, so their
        attributes may be absent from the serialised document.
        """
        return self.default == REQUIRED


@dataclass
class DTD:
    """A parsed DTD: element and attribute declarations plus a designated root."""

    elements: dict[str, ElementDeclaration] = field(default_factory=dict)
    root: str | None = None
    name: str = "dtd"
    #: Attribute declarations per element name, in declaration order.
    attlists: dict[str, tuple[AttributeDeclaration, ...]] = field(default_factory=dict)
    #: Binarized grammar per root element, in integer form, filled by
    #: ``compile_dtd`` and shared by every projection (which only reads it).
    _grammars: dict[str, "GrammarIndex"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def element_names(self) -> tuple[str, ...]:
        """Declared element names, in declaration order."""
        return tuple(self.elements)

    def content_of(self, name: str) -> cm.ContentModel:
        return self.elements[name].content

    def attributes_of(self, name: str) -> tuple[AttributeDeclaration, ...]:
        """The attribute declarations of an element (empty when none)."""
        return self.attlists.get(name, ())

    def attribute_names(self) -> tuple[str, ...]:
        """Every attribute name declared anywhere in the DTD, sorted."""
        return tuple(
            sorted({decl.name for decls in self.attlists.values() for decl in decls})
        )

    def declares_attribute(self, element: str, attribute: str) -> bool:
        return any(decl.name == attribute for decl in self.attributes_of(element))

    def required_attributes(self, element: str) -> tuple[str, ...]:
        """The ``#REQUIRED`` attribute names of an element, in order."""
        return tuple(
            decl.name for decl in self.attributes_of(element) if decl.required
        )

    def with_root(self, root: str) -> "DTD":
        """A copy of the DTD with a different designated root element."""
        if root not in self.elements:
            raise ValueError(f"element {root!r} is not declared by this DTD")
        return DTD(
            elements=dict(self.elements),
            root=root,
            name=self.name,
            attlists=dict(self.attlists),
        )

    def symbol_count(self) -> int:
        """Number of element symbols (the "Symbols" column of Table 1)."""
        return len(self.elements)


_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_ENTITY_RE = re.compile(r'<!ENTITY\s+%\s+([\w.\-]+)\s+"([^"]*)"\s*>')
# The body may contain '>' inside quoted default values (legal per XML 1.0),
# so the declaration only ends at a '>' outside quotes.
_ATTLIST_RE = re.compile(r"<!ATTLIST\s+((?:[^>\"']|\"[^\"]*\"|'[^']*')*)>", re.DOTALL)
_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.\-:]+)\s+(.*?)>", re.DOTALL)
_PE_REF_RE = re.compile(r"%([\w.\-]+);")
_NAME_RE = re.compile(r"[\w.\-:]+")


def parse_dtd(text: str, root: str | None = None, name: str = "dtd") -> DTD:
    """Parse DTD text into a :class:`DTD`.

    ``root`` designates the document element; when omitted it defaults to the
    first declared element.
    """
    without_comments = _COMMENT_RE.sub(" ", text)

    entities: dict[str, str] = {}
    for match in _ENTITY_RE.finditer(without_comments):
        entities[match.group(1)] = match.group(2)

    def expand(value: str, depth: int = 0) -> str:
        if depth > 50:
            raise ParseError("parameter entities nested too deeply (cycle?)")
        result = _PE_REF_RE.sub(
            lambda m: expand(entities.get(m.group(1), ""), depth + 1), value
        )
        return result

    stripped = _ENTITY_RE.sub(" ", without_comments)

    dtd = DTD(name=name)
    for match in _ATTLIST_RE.finditer(stripped):
        element_name, declarations = _parse_attlist(expand(match.group(1)))
        # Per XML 1.0 (section 3.3), later declarations of the same attribute
        # are ignored and multiple ATTLISTs for one element are merged.
        merged = list(dtd.attlists.get(element_name, ()))
        known = {declaration.name for declaration in merged}
        for declaration in declarations:
            if declaration.name not in known:
                merged.append(declaration)
                known.add(declaration.name)
        dtd.attlists[element_name] = tuple(merged)

    stripped = _ATTLIST_RE.sub(" ", stripped)
    for match in _ELEMENT_RE.finditer(stripped):
        element_name = match.group(1)
        spec = expand(match.group(2)).strip()
        model = _parse_content_spec(spec, element_name)
        dtd.elements[element_name] = ElementDeclaration(element_name, model)
    if not dtd.elements:
        raise ParseError("no <!ELEMENT> declaration found in DTD")
    dtd.root = root if root is not None else next(iter(dtd.elements))
    if dtd.root not in dtd.elements:
        raise ParseError(f"designated root element {dtd.root!r} is not declared")

    # ANY content models need the full element list; resolve them now.
    any_elements = [
        name_ for name_, declaration in dtd.elements.items()
        if isinstance(declaration.content, _AnyPlaceholder)
    ]
    if any_elements:
        every = cm.CStar(cm.choice([cm.CSymbol(n) for n in dtd.elements]))
        for name_ in any_elements:
            dtd.elements[name_] = ElementDeclaration(name_, every)
    return dtd


@dataclass(frozen=True)
class _AnyPlaceholder(cm.CEmpty):
    """Marker for ``ANY`` content, resolved once all elements are known."""


def _parse_content_spec(spec: str, element_name: str) -> cm.ContentModel:
    spec = spec.strip()
    if spec == "EMPTY":
        return cm.CEmpty()
    if spec == "ANY":
        return _AnyPlaceholder()
    parser = _ContentParser(spec, element_name)
    model = parser.parse()
    return model


#: The non-enumerated attribute types of XML 1.0.
_ATTRIBUTE_TYPE_KEYWORDS = (
    "CDATA",
    "IDREFS",
    "IDREF",
    "ID",
    "ENTITIES",
    "ENTITY",
    "NMTOKENS",
    "NMTOKEN",
)


class _AttlistParser:
    """Scanner for the body of an (entity-expanded) ``<!ATTLIST ...>``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(f"in <!ATTLIST ...>: {message}", self.pos, self.text)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def read_name(self) -> str:
        self.skip_ws()
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            raise self.error("expected a name")
        self.pos = match.end()
        return match.group(0)

    def accept(self, string: str) -> bool:
        self.skip_ws()
        if self.text.startswith(string, self.pos):
            self.pos += len(string)
            return True
        return False

    def read_quoted(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "\"'":
            raise self.error("expected a quoted attribute value")
        quote = self.text[self.pos]
        closing = self.text.find(quote, self.pos + 1)
        if closing < 0:
            raise self.error("unterminated attribute value")
        value = self.text[self.pos + 1:closing]
        self.pos = closing + 1
        return value

    def read_enumeration(self) -> tuple[str, ...]:
        tokens = [self.read_name()]
        while self.accept("|"):
            tokens.append(self.read_name())
        if not self.accept(")"):
            raise self.error("expected ')' closing an enumeration")
        return tuple(tokens)

    def read_declaration(self) -> AttributeDeclaration:
        attribute_name = self.read_name()
        values: tuple[str, ...] = ()
        if self.accept("("):
            attribute_type = "enumeration"
            values = self.read_enumeration()
        else:
            keyword = self.read_name()
            if keyword == "NOTATION":
                if not self.accept("("):
                    raise self.error("expected '(' after NOTATION")
                attribute_type = "NOTATION"
                values = self.read_enumeration()
            elif keyword in _ATTRIBUTE_TYPE_KEYWORDS:
                attribute_type = keyword
            else:
                raise self.error(f"unknown attribute type {keyword!r}")
        default = IMPLIED
        value: str | None = None
        if self.accept("#REQUIRED"):
            default = REQUIRED
        elif self.accept("#IMPLIED"):
            default = IMPLIED
        elif self.accept("#FIXED"):
            default = FIXED
            value = self.read_quoted()
        else:
            default = DEFAULTED
            value = self.read_quoted()
        return AttributeDeclaration(
            name=attribute_name,
            attribute_type=attribute_type,
            values=values,
            default=default,
            value=value,
        )


def _parse_attlist(text: str) -> tuple[str, tuple[AttributeDeclaration, ...]]:
    """Parse the (entity-expanded) body of an ``<!ATTLIST ...>`` declaration."""
    parser = _AttlistParser(text.strip())
    element_name = parser.read_name()
    declarations: list[AttributeDeclaration] = []
    while not parser.at_end():
        declarations.append(parser.read_declaration())
    return element_name, tuple(declarations)


class _ContentParser:
    """Recursive-descent parser for children and mixed content models."""

    def __init__(self, text: str, element_name: str):
        self.text = text
        self.element_name = element_name
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(
            f"in content model of <!ELEMENT {self.element_name}>: {message}",
            self.pos,
            self.text,
        )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at(self, string: str) -> bool:
        self.skip_ws()
        return self.text.startswith(string, self.pos)

    def accept(self, string: str) -> bool:
        if self.at(string):
            self.pos += len(string)
            return True
        return False

    def expect(self, string: str) -> None:
        if not self.accept(string):
            raise self.error(f"expected {string!r}")

    def read_name(self) -> str:
        self.skip_ws()
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            raise self.error("expected an element name")
        self.pos = match.end()
        return match.group(0)

    def parse(self) -> cm.ContentModel:
        model = self._parse_particle()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters in content model")
        return model

    def _parse_particle(self) -> cm.ContentModel:
        self.skip_ws()
        if self.accept("("):
            inner = self._parse_group_body()
            self.expect(")")
            return self._parse_occurrence(inner)
        if self.accept("#PCDATA"):
            return cm.CEmpty()
        name = self.read_name()
        return self._parse_occurrence(cm.CSymbol(name))

    def _parse_group_body(self) -> cm.ContentModel:
        first = self._parse_particle()
        self.skip_ws()
        if self.at("|"):
            parts = [first]
            while self.accept("|"):
                parts.append(self._parse_particle())
            return cm.choice(parts)
        if self.at(","):
            parts = [first]
            while self.accept(","):
                parts.append(self._parse_particle())
            return cm.sequence(parts)
        return first

    def _parse_occurrence(self, inner: cm.ContentModel) -> cm.ContentModel:
        if self.accept("?"):
            return cm.COptional(inner)
        if self.accept("*"):
            return cm.CStar(inner)
        if self.accept("+"):
            return cm.CPlus(inner)
        return inner


# -- syntactic emptiness / reachability ------------------------------------------
#
# Content models are regular expressions, so "can this element complete a
# finite valid subtree?" (productivity) and "can this element occur in a
# valid document at all?" (reachability from the designated root) are
# decidable by fixpoint over the declarations — no solver run needed.  The
# XSLT auditor uses these to decide coverage for elements no template could
# syntactically match.


def _producible(model: cm.ContentModel, ok) -> bool:
    """Can the model produce some word whose symbols all satisfy ``ok``?"""
    if isinstance(model, cm.CSymbol):
        return ok(model.name)
    if isinstance(model, cm.CSeq):
        return _producible(model.left, ok) and _producible(model.right, ok)
    if isinstance(model, cm.CChoice):
        return _producible(model.left, ok) or _producible(model.right, ok)
    if isinstance(model, (cm.COptional, cm.CStar)):
        return True
    if isinstance(model, cm.CPlus):
        return _producible(model.inner, ok)
    return True  # CEmpty


def _word_containing(model: cm.ContentModel, symbol: str, ok) -> bool:
    """Can the model produce a word containing ``symbol`` whose *other*
    occurrences all satisfy ``ok``?"""
    if isinstance(model, cm.CSymbol):
        return model.name == symbol
    if isinstance(model, cm.CSeq):
        return (
            _word_containing(model.left, symbol, ok) and _producible(model.right, ok)
        ) or (
            _producible(model.left, ok) and _word_containing(model.right, symbol, ok)
        )
    if isinstance(model, cm.CChoice):
        return _word_containing(model.left, symbol, ok) or _word_containing(
            model.right, symbol, ok
        )
    if isinstance(model, (cm.COptional, cm.CStar, cm.CPlus)):
        # One iteration holds the occurrence; the others can be skipped.
        return _word_containing(model.inner, symbol, ok)
    return False  # CEmpty


def producible_elements(dtd: DTD) -> frozenset[str]:
    """Declared elements that can root a finite valid subtree.

    Least fixpoint: an element is producible when some word of its content
    model uses only producible symbols (undeclared symbols referenced by a
    content model are unconstrained and count as producible).
    """
    declared = set(dtd.elements)
    producible: set[str] = set()

    def ok(symbol: str) -> bool:
        return symbol not in declared or symbol in producible

    changed = True
    while changed:
        changed = False
        for name in declared - producible:
            if _producible(dtd.content_of(name), ok):
                producible.add(name)
                changed = True
    return frozenset(producible)


def reachable_elements(dtd: DTD) -> frozenset[str]:
    """Declared elements that occur in at least one valid finite document.

    An element occurs in a valid document iff it is producible and some
    chain of declarations links it to the designated root such that every
    link's remaining siblings can be completed too.  With no designated
    root, any producible element may serve as the document root.
    """
    producible = producible_elements(dtd)
    if dtd.root is None:
        return producible

    def ok(symbol: str) -> bool:
        return symbol not in dtd.elements or symbol in producible

    if dtd.root not in producible:
        return frozenset()
    seen = {dtd.root}
    queue = [dtd.root]
    while queue:
        parent = queue.pop()
        model = dtd.content_of(parent)
        for child in cm.symbols(model):
            if child in seen or child not in dtd.elements or child not in producible:
                continue
            if _word_containing(model, child, ok):
                seen.add(child)
                queue.append(child)
    return frozenset(seen)
