"""Structural parser for a Java subset.

Captures packages, imports, class/interface declarations (including nested
ones), fields, constructors and methods. Each method body is walked once at
token level: brace tracking gives block depths, a fixed keyword/symbol table
gives decision points and operator/operand tallies, and bare or `this.`
identifiers give the candidate field accesses. A parsed unit keeps counts and
names, not tokens. Generics, annotations and lambdas are tolerated token-wise
but not modeled structurally.
"""

from collections import Counter
from dataclasses import dataclass, field

from .errors import ParseError
from .lexer import Token, tokenize

MODIFIERS = frozenset(
    "public private protected static final abstract synchronized native "
    "transient volatile strictfp default".split()
)

DECISION_KEYWORDS = frozenset({"if", "for", "while", "do", "case", "catch"})

#: Control keywords counted as Halstead operators.
HALSTEAD_KEYWORDS = frozenset(
    "if else for while do switch case return new try catch finally throw instanceof".split()
)


@dataclass
class FieldDecl:
    name: str
    type_names: list[str] = field(default_factory=list)


@dataclass
class MethodDecl:
    name: str
    parameter_count: int = 0
    body_lines: int = 0
    decision_points: int = 0
    block_depths: list[int] = field(default_factory=list)
    accessed_field_names: set[str] = field(default_factory=set)
    operator_tokens: Counter = field(default_factory=Counter)
    operand_tokens: Counter = field(default_factory=Counter)


@dataclass
class TypeDecl:
    name: str
    kind: str  # class | interface
    is_abstract: bool = False
    supertype_names: list[str] = field(default_factory=list)
    extends_names: list[str] = field(default_factory=list)
    fields_: list[FieldDecl] = field(default_factory=list)
    constructors: list[MethodDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    referenced_type_names: set[str] = field(default_factory=set)


@dataclass
class CompilationUnit:
    file_path: str
    package_name: str = ""
    imports: list[str] = field(default_factory=list)
    types: list[TypeDecl] = field(default_factory=list)
    comment_count: int = 0
    physical_lines: int = 0
    code_lines: int = 0


class _Parser:
    def __init__(self, tokens: list[Token], file_path: str):
        self.toks = [t for t in tokens if t.kind != "comment"]
        self.unit = CompilationUnit(file_path=file_path)
        self.unit.comment_count = len(tokens) - len(self.toks)
        self.unit.code_lines = len({t.line for t in self.toks})
        self.i = 0

    # -- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        j = self.i + offset
        return self.toks[j] if j < len(self.toks) else None

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def take(self) -> Token:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of file")
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            got = t.text if t else "end of file"
            line = t.line if t else 0
            col = t.column if t else 0
            raise ParseError(f"expected {text!r}, found {got!r}", line, col)
        return self.take()

    def dotted_name(self) -> str:
        parts = [self.take().text]
        while self.at(".") and self.peek(1) is not None and self.peek(1).kind in ("identifier", "keyword", "operator-symbol"):
            nxt = self.peek(1)
            if nxt.kind == "identifier" or nxt.text == "*":
                self.take()
                parts.append(self.take().text)
            else:
                break
        return ".".join(parts)

    def skip_generics(self):
        """Consume a <...> section if one starts here; shift tokens close
        multiple levels at once."""
        if not self.at("<"):
            return
        depth = 0
        while self.peek() is not None:
            text = self.take().text
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
            if depth <= 0:
                return
        raise ParseError("unterminated generic parameter list")

    def skip_annotation(self):
        self.expect("@")
        self.dotted_name()
        if self.at("("):
            self.skim_balanced("(", ")")

    def skim_balanced(self, open_text: str, close_text: str) -> tuple[Token, Token]:
        """Consume a balanced bracketed section; returns (open, close) tokens."""
        opener = self.expect(open_text)
        depth = 1
        while self.peek() is not None:
            t = self.take()
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
                if depth == 0:
                    return opener, t
        raise ParseError(f"unbalanced {open_text!r}", opener.line, opener.column)

    # -- grammar -------------------------------------------------------

    def parse(self) -> CompilationUnit:
        while self.peek() is not None:
            t = self.peek()
            if t.text == "package":
                self.take()
                self.unit.package_name = self.dotted_name()
                if self.at(";"):
                    self.take()
            elif t.text == "import":
                self.take()
                if self.at("static"):
                    self.take()
                self.unit.imports.append(self.dotted_name())
                if self.at(";"):
                    self.take()
            elif t.text in MODIFIERS or t.text in ("class", "interface"):
                self.parse_type_with_modifiers()
            elif t.text == "@":
                self.skip_annotation()
            elif t.text == "enum":
                self.skim_enum()
            elif t.text == ";":
                self.take()
            else:
                # Recovery: unknown top-level construct, consume one token.
                self.take()
        return self.unit

    def parse_type_with_modifiers(self):
        mods = set()
        while self.peek() is not None and self.peek().text in MODIFIERS:
            mods.add(self.take().text)
            while self.at("@"):
                self.skip_annotation()
        if self.at("enum"):
            self.skim_enum()
            return
        if not (self.at("class") or self.at("interface")):
            # Recovery: modifiers prefixing something we don't model.
            if self.peek() is not None:
                self.take()
            return
        self.parse_type(mods)

    def skim_enum(self):
        self.expect("enum")
        if self.peek() is not None and self.peek().kind == "identifier":
            self.take()
        while self.peek() is not None and not self.at("{"):
            self.take()
        if self.at("{"):
            self.skim_balanced("{", "}")

    def parse_type(self, mods: set[str]) -> TypeDecl:
        kind = self.take().text  # class | interface
        name = self.take().text
        decl = TypeDecl(
            name=name,
            kind=kind,
            is_abstract=(kind == "interface" or "abstract" in mods),
        )
        self.skip_generics()
        if self.at("extends"):
            self.take()
            decl.extends_names.append(self._supertype_name())
            while self.at(","):  # interfaces may extend several
                self.take()
                decl.extends_names.append(self._supertype_name())
        if self.at("implements"):
            self.take()
            decl.supertype_names.append(self._supertype_name())
            while self.at(","):
                self.take()
                decl.supertype_names.append(self._supertype_name())
        decl.supertype_names = decl.extends_names + [
            s for s in decl.supertype_names if s not in decl.extends_names
        ]
        decl.referenced_type_names.update(decl.supertype_names)
        self.expect("{")
        self.parse_type_body(decl)
        field_names = {f.name for f in decl.fields_}
        for method in decl.constructors + decl.methods:
            method.accessed_field_names &= field_names
        self.unit.types.append(decl)
        return decl

    def _supertype_name(self) -> str:
        name = self.dotted_name()
        self.skip_generics()
        return name

    def parse_type_body(self, decl: TypeDecl):
        while True:
            t = self.peek()
            if t is None:
                raise ParseError(f"unbalanced braces in type {decl.name}")
            if t.text == "}":
                self.take()
                return
            if t.text == ";":
                self.take()
                continue
            if t.text == "@":
                self.skip_annotation()
                continue
            if t.text == "{":  # instance/static initializer block
                self.skim_balanced("{", "}")
                continue
            mods = set()
            while self.peek() is not None and self.peek().text in MODIFIERS:
                mods.add(self.take().text)
                while self.at("@"):
                    self.skip_annotation()
            if self.at("{"):
                self.skim_balanced("{", "}")
                continue
            if self.at("class") or self.at("interface"):
                self.parse_type(mods)
                continue
            if self.at("enum"):
                self.skim_enum()
                continue
            self.parse_member(decl)

    def parse_member(self, decl: TypeDecl):
        """Parse one field or method/constructor declaration."""
        self.skip_generics()  # generic method type parameters
        head: list[Token] = []
        angle = 0
        while True:
            t = self.peek()
            if t is None or t.text == "}":
                return  # recovery: truncated member
            if t.text == "<":
                angle += 1
            elif t.text in (">", ">>", ">>>") and angle > 0:
                angle -= {">": 1, ">>": 2, ">>>": 3}[t.text]
            elif angle == 0 and t.text in ("(", "=", ",", ";"):
                break
            head.append(self.take())
        sep = self.peek().text
        if sep == "(":
            self.parse_callable(decl, head)
        else:
            self.parse_field_decl(decl, head)

    def parse_callable(self, decl: TypeDecl, head: list[Token]):
        if not head:
            # Recovery: stray parenthesis, skim it.
            self.skim_balanced("(", ")")
            return
        name = head[-1].text
        type_tokens = head[:-1]
        is_ctor = not type_tokens and name == decl.name
        method = MethodDecl(name=name)
        decl.referenced_type_names.update(
            t.text for t in type_tokens if t.kind == "identifier"
        )
        self.parse_parameters(decl, method)
        if self.at("throws"):
            self.take()
            decl.referenced_type_names.add(self.dotted_name())
            while self.at(","):
                self.take()
                decl.referenced_type_names.add(self.dotted_name())
        if self.at("{"):
            self.parse_body(decl, method)
        elif self.at(";"):
            self.take()
        else:
            # Recovery: skim to statement end.
            while self.peek() is not None and not self.at(";") and not self.at("{"):
                self.take()
            if self.at("{"):
                self.parse_body(decl, method)
            elif self.at(";"):
                self.take()
        (decl.constructors if is_ctor else decl.methods).append(method)

    def parse_parameters(self, decl: TypeDecl, method: MethodDecl):
        opener = self.expect("(")
        depth = 1
        segment: list[Token] = []
        segments: list[list[Token]] = []
        while self.peek() is not None:
            t = self.take()
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                depth -= 1
                if depth == 0 and t.text == ")":
                    break
            elif t.text == "," and depth == 1:
                segments.append(segment)
                segment = []
                continue
            segment.append(t)
        else:
            raise ParseError("unbalanced parameter list", opener.line, opener.column)
        if segment:
            segments.append(segment)
        method.parameter_count = len(segments)
        for seg in segments:
            idents = [t for t in seg if t.kind == "identifier"]
            # Last identifier is the parameter name; the rest are type names.
            decl.referenced_type_names.update(t.text for t in idents[:-1])

    def parse_body(self, decl: TypeDecl, method: MethodDecl):
        """Walk the body once, from its '{' to the matching '}'.

        Halstead operators are operator symbols (a ternary counts once, as
        '?:'), control keywords and called method names; operands are the other
        identifiers and literals. Every identifier not behind a '.', or behind
        'this .', is a candidate field access; parse_type keeps those that name
        a field of the type."""
        opener = self.expect("{")
        toks, end = self.toks, len(self.toks)
        operators, operands = method.operator_tokens, method.operand_tokens
        fields = method.accessed_field_names
        depth, depths, decisions = 1, [1], 0
        i = self.i
        while i < end:
            t = toks[i]
            kind, text = t.kind, t.text
            if text == "{":
                depth += 1
                depths.append(depth)
            elif text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif kind == "identifier":
                if i + 1 < end and toks[i + 1].text == "(":
                    operators[text] += 1
                else:
                    operands[text] += 1
                if toks[i - 1].text != "." or toks[i - 2].text == "this":
                    fields.add(text)
            elif kind == "operator-symbol":
                operators["?:" if text == "?" else text] += 1
                if text in ("?", "&&", "||"):
                    decisions += 1
            elif kind == "keyword":
                if text in HALSTEAD_KEYWORDS:
                    operators[text] += 1
                if text in DECISION_KEYWORDS:
                    decisions += 1
                elif text == "new" and i + 1 < end and toks[i + 1].kind == "identifier":
                    j = i + 1
                    parts = [toks[j].text]
                    while j + 2 < end and toks[j + 1].text == "." and toks[j + 2].kind == "identifier":
                        parts.append(toks[j + 2].text)
                        j += 2
                    decl.referenced_type_names.add(".".join(parts))
            elif kind == "literal":
                operands[text] += 1
            i += 1
        else:
            raise ParseError("unbalanced method body", opener.line, opener.column)
        self.i = i + 1
        method.block_depths = depths
        method.decision_points = decisions
        method.body_lines = toks[i].line - opener.line + 1

    def parse_field_decl(self, decl: TypeDecl, head: list[Token]):
        """head holds the type part plus the first declarator name."""
        if not head:
            if self.peek() is not None:
                self.take()
            return
        names = [head[-1].text]
        type_part = head[:-1]
        type_names = [t.text for t in type_part if t.kind == "identifier"]
        decl.referenced_type_names.update(type_names)
        # Consume initializers and further declarators up to ';'.
        depth = 0
        expecting_name = False
        while self.peek() is not None:
            t = self.take()
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and t.text == ",":
                expecting_name = True
            elif depth == 0 and t.text == ";":
                break
            elif expecting_name and t.kind == "identifier":
                names.append(t.text)
                expecting_name = False
        for name in names:
            decl.fields_.append(FieldDecl(name=name, type_names=list(type_names)))


def parse_unit(tokens: list[Token], file_path: str, physical_lines: int) -> CompilationUnit:
    """Parse a token stream into a CompilationUnit."""
    unit = _Parser(tokens, file_path).parse()
    unit.physical_lines = physical_lines
    return unit


def parse_source(source_text: str, file_path: str) -> CompilationUnit:
    """Tokenize and parse a source file's text."""
    tokens = tokenize(source_text)
    return parse_unit(tokens, file_path, physical_lines=len(source_text.splitlines()))
