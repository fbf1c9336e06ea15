"""Structural parser for a Java subset.

Captures packages, imports, class/interface/enum declarations (including
nested ones), fields, constructors and methods. Each method body is walked
once at token level: brace tracking gives block depths, a fixed
keyword/symbol table gives decision points and operator/operand tallies, and
bare or `this.` identifiers give the candidate field accesses. The parser
indexes the lexer's parallel lists of code tokens directly, and a position is
an index into them and into `lexer.columns`, which an error reads.
A parsed unit keeps counts and names, nothing of the token stream. Generics,
annotations and lambdas are tolerated token-wise but not modeled structurally.
A skipped `(...)`, `{...}` or `<...>` section counts its nesting, and `>>` and
`>>>` close two and three `<`; a section that never closes is reported at its
opener.
"""

from .errors import ParseError
from .lexer import Tokens, columns, tokenize

MODIFIERS = frozenset(
    "public private protected static final abstract synchronized native "
    "transient volatile strictfp default".split()
)

DECISION_KEYWORDS = frozenset({"if", "for", "while", "do", "case", "catch"})

#: Control keywords counted as Halstead operators.
HALSTEAD_KEYWORDS = frozenset(
    "if else for while do switch case return new try catch finally throw instanceof".split()
)

TYPE_KINDS = frozenset({"class", "interface", "enum"})

#: For each opener of a skipped section, the levels of nesting that each closing token ends.
_SECTIONS = {"(": {")": 1}, "{": {"}": 1}, "<": {">": 1, ">>": 2, ">>>": 3}}


class MethodDecl:
    __slots__ = ("name", "parameter_count", "body_lines", "decision_points", "block_depths",
                 "accessed_field_names", "operator_tokens", "operand_tokens")

    def __init__(self, name: str, accessed_field_names: set[str] | None = None):
        self.name, self.parameter_count, self.body_lines, self.decision_points = name, 0, 0, 0
        self.block_depths: list[int] = []
        self.accessed_field_names = set() if accessed_field_names is None else accessed_field_names
        self.operator_tokens: dict[str, int] = {}  # tallies by token text
        self.operand_tokens: dict[str, int] = {}


class TypeDecl:
    __slots__ = ("name", "kind", "is_abstract", "extends_names", "field_names", "constructors", "methods",
                 "referenced_type_names")

    def __init__(self, name: str, kind: str, is_abstract: bool = False, extends_names: list[str] | None = None,
                 field_names: list[str] | None = None, constructors: list[MethodDecl] | None = None,
                 methods: list[MethodDecl] | None = None, referenced_type_names: set[str] | None = None):
        self.name, self.kind, self.is_abstract = name, kind, is_abstract  # kind: class | interface | enum
        self.extends_names = [] if extends_names is None else extends_names
        self.field_names = [] if field_names is None else field_names
        self.constructors = [] if constructors is None else constructors
        self.methods = [] if methods is None else methods
        self.referenced_type_names = set() if referenced_type_names is None else referenced_type_names


class CompilationUnit:
    __slots__ = ("file_path", "package_name", "imports", "types", "comment_count", "physical_lines", "code_lines")

    def __init__(self, file_path: str, package_name: str = "", imports: list[str] | None = None,
                 types: list[TypeDecl] | None = None, comment_count: int = 0, physical_lines: int = 0,
                 code_lines: int = 0):
        self.file_path, self.package_name = file_path, package_name
        self.imports = [] if imports is None else imports
        self.types = [] if types is None else types
        self.comment_count, self.physical_lines, self.code_lines = comment_count, physical_lines, code_lines


class _Parser:
    def __init__(self, tokens: Tokens, file_path: str):
        self.kinds, self.texts, self.lines = tokens.kinds, tokens.texts, tokens.lines
        self.source = text = tokens.source  # every line end is LF; the last line may have none
        self.unit = CompilationUnit(file_path=file_path, comment_count=tokens.comment_count,
                                    physical_lines=text.count("\n") + (text != "" and text[-1] != "\n"),
                                    code_lines=len(set(self.lines)))
        self.i = 0

    # -- token helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> str | None:
        j = self.i + offset
        return self.texts[j] if j < len(self.texts) else None

    def at(self, text: str) -> bool:
        return self.peek() == text

    def take(self) -> str:
        if self.i >= len(self.texts):
            raise ParseError("unexpected end of file")
        self.i += 1
        return self.texts[self.i - 1]

    def error(self, message: str, j: int) -> ParseError:
        """A ParseError at the line and column of token j."""
        return ParseError(message, self.lines[j], columns(self.source)[j])

    def expect(self, text: str) -> int:
        """Consume text and return its position."""
        if (got := self.peek()) != text:
            if got is None:
                raise ParseError(f"expected {text!r}, found 'end of file'")
            raise self.error(f"expected {text!r}, found {got!r}", self.i)
        self.i += 1
        return self.i - 1

    def identifiers(self, positions: range | list[int]) -> list[str]:
        return [self.texts[j] for j in positions if self.kinds[j] == "identifier"]

    def dotted_name(self) -> str:
        parts = [self.take()]
        while self.at(".") and self.peek(1) is not None and (
                self.kinds[self.i + 1] == "identifier" or self.peek(1) == "*"):
            self.take()
            parts.append(self.take())
        return ".".join(parts)

    def skip_generics(self):
        if self.at("<"):
            self.skim_balanced("<")

    def skip_annotation(self):
        self.expect("@")
        self.dotted_name()
        if self.at("("):
            self.skim_balanced("(")

    def skim_balanced(self, open_text: str):
        """Consume a bracketed section, counting its nesting by _SECTIONS."""
        opener = self.expect(open_text)
        closers, depth = _SECTIONS[open_text], 1
        while self.peek() is not None:
            text = self.take()
            depth += (text == open_text) - closers.get(text, 0)
            if depth <= 0:
                return
        raise self.error(f"unbalanced {open_text!r}", opener)

    # -- grammar -------------------------------------------------------

    def parse(self) -> CompilationUnit:
        while (t := self.peek()) is not None:
            if t == "package":
                self.take()
                self.unit.package_name = self.dotted_name()
            elif t == "import":
                self.take()
                if self.at("static"):
                    self.take()
                self.unit.imports.append(self.dotted_name())
            elif t == "@":  # alone, so that an annotated package declaration is read
                self.skip_annotation()
            else:
                mods = self.modifiers()
                if (t := self.peek()) in TYPE_KINDS:
                    self.parse_type(mods)
                elif t is not None:
                    # Recovery: skip one token of what we don't model, with
                    # any modifiers before it.
                    self.take()
        return self.unit

    def modifiers(self) -> set[str]:
        """Consume modifiers and the annotations before and between them."""
        mods, texts = set(), self.texts
        while self.i < len(texts) and ((t := texts[self.i]) == "@" or t in MODIFIERS):
            if t == "@":
                self.skip_annotation()
            else:
                mods.add(t)
                self.i += 1
        return mods

    def parse_type(self, mods: set[str]):
        """Parse a type declaration and the types nested in it, from a stack
        of open types, not by recursion, so any depth is read. A nested type
        is appended to unit.types before the type that declares it."""
        stack = [self.type_head(mods)]
        while stack:
            decl = stack[-1]
            t = self.peek()
            if t is None:
                raise ParseError(f"unbalanced braces in type {decl.name}")
            if t == "}":
                self.take()
                stack.pop()
                field_names = set(decl.field_names)
                for method in decl.constructors + decl.methods:
                    method.accessed_field_names &= field_names
                self.unit.types.append(decl)
                continue
            mods = self.modifiers()
            if (t := self.peek()) == "{":  # instance/static initializer block
                self.skim_balanced("{")
            elif t in TYPE_KINDS:
                stack.append(self.type_head(mods))
            else:  # a bare ';' is an empty member
                self.parse_member(decl)

    def type_head(self, mods: set[str]) -> TypeDecl:
        """Read a type's header through its '{' and, for an enum, its constants."""
        kind = self.take()  # class | interface | enum
        name = self.take()
        decl = TypeDecl(name=name, kind=kind, is_abstract=kind == "interface" or "abstract" in mods)
        self.skip_generics()
        if self.at("extends"):  # interfaces may extend several
            decl.extends_names = self._type_list()
        implemented = self._type_list() if self.at("implements") else []
        decl.referenced_type_names.update(decl.extends_names, implemented)
        self.expect("{")
        if kind == "enum":
            self.skip_enum_constants()
        return decl

    def skip_enum_constants(self):
        """Skip an enum's constants, with their arguments and bodies, through
        the first top-level ';' or up to the enum's closing '}'."""
        while (t := self.peek()) is not None and t != "}":
            if t in ("(", "{"):
                self.skim_balanced(t)
            elif self.take() == ";":
                return

    def _type_list(self) -> list[str]:
        """The comma-separated names after 'extends', 'implements' or 'throws'."""
        names = []
        while not names or self.at(","):
            self.take()
            names.append(self.dotted_name())
            self.skip_generics()
        return names

    def parse_member(self, decl: TypeDecl):
        """Parse one field or method/constructor declaration."""
        self.skip_generics()  # generic method type parameters
        texts, start, end = self.texts, self.i, len(self.texts)
        i, angle, closers = start, 0, _SECTIONS["<"]
        while i < end and (t := texts[i]) != "}":
            if t == "<":
                angle += 1
            elif t in closers and angle > 0:
                angle -= closers[t]
            elif angle == 0 and t in ("(", "=", ",", ";"):
                self.i = i
                (self.parse_callable if t == "(" else self.parse_field_decl)(decl, range(start, i))
                return
            i += 1
        self.i = i  # recovery: truncated member

    def parse_callable(self, decl: TypeDecl, head: range):
        if not head:
            # Recovery: stray parenthesis, skim it.
            self.skim_balanced("(")
            return
        name = self.texts[head[-1]]
        is_ctor = len(head) == 1 and name == decl.name
        method = MethodDecl(name)
        decl.referenced_type_names.update(self.identifiers(head[:-1]))
        self.parse_parameters(decl, method)
        if self.at("throws"):
            decl.referenced_type_names.update(self._type_list())
        # Recovery: skim whatever comes before the body or the statement end.
        texts, i, end = self.texts, self.i, len(self.texts)
        while i < end and texts[i] not in (";", "{"):
            i += 1
        self.i = i
        if self.at("{"):
            self.parse_body(decl, method)
        elif i < end:
            self.i += 1  # the ';'
        (decl.constructors if is_ctor else decl.methods).append(method)

    def parse_parameters(self, decl: TypeDecl, method: MethodDecl):
        """A comma splits parameters only outside brackets and generics; an
        annotation, with its arguments, adds no type name."""
        opener = self.expect("(")
        texts, i, end = self.texts, self.i, len(self.texts)
        depth, angle, closers = 1, 0, _SECTIONS["<"]
        segment: list[int] = []
        segments: list[list[int]] = []
        while i < end:
            if (t := texts[i]) == "@":
                self.i = i
                self.skip_annotation()
                i = self.i
                continue
            i += 1
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
                if depth == 0 and t == ")":
                    break
            elif t == "<":
                angle += 1
            elif t in closers and angle > 0:
                angle -= closers[t]
            elif t == "," and depth == 1 and angle == 0:
                segments.append(segment)
                segment = []
                continue
            segment.append(i - 1)
        else:
            raise self.error("unbalanced parameter list", opener)
        self.i = i
        if segment:
            segments.append(segment)
        method.parameter_count = len(segments)
        for seg in segments:
            # Last identifier is the parameter name; the rest are type names.
            decl.referenced_type_names.update(self.identifiers(seg)[:-1])

    def parse_body(self, decl: TypeDecl, method: MethodDecl):
        """Walk the body once, from its '{' to the matching '}'.

        Halstead operators are operator symbols (a ternary counts once, as
        '?:'), control keywords and called method names; operands are the other
        identifiers and literals. Every identifier not behind a '.', or behind
        'this .', is a candidate field access; parse_type keeps those that name
        a field of the type."""
        opener = self.expect("{")
        texts, kinds, end = self.texts, self.kinds, len(self.texts)
        operators, operands = method.operator_tokens, method.operand_tokens
        fields = method.accessed_field_names
        depth, depths, decisions = 1, [1], 0
        i = self.i
        while i < end:
            kind, text = kinds[i], texts[i]
            if kind == "punctuation":
                if text == "{":
                    depth += 1
                    depths.append(depth)
                elif text == "}":
                    depth -= 1
                    if depth == 0:
                        break
            elif kind == "identifier":
                if i + 1 < end and texts[i + 1] == "(":
                    operators[text] = operators.get(text, 0) + 1
                else:
                    operands[text] = operands.get(text, 0) + 1
                if texts[i - 1] != "." or texts[i - 2] == "this":
                    fields.add(text)
            elif kind == "operator-symbol":
                text = "?:" if text == "?" else text
                operators[text] = operators.get(text, 0) + 1
                if text in ("?:", "&&", "||"):
                    decisions += 1
            elif kind == "keyword":
                if text in HALSTEAD_KEYWORDS:
                    operators[text] = operators.get(text, 0) + 1
                if text in DECISION_KEYWORDS:
                    decisions += 1
                elif text == "new" and i + 1 < end and kinds[i + 1] == "identifier":
                    j = i + 1
                    parts = [texts[j]]
                    while j + 2 < end and texts[j + 1] == "." and kinds[j + 2] == "identifier":
                        parts.append(texts[j + 2])
                        j += 2
                    decl.referenced_type_names.add(".".join(parts))
            elif kind == "literal":
                operands[text] = operands.get(text, 0) + 1
            i += 1
        else:
            raise self.error("unbalanced method body", opener)
        self.i = i + 1
        method.block_depths = depths
        method.decision_points = decisions
        method.body_lines = self.lines[i] - self.lines[opener] + 1

    def parse_field_decl(self, decl: TypeDecl, head: range):
        """head holds the type part plus the first declarator name."""
        if not head:
            self.take()
            return
        decl.field_names.append(self.texts[head[-1]])
        decl.referenced_type_names.update(self.identifiers(head[:-1]))
        # Consume initializers and further declarators up to ';'. An initializer's
        # generics may hold a comma, so the identifier after a comma names a
        # declarator only when '=', ',', ';' or '[' follows it.
        depth = 0
        after_comma = False
        while self.peek() is not None:
            t = self.take()
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and t == ";":
                break
            elif after_comma and self.kinds[self.i - 1] == "identifier":
                if self.peek() in ("=", ",", ";", "["):
                    decl.field_names.append(t)
            after_comma = depth == 0 and t == ","


def parse_unit(tokens: Tokens, file_path: str) -> CompilationUnit:
    """Parse a token stream into a CompilationUnit."""
    return _Parser(tokens, file_path).parse()


def parse_source(source_text: str, file_path: str) -> CompilationUnit:
    """Tokenize and parse a source file's text."""
    return parse_unit(tokenize(source_text), file_path)
