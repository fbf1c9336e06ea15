"""Independent brute-force oracle for the 42 file metrics.

This is a deliberately separate implementation used only by the tests: a
regex tokenizer plus an explicit index-walking structure scan. It supports
exactly the constructs appearing in the fixture corpus (no generics, no
annotations, no nested types) and asserts loudly if it meets anything else.
It must never import from the production package.
"""

import math
import re
from collections import Counter
from pathlib import Path

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<char>'(?:\\.|[^'\\\n])*')
  | (?P<number>\d[\w.]*|\.\d[\w.]*)
  | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<symbol>>>>=|<<=|>>=|>>>|==|!=|<=|>=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<|>>|->|::|[+\-*/%=<>!&|^~?.])
  | (?P<punct>[;,{}()\[\]:@])
  | (?P<space>\s+)
    """,
    re.VERBOSE | re.DOTALL,
)

KEYWORDS = set(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)
WORD_LITERALS = {"true", "false", "null"}
MODS = set("public private protected static final abstract synchronized native transient volatile strictfp default".split())
CONTROL_OPS = set("if else for while do switch case return new try catch finally throw instanceof".split())
DECISIONS = {"if", "for", "while", "do", "case", "catch"}


def lex(text):
    """(kind, text, line) triples; kinds: comment, literal, word, keyword, sym, punct."""
    out = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        assert m.start() == pos, f"oracle lexer stuck at offset {pos}"
        pos = m.end()
        group = m.lastgroup
        tok = m.group()
        if group == "space":
            pass
        elif group == "comment":
            out.append(("comment", tok, line))
        elif group in ("string", "char", "number"):
            out.append(("literal", tok, line))
        elif group == "word":
            if tok in WORD_LITERALS:
                out.append(("literal", tok, line))
            elif tok in KEYWORDS:
                out.append(("keyword", tok, line))
            else:
                out.append(("word", tok, line))
        elif group == "symbol":
            out.append(("sym", tok, line))
        else:
            out.append(("punct", tok, line))
        line += tok.count("\n")
    assert pos == len(text), "oracle lexer did not consume the whole file"
    return out


def classify(body):
    """Operator/operand multisets under the fixed token table."""
    ops = Counter()
    operands = Counter()
    for idx, (kind, tok, _) in enumerate(body):
        if kind == "sym":
            if tok == ":":
                continue
            ops["?:" if tok == "?" else tok] += 1
        elif kind == "keyword" and tok in CONTROL_OPS:
            ops[tok] += 1
        elif kind == "word":
            nxt = body[idx + 1] if idx + 1 < len(body) else None
            if nxt is not None and nxt[1] == "(":
                ops[tok] += 1
            else:
                operands[tok] += 1
        elif kind == "literal":
            operands[tok] += 1
    return ops, operands


class OracleUnit:
    def __init__(self, path, text):
        self.path = path
        self.physical_lines = len(text.splitlines())
        toks = lex(text)
        self.comment_count = sum(1 for k, _, _ in toks if k == "comment")
        code = [t for t in toks if t[0] != "comment"]
        self.code_lines = len({ln for _, _, ln in code})
        self.package = ""
        self.imports = []
        self.types = []
        self._scan(code)

    def _scan(self, toks):
        i = 0
        n = len(toks)
        while i < n:
            kind, tok, _ = toks[i]
            if tok == "package":
                j = i + 1
                parts = []
                while toks[j][1] != ";":
                    if toks[j][1] != "...":
                        parts.append(toks[j][1])
                    j += 1
                self.package = "".join(parts)
                i = j + 1
            elif tok == "import":
                j = i + 1
                parts = []
                while toks[j][1] != ";":
                    parts.append(toks[j][1])
                    j += 1
                self.imports.append("".join(parts))
                i = j + 1
            elif tok in ("class", "interface"):
                mods = set()
                k = i - 1
                while k >= 0 and toks[k][1] in MODS:
                    mods.add(toks[k][1])
                    k -= 1
                i = self._scan_type(toks, i, mods)
            else:
                i += 1

    def _scan_type(self, toks, i, mods):
        decl_kind = toks[i][1]
        name = toks[i + 1][1]
        i += 2
        extends = []
        implements = []
        bucket = None
        while toks[i][1] != "{":
            tok = toks[i][1]
            if tok == "extends":
                bucket = extends
                bucket.append("")
            elif tok == "implements":
                bucket = implements
                bucket.append("")
            elif tok == ",":
                bucket.append("")
            elif bucket is not None:
                bucket[-1] += tok
            i += 1
        t = {
            "name": name,
            "kind": decl_kind,
            "abstract": decl_kind == "interface" or "abstract" in mods,
            "extends": [e for e in extends if e],
            "implements": [s for s in implements if s],
            "fields": [],
            "ctors": [],
            "methods": [],
            "refs": set(),
        }
        t["refs"].update(t["extends"])
        t["refs"].update(t["implements"])
        i += 1  # past '{'
        i = self._scan_members(toks, i, t)
        # field access resolution
        fields = set(t["fields"])
        for member in t["ctors"] + t["methods"]:
            body = member["body"]
            for idx, (kind, tok, _) in enumerate(body):
                if kind != "word" or tok not in fields:
                    continue
                prev = body[idx - 1] if idx > 0 else None
                if prev is not None and prev[1] == ".":
                    prev2 = body[idx - 2] if idx > 1 else None
                    if prev2 is None or prev2[1] != "this":
                        continue
                member["access"].add(tok)
        self.types.append(t)
        return i

    def _scan_members(self, toks, i, t):
        n = len(toks)
        while i < n:
            tok = toks[i][1]
            if tok == "}":
                return i + 1
            if tok == ";":
                i += 1
                continue
            while toks[i][1] in MODS:
                i += 1
            assert toks[i][1] not in ("class", "interface", "{", "@"), (
                f"oracle does not support nested construct {toks[i][1]!r} in {self.path}"
            )
            head = []
            while toks[i][1] not in ("(", "=", ",", ";"):
                head.append(toks[i])
                i += 1
            sep = toks[i][1]
            if sep == "(":
                i = self._scan_callable(toks, i, t, head)
            else:
                i = self._scan_field(toks, i, t, head)
        raise AssertionError(f"unterminated type body in {self.path}")

    def _scan_callable(self, toks, i, t, head):
        name = head[-1][1]
        type_part = head[:-1]
        is_ctor = not type_part and name == t["name"]
        t["refs"].update(w for k, w, _ in type_part if k == "word")
        # parameters
        depth = 1
        i += 1
        segs = [[]]
        while depth > 0:
            tok = toks[i][1]
            if tok in ("(", "["):
                depth += 1
            elif tok in (")", "]"):
                depth -= 1
                if depth == 0:
                    break
            elif tok == "," and depth == 1:
                segs.append([])
                i += 1
                continue
            segs[-1].append(toks[i])
            i += 1
        i += 1  # past ')'
        params = 0 if segs == [[]] else len(segs)
        for seg in segs:
            words = [w for k, w, _ in seg if k == "word"]
            t["refs"].update(words[:-1])
        if toks[i][1] == "throws":
            i += 1
            while toks[i][1] not in ("{", ";"):
                if toks[i][1] not in (",", "."):
                    t["refs"].add(toks[i][1])
                i += 1
        member = {
            "name": name,
            "params": params,
            "body": [],
            "depths": [],
            "decisions": 0,
            "lines": 0,
            "access": set(),
        }
        if toks[i][1] == "{":
            open_line = toks[i][2]
            depth = 1
            member["depths"].append(1)
            i += 1
            while depth > 0:
                kind, tok, line = toks[i]
                if tok == "{":
                    depth += 1
                    member["depths"].append(depth)
                elif tok == "}":
                    depth -= 1
                    if depth == 0:
                        member["lines"] = line - open_line + 1
                        i += 1
                        break
                member["body"].append(toks[i])
                if (kind == "keyword" and tok in DECISIONS) or tok in ("?", "&&", "||"):
                    member["decisions"] += 1
                if tok == "new" and toks[i + 1][0] == "word":
                    j = i + 1
                    ref = toks[j][1]
                    while toks[j + 1][1] == "." and toks[j + 2][0] == "word":
                        ref += "." + toks[j + 2][1]
                        j += 2
                    t["refs"].add(ref)
                i += 1
        else:
            assert toks[i][1] == ";", f"oracle confused after {name} in {self.path}"
            i += 1
        ops, operands = classify(member["body"])
        member["ops"] = ops
        member["operands"] = operands
        (t["ctors"] if is_ctor else t["methods"]).append(member)
        return i

    def _scan_field(self, toks, i, t, head):
        names = [head[-1][1]]
        t["refs"].update(w for k, w, _ in head[:-1] if k == "word")
        depth = 0
        want_name = False
        while True:
            tok = toks[i][1]
            if tok in ("(", "[", "{"):
                depth += 1
            elif tok in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and tok == ",":
                want_name = True
            elif depth == 0 and tok == ";":
                i += 1
                break
            elif want_name and toks[i][0] == "word":
                names.append(tok)
                want_name = False
            i += 1
        t["fields"].extend(names)
        return i


def _entropy_free_mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _halstead(ops, operands):
    N1, N2 = sum(ops.values()), sum(operands.values())
    n1, n2 = len(ops), len(operands)
    N, n = N1 + N2, n1 + n2
    V = N * math.log2(n) if n else 0.0
    D = (n1 / 2) * (N2 / n2) if n2 else 0.0
    L = min(1.0, 1.0 / D) if D else 0.0
    E = D * V
    return {
        30: N2, 31: N1, 32: n2, 33: n1, 34: V / 3000, 35: D, 36: E,
        37: E / 18, 38: N, 39: L, 40: n, 41: V,
    }


def _lcom(t):
    members = t["ctors"] + t["methods"]
    access = [m["access"] for m in members]
    m, a = len(access), len(t["fields"])
    p = q = 0
    for i in range(m):
        for j in range(i + 1, m):
            if access[i] & access[j]:
                q += 1
            else:
                p += 1
    l1 = p / (p + q) if p + q else 0.0
    mu = sum(sum(1 for acc in access if f in acc) for f in t["fields"])
    l2 = 1 - mu / (m * a) if m * a else 0.0
    l3 = (m - mu / a) / (m - 1) if m > 1 and a else 0.0
    return l1, l2, l3


class OracleCorpus:
    def __init__(self, root: Path):
        self.units = [
            OracleUnit(p.relative_to(root).as_posix(), p.read_text())
            for p in sorted(root.rglob("*.java"))
        ]
        self.index = {}
        self.packages = {}
        for u in self.units:
            for t in u.types:
                q = f"{u.package}.{t['name']}" if u.package else t["name"]
                assert q not in self.index, f"duplicate type {q}"
                self.index[q] = (u, t)
                self.packages.setdefault(u.package, set()).add(q)
        self.edges = set()
        for u in self.units:
            for t in u.types:
                q = f"{u.package}.{t['name']}" if u.package else t["name"]
                for ref in t["refs"]:
                    target = self.resolve(u, ref)
                    if target and target != q:
                        self.edges.add((q, target))

    def resolve(self, unit, name):
        if "." in name:
            if name in self.index:
                return name
            qualifier, simple = name.rsplit(".", 1)
            owner = self.resolve(unit, qualifier)
            if owner is None:
                return None
            package = self.index[owner][0].package
            candidate = f"{package}.{simple}" if package else simple
            return candidate if candidate in self.index else None
        for imp in unit.imports:
            if imp.endswith("." + name) and imp in self.index:
                return imp
        candidate = f"{unit.package}.{name}" if unit.package else name
        if candidate in self.index:
            return candidate
        return name if name in self.index else None

    def dit(self, qname, seen=()):
        assert qname not in seen, f"inheritance cycle at {qname}"
        unit, t = self.index[qname]
        if not t["extends"]:
            return 0
        best = 1
        for sup in t["extends"]:
            target = self.resolve(unit, sup)
            if target:
                best = max(best, 1 + self.dit(target, seen + (qname,)))
        return best

    def martin(self, package):
        members = self.packages[package]
        A = sum(1 for q in members if self.index[q][1]["abstract"]) / len(members)
        ca = len({s for s, d in self.edges if d in members and s not in members})
        ce = len({s for s, d in self.edges if s in members and d not in members})
        I = ce / (ca + ce) if ca + ce else 0.0
        return A, ca, ce, I, abs(A + I - 1)

    def file_metrics(self, unit):
        types = unit.types
        assert types, f"{unit.path} has no types"
        methods = [m for t in types for m in t["methods"]]
        ctors = [c for t in types for c in t["ctors"]]
        nc = len(types)
        v = {}
        v[1] = sum(len(t["fields"]) for t in types)
        v[2] = v[1] / nc
        v[3] = len(ctors) / nc
        v[4] = unit.comment_count / nc
        v[5] = _entropy_free_mean(m["lines"] for m in methods)
        v[6] = len(methods) / nc
        v[7] = _entropy_free_mean(m["params"] for m in methods)
        v[8] = len(self.packages[unit.package])
        v[9] = unit.code_lines / max(1, unit.comment_count)
        v[10] = len(ctors)
        v[11] = len(unit.imports)
        v[12] = sum(1 for t in types if t["kind"] == "interface")
        v[13] = unit.code_lines
        v[14] = unit.comment_count
        v[15] = len(methods)
        v[16] = sum(m["params"] for m in methods)
        v[17] = unit.physical_lines
        v[18], v[19], v[20], v[21], v[22] = self.martin(unit.package)
        v[23] = _entropy_free_mean(
            d for m in methods + ctors for d in m["depths"]
        )
        v[24] = _entropy_free_mean(
            sum(m["decisions"] + 1 for m in t["methods"]) for t in types
        )
        if methods:
            ave_v = _entropy_free_mean(
                (sum(m["ops"].values()) + sum(m["operands"].values()))
                * (math.log2(len(m["ops"]) + len(m["operands"])) if m["ops"] or m["operands"] else 0.0)
                for m in methods
            )
            ave_cc = _entropy_free_mean(m["decisions"] + 1 for m in methods)
            ave_loc = _entropy_free_mean(m["lines"] for m in methods)
            v[25] = max(
                0.0,
                171
                - 5.2 * math.log(max(1.0, ave_v))
                - 0.23 * ave_cc
                - 16.2 * math.log(max(1.0, ave_loc)),
            )
        else:
            v[25] = 171.0
        v[26] = sum(m["decisions"] + 1 for m in methods)
        lcoms = [_lcom(t) for t in types]
        v[27] = _entropy_free_mean(x[0] for x in lcoms)
        v[28] = _entropy_free_mean(x[1] for x in lcoms)
        v[29] = _entropy_free_mean(x[2] for x in lcoms)
        pooled_ops = Counter()
        pooled_operands = Counter()
        for m in methods + ctors:
            pooled_ops.update(m["ops"])
            pooled_operands.update(m["operands"])
        v.update(_halstead(pooled_ops, pooled_operands))
        v[42] = _entropy_free_mean(
            self.dit(f"{unit.package}.{t['name']}" if unit.package else t["name"])
            for t in types
        )
        return v

    def all_metrics(self):
        return {u.path: self.file_metrics(u) for u in self.units}


class CycleFound(Exception):
    pass


class OracleInheritance:
    """Left-out files and depths of inheritance by the recursive algorithm that
    extract used before the code model computed depths in one pass.

    Files declaring a type that is declared twice are left out first. Then a
    path-tracking DFS runs from every type, and each file whose first such DFS
    meets a cycle is left out with the path the DFS was on. The older
    algorithm rebuilt its index once and then failed on any cycle the rebuild
    uncovered; this one repeats the DFS step until no cycle is left.
    """

    resolve = OracleCorpus.resolve

    def __init__(self, root: Path):
        units = sorted(
            (OracleUnit(p.relative_to(root).as_posix(), p.read_text()) for p in root.rglob("*.java")),
            key=lambda u: u.path,
        )
        declared = {}
        for u in units:
            for t in u.types:
                declared.setdefault(_qualify(u, t), []).append(u.path)
        excluded = {
            path: f"duplicate type {q} declared in {' and '.join(sorted(paths))}"
            for q, paths in declared.items() if len(paths) > 1
            for path in paths
        }
        while True:
            self.index = {_qualify(u, t): (u, t) for u in units if u.path not in excluded for t in u.types}
            cycles = {}
            for q, (u, _) in self.index.items():
                try:
                    self.dit(q)
                except CycleFound as exc:
                    cycles.setdefault(u.path, str(exc))
            if not cycles:
                break
            excluded.update(cycles)
        self.excluded = sorted(excluded.items())
        self.depth = {q: self.dit(q) for q in self.index}

    def dit(self, qname, path=()):
        if qname in path:
            raise CycleFound("inheritance cycle: " + " -> ".join(path + (qname,)))
        unit, t = self.index[qname]
        best = 1 if t["extends"] else 0  # an unresolved supertype counts one level
        for sup in t["extends"]:
            target = self.resolve(unit, sup)
            if target == qname:
                raise CycleFound(f"inheritance cycle: {qname} extends itself")
            if target is not None:
                best = max(best, 1 + self.dit(target, path + (qname,)))
        return best


def _qualify(unit, t):
    return f"{unit.package}.{t['name']}" if unit.package else t["name"]
