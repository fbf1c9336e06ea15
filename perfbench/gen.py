"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed it is given, so the same seed
always yields byte-identical inputs. The Java generator stays inside the
subset that the independent metric oracle in tests/oracle_metrics.py
accepts: no generics, annotations, enums, lambdas or nested types.
"""

import json
import random
from pathlib import Path

# Package sizes cycle through these, so every seed gives exactly
# COUPLED_PACKAGES * mean(COUPLED_SIZES) files.
COUPLED_SIZES = (3, 4, 5, 6, 7)
COUPLED_PACKAGES = 200
# A package (one build) fails when it holds at least this many types.
COUPLED_FAIL_SIZE = 5

NOISY_ROWS = 150
NOISY_FLIP = 0.2
NOISY_SIGNAL = 9  # metric ID whose threshold decides the label before flips
PROBE_ROWS = 1200

_STRATEGIES = ("average", "maximum", "sum")

_STRINGS = (
    r'"plain"',
    r'"with \"quotes\" inside"',
    r'"http://not.a/comment"',
    r'"tab\tand /* no comment */"',
    r'""',
)
_CHARS = (r"'a'", r"'\n'", r"'\''", r"'/'", r"'\\'")
_NUMBERS = ("0", "1", "7", "42", "0x1F", "10L", "2.5", "2.5f", "1000", "1e3")


def _type_name(pkg: int, idx: int) -> str:
    # Globally unique simple names, so an import never shadows a local type.
    return f"T{pkg:03d}_{idx}"


def _statement(rng: random.Random, names: list[str]) -> list[str]:
    a, b = rng.choice(names), rng.choice(names)
    num = rng.choice(_NUMBERS)
    kind = rng.randrange(10)
    if kind == 0:
        return [f"if ({a} > {num} && {b} != {a} || !({a} == {b})) {{",
                f"    {a} += {b} * 3 - {num};", "}"]
    if kind == 1:
        return [f"for (int i = 0; i < {num}; i++) {{",
                f"    {a} ^= i | {b} & ~i;", "}"]
    if kind == 2:
        return [f"while ({a} >= 100) {{", f"    {a} /= 2;", f"    {b}--;", "}"]
    if kind == 3:
        return [f"{a} = {b} > {a} ? {b} % 5 : {a} << 2 >>> 1;"]
    if kind == 4:
        return [f"{a} = ({a} + {num}) * ({b} - 1) / 3;"]
    if kind == 5:
        return [f"String s = {rng.choice(_STRINGS)};", f"{a} += s.length();"]
    if kind == 6:
        return [f"char c = {rng.choice(_CHARS)};", f"{a} -= c;"]
    if kind == 7:
        return [f"{a} <<= 1;", f"{b} >>= 1;", f"{a} |= {b};", f"{b} >>>= 2;"]
    if kind == 8:
        return [f"{a} *= {num};", f"{b} &= {a} ^ 5;", f"{a} = {b} >> 1;"]
    return [f"if ({a} <= {b}) {{", f"    {a} = {a} + 1;", "} else {",
            f"    {b} %= 7;", "}"]


def _coupled_file(rng: random.Random, pkg: int, idx: int, is_interface: bool,
                  parent: str | None, iface: str | None, imports: list[str]) -> str:
    name = _type_name(pkg, idx)
    imported = [q.rsplit(".", 1)[1] for q in imports]
    lines = [f"package q{pkg:03d};", ""]
    lines += [f"import {q};" for q in imports]
    lines.append("")
    if rng.random() < 0.5:
        lines += ["/*", f" * {name}: generated type", " * with a block comment.", " */"]
    if is_interface:
        lines.append(f"public interface {name} {{")
        for m in range(rng.randrange(1, 4)):
            lines.append(f"    int op{m}(int a, int b);")
        lines.append("}")
        return "\n".join(lines) + "\n"

    header = f"public class {name}"
    if parent:
        header += f" extends {parent}"
    if iface:
        header += f" implements {iface}"
    lines.append(header + " {")
    fields = ["count", "limit"]
    lines.append(f"    private int count = {rng.choice(_NUMBERS[:5])};")
    lines.append("    private int limit, spare;")
    lines.append(f"    private String label = {rng.choice(_STRINGS)};")
    lines.append(f"    private char mark = {rng.choice(_CHARS)};")
    for k, dep in enumerate(imported):
        lines.append(f"    private {dep} dep{k};")

    if imported:
        lines.append(f"    public {name}({imported[0]} first) {{")
        lines.append("        this.dep0 = first;")
    else:
        lines.append(f"    public {name}() {{")
    lines.append("        this.limit = count * 2;")
    lines.append("    }")

    methods = rng.randrange(2, 6)
    if iface:
        methods = max(methods, 3)
    for m in range(methods):
        if rng.random() < 0.5:
            lines.append(f"    // method {m} of {name}")
        if iface and m < 3:
            sig = f"public int op{m}(int a, int b)"
        elif imported and rng.random() < 0.5:
            dep = rng.choice(imported)
            sig = f"public int step{m}(int a, {dep} other)"
        else:
            sig = f"public int step{m}(int a, int b)"
        lines.append(f"    {sig} {{")
        lines.append("        int r = a;")
        names = ["r", "a"] + fields
        for _ in range(rng.randrange(2, 7)):
            lines += ["        " + s for s in _statement(rng, names)]
        if imported and rng.random() < 0.5:
            k = rng.randrange(len(imported))
            lines.append(f"        if (dep{k} == null) {{")
            lines.append(f"            r += {rng.choice(_NUMBERS[:5])};")
            lines.append("        }")
        lines.append("        return r != 0 ? r : -1;")
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def coupled_corpus(root: Path, seed: int) -> tuple[Path, Path, int]:
    """Write a cross-package corpus and one manifest per package.

    Returns (source_dir, manifest_dir, file_count). Type 0 of a package is
    an interface about a third of the time; later classes usually extend
    the previous class of their package and may implement that interface. Every
    class imports one to four types from other packages and holds fields
    of them, so the type-dependency graph has several edges per file.
    """
    rng = random.Random(seed)
    sizes = [COUPLED_SIZES[p % len(COUPLED_SIZES)] for p in range(COUPLED_PACKAGES)]
    rng.shuffle(sizes)
    src, manifests = root / "src", root / "manifests"
    src.mkdir(parents=True)
    manifests.mkdir(parents=True)
    interface_pkgs = {p for p in range(COUPLED_PACKAGES) if rng.random() < 0.33}
    total = 0
    for pkg, size in enumerate(sizes):
        pkg_dir = src / f"q{pkg:03d}"
        pkg_dir.mkdir()
        files = []
        for idx in range(size):
            is_interface = idx == 0 and pkg in interface_pkgs
            parent = None
            if idx >= 1 and not (idx == 1 and pkg in interface_pkgs) and rng.random() < 0.7:
                parent = _type_name(pkg, idx - 1)
            iface = None
            if pkg in interface_pkgs and idx >= 1 and rng.random() < 0.5:
                iface = _type_name(pkg, 0)
            imports = []
            if not is_interface:
                others = rng.sample([p for p in range(COUPLED_PACKAGES) if p != pkg],
                                    rng.randrange(1, 5))
                imports = sorted(f"q{p:03d}.{_type_name(p, rng.randrange(sizes[p]))}" for p in others)
            text = _coupled_file(rng, pkg, idx, is_interface, parent, iface, imports)
            (pkg_dir / f"{_type_name(pkg, idx)}.java").write_text(text)
            files.append(f"q{pkg:03d}/{_type_name(pkg, idx)}.java")
        total += size
        manifest = {
            "build_id": f"build-{pkg:03d}",
            "kind": "nightly",
            "result": "failed" if size >= COUPLED_FAIL_SIZE else "success",
            "files": files,
        }
        (manifests / f"build-{pkg:03d}.json").write_text(json.dumps(manifest, indent=1))
    return src, manifests, total


def _dataset_csv(rows: list[tuple[str, str, list[float]]], strategy: str) -> str:
    lines = ["build_id,label," + ",".join(f"m{i}" for i in range(1, 43))]
    for bid, label, values in rows:
        lines.append(f"{bid},{label}," + ",".join(repr(v) for v in values))
    lines.append(f"# strategy={strategy} filter=full")
    return "\n".join(lines) + "\n"


def noisy_datasets(root: Path, seed: int) -> list[Path]:
    """Three build-level datasets (avg/max/sum footers) with label noise.

    Before noise, a build fails exactly when metric NOISY_SIGNAL exceeds 50;
    then exactly NOISY_FLIP of the rows have their label flipped. The other
    41 metrics are independent of the label: a mix of continuous columns and
    small-integer columns with many ties.
    """
    rng = random.Random(seed)
    root.mkdir(parents=True)
    paths = []
    for strategy in _STRATEGIES:
        flipped = set(rng.sample(range(NOISY_ROWS), round(NOISY_FLIP * NOISY_ROWS)))
        rows = []
        for r in range(NOISY_ROWS):
            values = []
            for mid in range(1, 43):
                if mid == NOISY_SIGNAL or mid % 3 == 0:
                    values.append(round(rng.uniform(0.0, 100.0), 3))
                else:
                    values.append(float(rng.randrange(0, 12 + mid)))
            failed = values[NOISY_SIGNAL - 1] > 50.0
            if r in flipped:
                failed = not failed
            rows.append((f"build-{r:04d}", "failed" if failed else "success", values))
        path = root / f"noisy-{strategy}.csv"
        path.write_text(_dataset_csv(rows, strategy))
        paths.append(path)
    return paths


def probe_dataset(path: Path, seed: int) -> Path:
    """A balanced, perfectly separable dataset of PROBE_ROWS rows.

    The tree is a single split, so the root node of each training fold holds
    about 1080 rows with about 540 errors when it is considered for pruning.
    """
    rng = random.Random(seed)
    rows = []
    for r in range(PROBE_ROWS):
        failed = r % 2 == 0
        values = [round(rng.uniform(0.0, 50.0), 3) for _ in range(42)]
        values[0] = float(rng.randrange(100, 200) if failed else rng.randrange(0, 100))
        rows.append((f"build-{r:04d}", "failed" if failed else "success", values))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dataset_csv(rows, "maximum"))
    return path
