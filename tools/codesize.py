#!/usr/bin/env python3
"""Print three size figures of the main code (`src/main` and `jobs`).

    main_loc          lines of every file there, as `wc -l` counts them;
    public_params     parameters of the non-private `def`s declared directly
                      in class, object and trait bodies, plus the parameters
                      of public constructors of non-private classes;
    defaulted_params  those of the public parameters that carry a default
                      value: the settings a caller may leave unset.

`public_params` comes from a brace-depth scan, not a parser: comments and
string literals are blanked, each `{` is marked as a template body when a
`class`, `object` or `trait` header opened it, and a `def` counts when the
innermost open brace is a template body. `private` and `private[pkg]`
members count as private; `protected` ones count as public. Implicit
parameter lists count like the others; type parameter lists `[...]` do not.
A parameter has a default when its item holds a lone `=` outside any bracket.

Usage: python3 tools/codesize.py [repository root]   (default: this checkout)
"""

import os
import re
import sys

DIRS = ("src/main", "jobs")


def files(root):
    for d in DIRS:
        for base, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                yield os.path.join(base, name)


def main_loc(root):
    total = 0
    for path in files(root):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def blank(src):
    """`src` with comments and string and char literals replaced by spaces,
    newlines kept."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif src.startswith("/*", i):
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif src.startswith('"""', i):
            j = src.find('"""', i + 3)
            j = n if j < 0 else j + 3
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] not in '"\n':
                j += 2 if src[j] == "\\" else 1
            out.append(" " * (j + 1 - i))
            i = j + 1
        elif c == "'" and i + 2 < n and (src[i + 2] == "'" or src[i + 1] == "\\"):
            j = src.find("'", i + 2 if src[i + 1] == "\\" else i + 1)
            out.append(" " * (j + 1 - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def skip_brackets(s, i):
    """Index just past the `[...]` list starting at s[i], or i if none."""
    if i < len(s) and s[i] == "[":
        depth = 0
        while i < len(s):
            depth += {"[": 1, "]": -1}.get(s[i], 0)
            i += 1
            if depth == 0:
                break
    return i


def param_lists(s, i):
    """(parameters, parameters with a default) of the `(...)` lists starting
    at or after s[i]."""
    count = defaulted = 0
    while True:
        while i < len(s) and s[i] in " \t":
            i += 1
        i = skip_brackets(s, i)
        while i < len(s) and s[i] in " \t\n":
            i += 1
        if i >= len(s) or s[i] != "(":
            return count, defaulted
        # A parameter is a top-level comma-separated item with text in it,
        # so a trailing comma adds none.
        depth, j, items, text, default = 0, i, 0, False, False
        while j < len(s):
            ch = s[j]
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth == 0:
                    break
            elif ch == "," and depth == 1:
                items += text
                defaulted += default
                text = default = False
            else:
                if ch == "=" and depth == 1 and s[j - 1] not in "=<>!:" and s[j + 1] not in "=>":
                    default = True
                text = text or not ch.isspace()
            j += 1
        count += items + text
        defaulted += default
        i = j + 1


WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def statement_prefix(s, i):
    """Text from the start of the statement to s[i]: back to the last
    newline, `;`, `{` or `}` before it."""
    j = i
    while j > 0 and s[j - 1] not in "\n;{}":
        j -= 1
    return s[j:i]


def public_params(root):
    """(public_params, defaulted_params)."""
    total = defaulted = 0
    for path in files(root):
        if not path.endswith(".scala"):
            continue
        with open(path, encoding="utf-8") as f:
            s = blank(f.read())
        stack, pending, parens = [], False, 0
        i = 0
        while i < len(s):
            c = s[i]
            if c == "(":
                parens += 1
            elif c == ")":
                parens -= 1
            elif c == "{":
                stack.append("template" if pending else "block")
                pending = False
            elif c == "}":
                if stack:
                    stack.pop()
            elif (c.isalpha() or c == "_") and (i == 0 or not (s[i - 1].isalnum() or s[i - 1] == "_")):
                word = WORD.match(s, i).group(0)
                in_template = not stack or stack[-1] == "template"
                if parens == 0 and word in ("class", "object", "trait"):
                    private = "private" in statement_prefix(s, i)
                    pending = True
                    if word == "class" and in_template and not private:
                        name = WORD.match(s, i + len(word) + 1)
                        if name:
                            j = skip_brackets(s, name.end())
                            head = s[j:j + 40].lstrip(" \t")
                            if not head.startswith("private"):
                                n, d = param_lists(s, j)
                                total += n
                                defaulted += d
                elif parens == 0 and word in ("def", "val", "var", "type"):
                    pending = False
                    if word == "def" and stack and stack[-1] == "template" \
                            and "private" not in statement_prefix(s, i):
                        name = WORD.match(s, i + 4) or re.compile(r"\S+").match(s, i + 4)
                        n, d = param_lists(s, name.end())
                        total += n
                        defaulted += d
                i += len(word)
                continue
            i += 1
    return total, defaulted


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    print(f"main_loc {main_loc(root)}")
    params, defaulted = public_params(root)
    print(f"public_params {params}")
    print(f"defaulted_params {defaulted}")
