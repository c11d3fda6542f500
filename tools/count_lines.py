#!/usr/bin/env python3
"""Non-comment line counter for the C++ sources.

Counts the lines of every `*.cpp` and `*.hpp` file under each DIR after
stripping `//` and `/* */` comments (outside string and char literals)
and dropping lines left blank. This is the line measure the ROADMAP's
"same behaviour from less code" aim is judged by, so every quoted count
should come from this script.

Usage:
  count_lines.py DIR [DIR ...]

Prints one `<count> <DIR>` line per DIR and, for more than one DIR, a
`<count> total` line. Exit codes: 0 ok, 2 usage error.
"""

import os
import sys

SUFFIXES = (".cpp", ".hpp")


def in_number(text, i):
    """True when the quote at `i` sits inside a numeric literal."""
    start = i
    while start > 0 and (text[start - 1].isalnum() or
                         text[start - 1] in "_'"):
        start -= 1
    return start < i and text[start].isdigit()


def strip_comments(text):
    """Returns `text` with its comments removed, newlines kept."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c == "'" and in_number(text, i):
            out.append(c)  # a digit separator (0xF10C'1AB0), not a char
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def count_file(path):
    with open(path, encoding="utf-8") as f:
        text = strip_comments(f.read())
    return sum(1 for line in text.split("\n") if line.strip())


def count_dir(root):
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(SUFFIXES):
                total += count_file(os.path.join(dirpath, name))
    return total


def main(argv):
    if not argv or any(not os.path.isdir(d) for d in argv):
        print("usage: count_lines.py DIR [DIR ...]", file=sys.stderr)
        return 2
    grand = 0
    for root in argv:
        count = count_dir(root)
        grand += count
        print(f"{count} {root}")
    if len(argv) > 1:
        print(f"{grand} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
