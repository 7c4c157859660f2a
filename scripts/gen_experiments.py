#!/usr/bin/env python3
"""Refresh the generated tables of EXPERIMENTS.md in place.

Usage:
    cargo run -p doct-bench --release --bin experiments -- all > /tmp/experiments.txt
    python3 scripts/gen_experiments.py /tmp/experiments.txt

The prose (claims, verdicts, section headings) lives only in
EXPERIMENTS.md. Each generated table sits there under a caption line
`**E2c: <title>**`; the experiments binary prints the same table under
`## E2c: <title>`. For every table in the captured run this script
replaces the caption and the table below it, so each experiment heading
appears once and a partial run (`-- e2 e12`) refreshes only its own
tables. Tables with no caption in the document are reported, not added:
write the section's prose first.
"""
import re
import sys

DOC = "EXPERIMENTS.md"
captured = open(sys.argv[1] if len(sys.argv) > 1 else "/tmp/experiments.txt").read()

# key -> [caption, blank, table rows...] for every `## Ek: title` block.
tables = {}
key = None
for line in captured.splitlines():
    heading = re.match(r"## (E\d+[a-z]?): (.*)", line)
    if heading:
        key = heading.group(1)
        tables[key] = [f"**{key}: {heading.group(2)}**", ""]
    elif key and line.startswith("|"):
        tables[key].append(line)
    else:
        key = None

out, refreshed = [], set()
lines = open(DOC).read().splitlines()
i = 0
while i < len(lines):
    caption = re.match(r"\*\*(E\d+[a-z]?): .*\*\*$", lines[i])
    if caption and caption.group(1) in tables:
        refreshed.add(caption.group(1))
        out.extend(tables[caption.group(1)])
        i += 1
        while i < len(lines) and (lines[i] == "" or lines[i].startswith("|")):
            i += 1
        out.append("")
    else:
        out.append(lines[i])
        i += 1

open(DOC, "w").write("\n".join(out) + "\n")
print(f"{DOC}: refreshed {sorted(refreshed)}")
for key in sorted(set(tables) - refreshed):
    print(f"{DOC}: no `**{key}: …**` caption; table not placed", file=sys.stderr)
