"""The lines of src/udfield that a command never runs, by sys.settrace alone.

    python3 checks/linetrace.py                      # Tier-1 (pytest -q)
    python3 checks/linetrace.py python3 -m udfield gs-check --T 3,5 --S 101
    python3 checks/linetrace.py --check              # Tier-1 against the list

The command runs from the repository root with a generated `sitecustomize`
first on PYTHONPATH and src/ after it.  Python imports that module at
start-up, so every Python process the command starts, the CLI children of
the tests included, records the lines it runs in src/udfield and writes
them out at exit.  The executable lines of a module are the line numbers
that `co_lines` gives for its code objects.  The lines no process ran are
printed per file, then the totals; the exit code is the command's.

With --check, every unexecuted line must be listed in checks/unexecuted.txt
(one `src/udfield/<file>.py:<line> <reason>` per line, # for comments)
and every listed line must still be unexecuted; each exception is printed,
and the exit code is 1 when the command passed but the list does not.
"""

import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "udfield")
LISTED = os.path.join(HERE, "unexecuted.txt")
SITE = """import sys
sys.path.insert(0, {here!r})
import linetrace
sys.path.remove({here!r})
linetrace.start({out!r}, {src!r})
"""


def start(out_dir: str, src: str = SRC):
    """Record the lines this process runs in the files under src, and write
    them to a file of out_dir at exit."""
    prefix = os.path.join(os.path.realpath(src), "")
    ran, tracers = {}, {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = None
            path = os.path.realpath(name)
            if path.startswith(prefix):
                lines = ran.setdefault(path, set())

                def line(frame, event, arg):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return line
                tracers[name] = line
        return tracers[name]

    def save():
        sys.settrace(None)
        with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as f:
            json.dump({path: sorted(lines) for path, lines in ran.items()}, f)

    atexit.register(save)
    threading.settrace(call)
    sys.settrace(call)


def executable_lines(path: str) -> set:
    """The line numbers of every instruction of the module's code objects."""
    with open(path) as f:
        todo = [compile(f.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def _spans(lines):
    """'3-5, 9' for [3, 4, 5, 9]: runs of consecutive numbers."""
    runs = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace(command, src: str = SRC):
    """(returncode, processes, {path: lines run}) of command, run from ROOT."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = os.path.join(tmp, "site"), os.path.join(tmp, "lines")
        os.mkdir(site)
        os.mkdir(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as f:
            f.write(SITE.format(here=HERE, out=out, src=src))
        path = [site, os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        code = subprocess.run(command, cwd=ROOT, env=env).returncode
        ran = {}
        names = os.listdir(out)
        for name in names:
            with open(os.path.join(out, name)) as f:
                for path, lines in json.load(f).items():
                    ran.setdefault(path, set()).update(lines)
    return code, len(names), ran


def read_listed(path: str) -> dict:
    """{"file:line": reason} from a list of unexecuted lines."""
    listed = {}
    with open(path) as f:
        for text in f:
            text = text.strip()
            if text and not text.startswith("#"):
                key, _, reason = text.partition(" ")
                listed[key] = reason.strip()
    return listed


def problems(missed, listed: dict) -> list:
    """Each line of missed (a set of "file:line") that listed lacks or
    gives no reason, and each line of listed that is not in missed."""
    out = [f"{key}: unexecuted but not listed" for key in sorted(missed - listed.keys())]
    out += [f"{key}: listed without a reason" for key in sorted(missed & listed.keys())
            if not listed[key]]
    out += [f"{key}: listed but ran (or is no executable line)"
            for key in sorted(listed.keys() - missed)]
    return out


def main(argv) -> int:
    check = argv[:1] == ["--check"]
    command = argv[check:] or [sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors"]
    code, processes, ran = trace(command)
    total, missed = 0, set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        left = sorted(lines - ran.get(os.path.realpath(path), set()))
        total += len(lines)
        rel = os.path.relpath(path, ROOT)
        missed.update(f"{rel}:{n}" for n in left)
        if left:
            print(f"{rel}: {len(left)} of {len(lines)}: {_spans(left)}")
    print(f"unexecuted: {len(missed)} of {total} lines, {processes} processes traced")
    if not check:
        return code
    found = problems(missed, read_listed(LISTED))
    for text in found:
        print(text)
    print(f"check: {len(found)} lines disagree with {os.path.relpath(LISTED, ROOT)}")
    return code or int(bool(found))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
