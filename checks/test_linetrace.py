"""Self-test of the line tracer (outside Tier-1):

    python3 -m pytest -q checks/test_linetrace.py
"""

import ast
import os
import sys
import textwrap

import linetrace

TOY = textwrap.dedent('''\
    def used(x):
        if x > 0:
            return 1
        return 2


    def unused():
        y = 3
        return y


    used(1)
''')


def test_spans():
    assert linetrace._spans([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert linetrace._spans([]) == ""


def test_toy_module_lines(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    path = str(tmp_path / "toy.py")
    assert linetrace.executable_lines(path) == {1, 2, 3, 4, 7, 8, 9, 12}
    code, processes, ran = linetrace.trace(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(tmp_path)!r}); import toy"],
        src=str(tmp_path))
    assert code == 0 and processes == 1
    # the return 2 of used and the body of unused never ran
    assert linetrace.executable_lines(path) - ran[os.path.realpath(path)] == {4, 8, 9}


def _first_statement(path, name):
    tree = ast.parse(open(path).read())
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
    body = fn.body[1:] if isinstance(fn.body[0].value, ast.Constant) else fn.body
    return body[0].lineno


def test_cli_children_are_traced():
    child = ("import subprocess, sys; subprocess.run([sys.executable, '-m', 'udfield', "
             "'gs-check', '--T', '3,5,7', '--S', '101'], check=True, stdout=subprocess.DEVNULL)")
    code, processes, ran = linetrace.trace([sys.executable, "-c", child])
    assert code == 0 and processes == 2
    cli = os.path.realpath(os.path.join(linetrace.SRC, "cli.py"))
    counting = os.path.realpath(os.path.join(linetrace.SRC, "counting.py"))
    assert _first_statement(cli, "main") in ran[cli]
    assert _first_statement(counting, "erdos_grid") not in ran.get(counting, set())


def test_check_compares_unexecuted_lines_with_the_list(tmp_path):
    listed = tmp_path / "unexecuted.txt"
    listed.write_text("# toy.py of test_toy_module_lines\n\n"
                      "toy.py:4 the second return of used\n"
                      "toy.py:8 unused is never called\n"
                      "toy.py:9\n"
                      "toy.py:2 the test of used\n")
    missed = {"toy.py:4", "toy.py:8", "toy.py:9", "toy.py:12"}
    assert linetrace.problems(missed, linetrace.read_listed(str(listed))) == [
        "toy.py:12: unexecuted but not listed",
        "toy.py:9: listed without a reason",
        "toy.py:2: listed but ran (or is no executable line)"]
    assert linetrace.problems({"toy.py:4"}, {"toy.py:4": "a reason"}) == []


def test_listed_lines_are_executable_and_have_reasons():
    # a line number that drifted off its statement fails here without a trace
    listed = linetrace.read_listed(linetrace.LISTED)
    assert listed
    for key, reason in listed.items():
        path, _, line = key.rpartition(":")
        assert reason, key
        assert int(line) in linetrace.executable_lines(os.path.join(linetrace.ROOT, path)), key
