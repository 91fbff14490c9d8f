"""README.md's library quick start runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

import clamm

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_states_what_it_computes():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    block = blocks[0]
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = block.splitlines()[node.end_lineno - 1].partition("#")[2].strip()
        if comment.endswith("..."):
            # a value cut short: its leading digits
            assert repr(value).startswith(comment[:-3]), (code, value)
        else:
            try:
                stated = eval(comment, vars(clamm))
            except SyntaxError:
                continue  # prose
            assert value == stated, (code, value)
        checked.append(code)
    assert len(checked) == 4
