"""The README's Python quick start runs and prints what it documents."""

import ast
import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_matches_its_comments():
    code = quick_start()
    namespace: dict = {}
    values = []  # each bare expression's value, in order
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expr = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(expr, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    closed, oracle = values
    assert "# -> 0.0267..." in code
    assert f"{closed:.6f}".startswith("0.0267")
    assert "same number to 1e-9" in code
    assert abs(oracle - closed) <= 1e-9
    assert "G1 = G2 = 2pi x 1.66 MHz, gamma/G = 0.011" in code
    dq, two_pi = namespace["dq"], 2 * math.pi
    assert dq.G1 == dq.G2 and f"{dq.G1 / two_pi / 1e6:.2f}" == "1.66"
    assert f"{dq.gamma / dq.G:.2g}" == "0.011"
