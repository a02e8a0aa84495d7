"""Write `_forms.py`: the numpy code sympy's `lambdify` generates for the
six slots of every expression the package builds from a fixed string.

    python -m conelab._gen_forms

Run it after changing one of those strings or upgrading sympy; `from_expr`
falls back to sympy for any string the table does not hold, and a test
fails while the committed file differs from what this writes.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import numpy as np

from .fields import _SLOTS, _symbolic_slots

def fixed_expressions() -> list:
    """(tag, expression) for each closed form the package builds itself: the
    battery, the spherical wave of width 1 and power 8, the multipole with
    k = n - 2 + ell = 2 and the three manufactured fields."""
    from .solver import _multipole_expr, _spherical_wave_expr
    from .verifier import _BATTERY_EXPRS, _PRETENDER_EXPRS

    return [*_BATTERY_EXPRS.items(),
            ("spherical-wave", _spherical_wave_expr(1.0, 8)),
            ("multipole-2", _multipole_expr(2)),
            *((f"pretender-{i}", e) for i, e in _PRETENDER_EXPRS.items())]


def _global_names(source: str) -> set:
    fn = ast.parse(source).body[0]
    params = {a.arg for a in fn.args.args}
    return {node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id not in params}


def render() -> str:
    """The text of `_forms.py` as the installed sympy writes it."""
    import sympy as sp

    defs, rows, names = [], [], set()
    for tag, expr in fixed_expressions():
        stem = re.sub(r"\W", "_", tag)
        args, slots = _symbolic_slots(expr)
        for slot, e in zip(_SLOTS, slots):
            source = inspect.getsource(sp.lambdify(args, e, [np])).rstrip("\n") + "\n"
            defs.append(source.replace("def _lambdifygenerated(", f"def {stem}_{slot}(", 1))
            names |= _global_names(source)
        funcs = ", ".join(f"{stem}_{slot}" for slot in _SLOTS)
        rows.append(f"    {expr!r}:\n        ({funcs}),\n")
    header = (f'"""Generated by `python -m conelab._gen_forms` with sympy {sp.__version__};'
              " do not edit.\n\nFORMS maps each expression string to its slots"
              f' {", ".join(_SLOTS)}.\n"""\n\n')
    return (header + f"from numpy import {', '.join(sorted(names))}\n\n\n" + "\n\n".join(defs)
            + "\n\nFORMS = {\n" + "".join(rows) + "}\n")


if __name__ == "__main__":
    target = Path(__file__).with_name("_forms.py")
    target.write_text(render())
    print(f"wrote {target}")
