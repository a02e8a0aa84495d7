"""Write `_forms.py`: one numpy function per expression the package builds
from a fixed string, holding the code sympy's `lambdify` generates for the
six slots of that expression with each shared subexpression computed once.

    python -m conelab._gen_forms

Run it after changing one of those strings or upgrading sympy; `from_expr`
builds the same function at run time for any string the table does not
hold, and a test fails while the committed file differs from what this
writes.

The sharing is syntactic (`joint_source`): a subtree that occurs more than
once in the six `lambdify` sources is assigned to a local once and read by
name after that.  Nothing is re-associated or simplified, so every slot
comes out with the bits its own `lambdify` function gives.  Each branch of
a Piecewise runs only on the points that select it (`_select`): `numpy.select`
ran every branch everywhere, and numpy's float64 `power` of a negative base,
as outside the spherical wave's support, costs ~45 times a positive one.
"""

from __future__ import annotations

import ast
import copy
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .fields import _SLOTS, _multipole_expr, _spherical_wave_expr, _symbolic_slots

# A joint function `fn(u, v, k)` returns the first k slots; k is one of these.
SLOT_COUNTS = (1, 3, 4, 6)

# Nodes whose operands Python may skip or bind anew: shared as a whole, never
# taken apart, since hoisting an operand out would evaluate it eagerly.
_OPAQUE = (ast.IfExp, ast.BoolOp, ast.Lambda, ast.ListComp, ast.SetComp,
           ast.DictComp, ast.GeneratorExp)


def fixed_expressions() -> list:
    """(tag, expression) for each closed form the package builds itself: the
    battery, the spherical wave of width 1 and power 8 and the multipole with
    k = n - 2 + ell = 2.  The decay pretenders, whose B step 2 of the pipeline
    measures, are built by tests only, on `from_expr`'s run-time route."""
    from .verifier import _BATTERY_EXPRS

    return [*_BATTERY_EXPRS.items(),
            ("spherical-wave", _spherical_wave_expr(1.0, 8)),
            ("multipole-2", _multipole_expr(2))]


def _select(conds, branches, default):
    """`numpy.select(conds, [fn(*args) for fn, *args in branches], default)`
    calling each `fn` only where its condition is the first that holds, on
    its `args` gathered there (0-d ones as they are); the result is float64.
    A constant last branch, as `(0, True)`, fills the output, not `default`."""
    shape = np.broadcast_shapes(*map(np.shape, conds),
                                *(np.shape(a) for _, *args in branches for a in args))
    if conds[-1] is True and len(branches[-1]) == 1:
        conds, branches, default = conds[:-1], branches[:-1], branches[-1][0]()
    out, free = np.full(shape, default, dtype=float), np.ones(shape, dtype=bool)
    for cond, (fn, *args) in zip(conds, branches):
        taken = free.copy() if cond is True else free & cond  # `& True` is ~20x slower
        if taken.any():
            free ^= taken
            out[taken] = fn(*(np.broadcast_to(a, shape)[taken] if np.ndim(a) else a
                              for a in args))
    return out


def _branch_locally(stmt, local) -> None:
    """Rewrite each `select(conds, choices, default=...)` in `stmt` as a
    `_select` call whose branch i is `(lambda a, b: choice_i, a, b)`, where
    a, b are the names in `local` that choice i reads."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "select":
            node.func = ast.Name("_select", ast.Load())
            for i, choice in enumerate(node.args[1].elts):
                reads = ", ".join(dict.fromkeys(n.id for n in ast.walk(choice)
                                                if isinstance(n, ast.Name) and n.id in local))
                node.args[1].elts[i] = ast.parse(f"(lambda {reads}: 0, {reads})", mode="eval").body
                node.args[1].elts[i].elts[0].body = choice


def _shareable(node) -> bool:
    """A subtree worth a local: an expression that reads a name, other than
    a bare name or a list display (constant subtrees Python folds itself)."""
    return (isinstance(node, ast.expr) and not isinstance(node, (ast.Name, ast.List))
            and any(isinstance(n, ast.Name) for n in ast.walk(node)))


def joint_source(stem: str, slot_sources) -> str:
    """Source of `def stem(u, v, k)` returning the first k of the slots, given
    `lambdify`'s source of each slot in `_SLOTS` order.

    Every subtree that occurs more than once across the slots' return
    expressions (`_shareable` ones) becomes a local `x<i>`, assigned once,
    in the order of first use, and deleted after its last read.  A `return`
    follows slots 1, 3, 4 and 6, so a call computes only what its first k
    slots read.  Then each `select` becomes a `_select` (`_branch_locally`).
    """
    roots, params = [], None
    for source in slot_sources:
        (fn,) = ast.parse(source).body
        (ret,) = fn.body
        if not isinstance(ret, ast.Return) or ast.dump(fn.args) != ast.dump(params or fn.args):
            raise ValueError(f"not a one-line lambdify function:\n{source}")
        params = fn.args
        roots.append(ret.value)

    # references to each distinct subtree, counting the operands of a shared
    # one once: those are evaluated once, where it is assigned
    refs, seen = Counter(), set()

    def count(node):
        key = ast.dump(node)
        refs[key] += 1
        if key in seen and _shareable(node):
            return
        seen.add(key)
        if not isinstance(node, _OPAQUE):
            for child in ast.iter_child_nodes(node):
                count(child)

    for root in roots:
        count(root)

    names, body = {}, []

    def rewrite(node):
        key = ast.dump(node)
        if key in names:
            return ast.Name(names[key], ast.Load())
        if isinstance(node, _OPAQUE):
            new = copy.deepcopy(node)
        else:
            new = copy.copy(node)
            for field, value in ast.iter_fields(node):
                if isinstance(value, ast.AST):
                    setattr(new, field, rewrite(value))
                elif isinstance(value, list):
                    setattr(new, field, [rewrite(x) if isinstance(x, ast.AST) else x
                                         for x in value])
        if refs[key] > 1 and _shareable(node):
            names[key] = f"x{len(names)}"
            body.append(_assign(names[key], new))
            return ast.Name(names[key], ast.Load())
        return new

    for i, (slot, root) in enumerate(zip(_SLOTS, roots), 1):
        body.append(_assign(slot, rewrite(root)))
        if i in SLOT_COUNTS:
            ret = ast.Return(ast.Tuple([ast.Name(s, ast.Load()) for s in _SLOTS[:i]],
                                       ast.Load()))
            test = ast.parse(f"k == {i}", mode="eval").body
            body.append(ast.If(test, [ret], []) if i < len(_SLOTS) else ret)

    local = {a.arg for a in params.args} | set(names.values())
    for stmt in body:
        _branch_locally(stmt, local)
    last = {}
    for i, stmt in enumerate(body):
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and n.id in names.values():
                last[n.id] = i
    for i in sorted(set(last.values()), reverse=True):
        dead = [t for t in names.values() if last[t] == i]
        body.insert(i + 1, ast.Delete([ast.Name(t, ast.Del()) for t in dead]))

    args = copy.deepcopy(params)
    args.args.append(ast.arg("k"))
    fn = ast.FunctionDef(stem, args, body, [], None, None)
    return ast.unparse(ast.fix_missing_locations(ast.Module([fn], []))) + "\n"


def _assign(name: str, value):
    return ast.Assign([ast.Name(name, ast.Store())], value)


def slot_sources(expr) -> tuple:
    """`lambdify`'s source of each slot of `expr`, in `_SLOTS` order, and the
    global namespace those sources read.  A slot that calls a function numpy
    does not have (a derivative of `Abs` holds `DiracDelta`) raises
    InvalidInput."""
    import sympy as sp

    args, slots = _symbolic_slots(expr)
    fns = [sp.lambdify(args, e, [np]) for e in slots]
    namespace = {}
    for fn in fns:
        namespace.update(fn.__globals__)
    sources = [inspect.getsource(fn) for fn in fns]
    missing = set().union(*map(_global_names, sources)) - namespace.keys()
    if missing:
        raise InvalidInput(f"expression {expr!r} has a derivative numpy cannot evaluate: "
                           f"{', '.join(sorted(missing))}")
    return sources, namespace


def joint_function(expr):
    """The joint function of `expr`, compiled from `joint_source` at run time."""
    sources, namespace = slot_sources(expr)
    namespace["_select"] = _select
    exec(joint_source("joint", sources), namespace)
    return namespace["joint"]


def _global_names(source: str) -> set:
    """Names a function's source reads that it does not bind: its parameters,
    lambda parameters and comprehension variables are bound."""
    nodes = list(ast.walk(ast.parse(source)))
    bound = ({n.arg for n in nodes if isinstance(n, ast.arg)}
             | {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})
    return {n.id for n in nodes if isinstance(n, ast.Name)} - bound


def render() -> str:
    """The text of `_forms.py` as the installed sympy writes it."""
    import sympy as sp

    defs, rows, names = [], [], set()
    for tag, expr in fixed_expressions():
        stem = re.sub(r"\W", "_", tag)
        sources, _ = slot_sources(expr)
        defs.append(joint_source(stem, sources))
        names |= _global_names(defs[-1]) - {"_select"}
        rows.append(f"    {expr!r}: {stem},\n")
    header = (f'"""Generated by `python -m conelab._gen_forms` with sympy {sp.__version__};'
              " do not edit.\n\nFORMS maps each expression string to its function"
              " `fn(u, v, k)`, which returns\nthe first k (1, 3, 4 or 6) of the slots"
              f' {", ".join(_SLOTS)}.\n"""\n\n')
    return (header + f"import numpy as np\nfrom numpy import {', '.join(sorted(names))}\n\n\n"
            + inspect.getsource(_select) + "\n\n" + "\n\n".join(defs)
            + "\n\nFORMS = {\n" + "".join(rows) + "}\n")


if __name__ == "__main__":
    target = Path(__file__).with_name("_forms.py")
    target.write_text(render())
    print(f"wrote {target}")
