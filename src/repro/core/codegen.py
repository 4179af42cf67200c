"""Python code generation from chain definitions (Fig. 11).

Domino compiles the user's textual chain definitions into executable
Python: chains are grouped by consequence, reversed, merged into a
prefix tree, and emitted as nested ``if`` statements that walk backward
from each detected consequence through intermediate events to root
causes — exactly the structure shown in the paper's Fig. 11 listing.

:func:`generate_python_source` returns the source text (inspectable, and
what the Fig. 11 benchmark prints); :func:`compile_chains` executes it
and hands back the resulting ``backward_trace`` function.  The
interpreted equivalent lives in :mod:`repro.core.trace`; a property test
checks they always agree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple


class _TrieNode:
    """Prefix-tree node over reversed chains."""

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode"] = {}
        self.chain_ids: List[int] = []  # chains terminating here (at a cause)


def _build_trie(chains: Sequence[Tuple[str, ...]]) -> Dict[str, _TrieNode]:
    """One trie per consequence, over the reversed chain bodies."""
    roots: Dict[str, _TrieNode] = {}
    for chain_id, chain in enumerate(chains):
        consequence = chain[-1]
        root = roots.setdefault(consequence, _TrieNode())
        node = root
        for name in reversed(chain[:-1]):
            node = node.children.setdefault(name, _TrieNode())
        node.chain_ids.append(chain_id)
    return roots


def _emit_node(
    lines: List[str],
    node: _TrieNode,
    indent: int,
    chains: Sequence[Tuple[str, ...]],
) -> None:
    pad = "    " * indent
    for chain_id in node.chain_ids:
        cause = chains[chain_id][0]
        lines.append(f"{pad}chains.append({chain_id})  # {_comment(chains[chain_id])}")
        lines.append(f"{pad}causes.add({cause!r})")
    for name, child in sorted(node.children.items()):
        lines.append(f"{pad}if features[{name!r}]:")
        before = len(lines)
        _emit_node(lines, child, indent + 1, chains)
        if len(lines) == before:
            lines.append(f"{'    ' * (indent + 1)}pass")


def _comment(chain: Tuple[str, ...]) -> str:
    return " --> ".join(chain)


def generate_python_source(
    chains: Sequence[Tuple[str, ...]], function_name: str = "backward_trace"
) -> str:
    """Generate the backward-trace detection function's source code."""
    tries = _build_trie(chains)
    lines: List[str] = [
        f"def {function_name}(features):",
        '    """Auto-generated by Domino from the causal-chain DSL."""',
        "    chains = []",
        "    causes = set()",
        "    consequences = set()",
    ]
    for consequence in sorted(tries):
        lines.append(f"    if features[{consequence!r}]:")
        lines.append(f"        consequences.add({consequence!r})")
        _emit_node(lines, tries[consequence], 2, chains)
    lines.append("    return consequences, causes, chains")
    return "\n".join(lines) + "\n"


TraceFn = Callable[
    [Mapping[str, bool]], Tuple[set, set, List[int]]
]


def compile_chains(
    chains: Sequence[Tuple[str, ...]], function_name: str = "backward_trace"
) -> TraceFn:
    """Compile chain definitions into an executable detection function.

    The generated function takes a feature mapping and returns
    ``(consequences, causes, chain_ids)`` where chain ids index into
    *chains*.
    """
    source = generate_python_source(chains, function_name)
    # The module name labels the generated frame for the sampling
    # profiler ("<domino-codegen>:backward_trace").
    namespace: Dict[str, object] = {"__name__": "<domino-codegen>"}
    code = compile(source, filename="<domino-codegen>", mode="exec")
    exec(code, namespace)  # noqa: S102 - code is generated locally above
    return namespace[function_name]  # type: ignore[return-value]
