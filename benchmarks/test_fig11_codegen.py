"""Fig. 11: text DSL → causal tree → generated Python detection code.

Reproduces the exact two-chain example of the figure: the generated
source is the committed table, and the compiled function must name the
figure's consequence and both causes.  That generated code equals the
interpreted evaluator over the full 24-chain default graph is
``tests/test_core_graph_codegen.py``'s property test.
"""

from conftest import save_result

from repro.core.codegen import compile_chains, generate_python_source
from repro.core.dsl import parse_chains
from repro.core.features import FEATURE_NAMES

FIG11_TEXT = (
    "dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain\n"
    "dl_harq_retx --> forward_delay_up --> local_jitter_buffer_drain"
)


def test_fig11_generated_code():
    chains = parse_chains(FIG11_TEXT)
    source = generate_python_source(chains)
    save_result(
        "fig11_codegen",
        "Input:\n" + FIG11_TEXT + "\n\nGenerated Python:\n" + source,
    )

    fn = compile_chains(chains)
    features = {name: False for name in FEATURE_NAMES}
    features.update(
        {
            "local_jitter_buffer_drain": True,
            "dl_delay_up": True,
            "dl_rlc_retx": True,
            "dl_harq_retx": True,
        }
    )
    consequences, causes, hits = fn(features)
    assert consequences == {"local_jitter_buffer_drain"}
    assert causes == {"dl_rlc_retx", "dl_harq_retx"}
    assert sorted(hits) == [0, 1]
    # Structure matches the figure: chains grouped under the consequence.
    assert source.index("local_jitter_buffer_drain") < source.index(
        "dl_delay_up"
    )

