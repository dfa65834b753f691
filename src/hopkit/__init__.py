"""hopkit: build multi-hop reasoning benchmarks from knowledge-graph
triplets, render them as text/JSON/Python, and evaluate model outputs with
per-hop conditional accuracy.
"""

from importlib import import_module as _import_module

from .kg import ReasoningInstance, Triplet, add_fact, infer, make_chain
# Eager: ``hopkit.render`` names both this submodule and its ``render``
# function, and the function must win.
from .render import (ParsedBody, RenderedExample, RepresentationTag, parse,
                     render, wrap_answer_envelope)

__version__ = "0.1.0"

# Public names of the other modules, each loaded on first use (PEP 562), so
# that a command imports only the modules it runs.
_LAZY = {name: module for module, names in (
    ("prompts", "DatasetStyle PromptBundle PromptMode build_prompt build_query"),
    ("dataset", "OverlapStats SourceRecord SplitSpec build_finetune_corpus "
                "cap_relation_pairs compute_overlap_stats extend_to_three_hops "
                "ingest partition_by_bridge"),
    ("gateway", "CompletionResult FaultSpec Gateway OpenAIChatBackend "
                "OracleBackend oracle_complete"),
    ("evaluate", "ConditionRow EvalRecord MetricsReport compute_metrics "
                 "emit_report judge normalize_answer"),
) for name in names.split()}

__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY.values():
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_LAZY[name]), name)
    return value

