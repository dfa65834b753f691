"""hopkit: build multi-hop reasoning benchmarks from knowledge-graph
triplets, render them as text/JSON/Python, and evaluate model outputs with
per-hop conditional accuracy.
"""

from .kg import (Entity, KnowledgeGraph, Relation, ReasoningInstance, Triplet,
                 add_fact, chain_to_graph, infer, make_chain, validate_instance)
from .render import (ParsedBody, RenderedExample, RepresentationTag, parse,
                     render, wrap_answer_envelope)
from .prompts import (DatasetStyle, PromptBundle, PromptMode, build_prompt,
                      build_query, pick_demonstration)
from .dataset import (FinetuneRecord, OverlapStats, SourceRecord, SplitSpec,
                      build_finetune_corpus, cap_relation_pairs,
                      compute_overlap_stats, extend_to_three_hops, ingest,
                      partition_by_bridge)
from .gateway import (CompletionResult, DecodeConfig, FaultSpec, Gateway,
                      OpenAIChatBackend, OracleBackend, oracle_complete)
from .evaluate import (ConditionRow, EvalRecord, MetricsReport, compute_metrics,
                       emit_report, judge, normalize_answer)

__version__ = "0.1.0"
