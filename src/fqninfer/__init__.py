"""Fully qualified name inference for Java snippets.

Two engines cooperate: a constraint solver that matches snippet structure
against an API knowledge base, and a statistical ranker built on token
co-occurrence counts. An iterative loop feeds each engine's output into the
other (context augmentation one way, knowledge base reduction the other) and
a final combination step merges their answers.

The package exports what callers use; the building blocks stay in their
modules (`fqninfer.constraint`, `fqninfer.kb`, `fqninfer.stat`, ...).
"""

from .constraint import ExtractOptions
from .kb import KbError, KnowledgeBase, dump_kb, load_kb
from .orchestrator import (
    ORDER_CONSTRAINT_FIRST,
    ORDER_STAT_FIRST,
    RunConfig,
    infer_with_engine,
    run,
    serialize_trace,
)
from .scoring import (
    TruthFormatError,
    aggregate,
    format_report,
    load_corpus,
    load_truth,
    score_snippet,
    training_pairs,
    truth_elements,
)
from .snippet import ApiElement, identify_api_elements, plain, tokenize
from .stat import (
    CooccurrenceModel,
    ExternalPredictor,
    ModelFormatError,
    Predictor,
    dump_model,
    load_model,
    predict_all,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    # loading and training
    "tokenize",
    "load_kb",
    "dump_kb",
    "load_model",
    "save_model",
    "dump_model",
    "train",
    "load_corpus",
    "load_truth",
    "training_pairs",
    "truth_elements",
    # running
    "identify_api_elements",
    "plain",
    "predict_all",
    "run",
    "RunConfig",
    "ExtractOptions",
    "ORDER_CONSTRAINT_FIRST",
    "ORDER_STAT_FIRST",
    "serialize_trace",
    "infer_with_engine",
    # predictors
    "Predictor",
    "ExternalPredictor",
    "CooccurrenceModel",
    # scoring
    "score_snippet",
    "aggregate",
    "format_report",
    # errors
    "KbError",
    "ModelFormatError",
    "TruthFormatError",
    # types
    "ApiElement",
    "KnowledgeBase",
]
