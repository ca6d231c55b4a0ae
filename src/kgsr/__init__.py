"""Knowledge-graph subgraph-reasoning recommender.

Builds a typed knowledge graph from flat files, optionally augments it with
triples extracted from review text, pretrains translation embeddings,
grows per-user subgraphs by attention-guided diffusion, scores candidate
items through a subgraph encoder, trains every parameter with exact
reverse-mode gradients and Adam, evaluates top-K rankings, and renders
path-grounded explanations.
"""

from .diffusion import (
    AttentionParams,
    DiffusionConfig,
    SubgraphBatch,
    diffuse,
)
from .errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ClientError,
    ConsistencyError,
    EntityNotFoundError,
    InjectionError,
    KgsrError,
    KindError,
    NumericError,
    ParseError,
)
from .evaluation import EvalReport, evaluate_model, evaluate_ranking
from .graph import (
    EntityKind,
    InteractionSet,
    KnowledgeGraph,
    Triple,
    add_purchase_triples,
    ingest_interactions,
    ingest_triples,
    split_interactions,
    write_triples,
)
from .llm import (
    DEFAULT_TARGETS,
    ChatClientConfig,
    ExtractedTriple,
    ExtractionTarget,
    HttpChatClient,
    extract_review_triples,
    generate_explanation,
    inject_triples,
    load_lexicon,
    load_reviews,
    offline_extract,
)
from .scoring import (
    BatchScores,
    EncoderParams,
    PathTable,
    extract_paths,
    format_path,
    score_candidates,
    user_loss,
)
from .training import (
    AdamState,
    Checkpoint,
    ModelParams,
    TrainConfig,
    adam_step,
    forward_backward,
    load_checkpoint,
    make_checkpoint,
    save_checkpoint,
    train,
)
from .transe import (
    EmbeddingTable,
    TranseConfig,
    initialize_embeddings,
    sample_negative,
    transe_pretrain,
    transe_score,
)

__version__ = "0.1.0"
