"""Sequential recommendation with a learnable sequence augmenter.

A small numpy autodiff kernel underpins a shared causal Transformer
encoder, a keep/delete/insert sequence augmenter trained by restoring
corrupted sequences, in-batch + triplet contrastive losses, and a
next-item recommender, plus the data/evaluation tooling around them.
"""

from . import autograd
from .augmenter import (
    AugmenterParams,
    augmenter_loss,
    generate_augmented_batch,
)
from .augops import (
    AugConfig,
    CorruptionConfig,
    CorruptionRecord,
    corrupt_sequence,
    crop_augment,
    mask_augment,
    random_augment,
    reorder_augment,
    restore_sequence,
)
from .config import RunConfig, load_config
from .contrastive import batch_contrastive_loss, triplet_loss
from .data import (
    Interaction,
    ItemSequence,
    SplitDataset,
    Vocabulary,
    build_sequences,
    five_core_filter,
    leave_one_out_split,
    make_batches,
    parse_interactions,
    sample_negatives,
)
from .encoder import EncoderParams, ModelDims, encode_batch
from .evaluate import (
    MetricReport,
    NoisySimConfig,
    dist,
    evaluate_model,
    rank_of_target,
    simulate_noisy_testset,
    user_metrics,
)
from .optim import AdamState, adam_step
from .recommender import RecommenderParams, rec_loss, sequence_reprs
from .synthgen import SynthSpec, generate
from .trainer import (
    RecModel,
    build_model,
    joint_loss,
    train_augmenter,
    train_recommender,
)

__version__ = "0.1.0"
