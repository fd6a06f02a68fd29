"""lidkit: train, run, and rigorously evaluate a language identifier.

The classifier is a linear bag-of-n-grams softmax model over a learned
word vocabulary plus hashed character n-grams.  Around it sit the corpus
engineering steps (script purity, deduplication, capped train/test splits,
contamination measurement), a confidence-thresholded decision rule with
macrolanguage consolidation, and an evaluation harness for imbalanced
multiclass problems (macro F1/FPR, cleanness, skewed test sets,
reliability bins).
"""

__version__ = "1.0.0"

from .corpus import (  # noqa: F401
    CorpusStats,
    LabeledLine,
    ScriptProfile,
    contamination_rate,
    corpus_stats,
    dedup,
    detect_script,
    filter_by_script,
    read_corpus,
    split_train_test,
    write_corpus,
)
from .decision import (  # noqa: F401
    Decider,
    DecisionConfig,
    LabelMap,
    LanguageHierarchy,
    Scenario,
    decide,
    load_hierarchy,
    load_label_map,
    load_label_set,
    map_labels,
    rollup,
)
from .errors import (  # noqa: F401
    CorruptModel,
    EmptyScope,
    FormatError,
    InputMismatch,
    LidkitError,
    NoFeatures,
    NoLabels,
    UnmappedLabel,
    UnsupportedFormat,
)
from .evaluation import (  # noqa: F401
    CalibrationBins,
    ConfusionCounts,
    EvalScope,
    cleanness,
    confusion,
    f1_macro,
    fpr_macro,
    intersect_scope,
    reliability,
    skew_testset,
)
from .features import (  # noqa: F401
    FeatureBag,
    FeatureBatch,
    FeatureConfig,
    Vocabulary,
    build_vocab,
    char_ngrams,
    featurize,
    featurize_batch,
    hash_ngram,
    tokenize,
)
from .model import (  # noqa: F401
    UNDETERMINED,
    LidModel,
    PredictionDist,
    Scorer,
    TrainConfig,
    load_model,
    predict,
    predict_dist,
    sample_languages,
    save_model,
    sentence_vector,
    temperature_weights,
    train,
)
