"""Deterministic waste-sorting plant simulator with evolutionary planning,
demonstration export, and a strategy benchmark harness."""

from .config import ConfigError, EnvConfig, config_from_mapping, config_to_dict, load_config
from .env import (
    OBS_SIZE,
    Bale,
    Container,
    ContractViolation,
    EnvState,
    InputTape,
    MaterialBatch,
    Press,
    SortOutcome,
    StepResult,
    advance,
    build_observation,
    compute_reward,
    effective_accuracy,
    generate_input,
    observation_ranges,
    reset,
    sort_batch,
    step,
    update_containers_and_presses,
)
from .baselines import (
    PolicyRun,
    make_policy,
    random_actions,
    random_policy,
    rule_based_actions,
    rule_based_policy,
    run_policy,
)
from .planners import (
    BruteForceResult,
    GaParams,
    GaResult,
    GenStats,
    brute_force,
    crossover,
    episode_reward,
    evaluate_population,
    ga_optimize,
    ga_seed_for_env,
    mutate,
    rollout,
    tournament_select,
)
from .demo import (
    DatasetManifest,
    DemoTrajectory,
    Rejection,
    ValidationReport,
    generate_demo,
    passes_filter,
    run_campaign,
    validate_dataset,
)
from .bench import BenchResult, BenchSpec, Summary, emit_outputs, evaluate_strategy, run_bench, summarize
from .rng import Stream, mix64, noise_block, noise_draw
from .trajio import Transition, read_transitions, write_transitions

__version__ = "0.1.0"
