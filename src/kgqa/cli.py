"""Command-line entry point for every pipeline stage.

Artifacts are written under --out with stable names:
  index-sweep    sweep.csv
  retrieve       candidates.json
  disambiguate   disambiguation.json
  generate       generation.json
  execute        answers.json
  evaluate       report.csv, trace.jsonl, gold_cache.json
  reject-report  rejection_report.csv, rejection_trace.jsonl
  make-splits    train.jsonl, test.jsonl
  augment-train  train_augmented.jsonl

Exit codes: 0 success, 2 configuration error, 3 data error, 4 remote
service error. Configuration precedence: flags > --config JSON file >
built-in defaults. API keys are read only from the environment variable
named by --llm-api-key-env, never from flags or files.
"""

import functools
import json
import math
import sys
from pathlib import Path

import click

from kgqa import data as toy_data
from kgqa.disambiguation import GoldOracle, LabelOracle, RemoteReasoner, disambiguate
from kgqa.errors import ConfigError, KgqaError
from kgqa.evaluation import (
    evaluate_end_to_end,
    load_dataset,
    make_generalization_splits,
    write_gold_cache,
    write_report_csv,
    write_trace_jsonl,
)
from kgqa.generation import (
    GenerationRequest,
    GoldPassthrough,
    RemoteLlmGenerator,
    TemplateGenerator,
    augment_training_pairs,
    generate,
)
from kgqa.guard import (
    FILTER_CHECKERS,
    FILTER_MODES,
    GuardPolicy,
    rejection_report,
    write_rejection_csv,
)
from kgqa.kgstore import load_snapshot, prune_by_degree
from kgqa.llmclient import ChatCompletionsClient, ReasonerClientConfig
from kgqa.pipeline import PipelineConfig, build_rejection_suite, run_rejection_study
from kgqa.retrieval import Bm25Index, Bm25Params, PRESETS, sweep, write_sweep_csv
from kgqa.sparql import EndpointConfig, LocalExecutor, RemoteExecutor


def _wrap_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except KgqaError as exc:
            message = str(exc).splitlines()[0]
            click.echo(f"kgqa-error code={exc.exit_code} "
                       f"kind={type(exc).__name__} msg={message!r}", err=True)
            sys.exit(exc.exit_code)
        except ValueError as exc:
            click.echo(f"kgqa-error code=2 kind=ValueError msg={str(exc)!r}", err=True)
            sys.exit(2)
        except OSError as exc:
            click.echo(f"kgqa-error code=3 kind=OSError msg={str(exc)!r}", err=True)
            sys.exit(3)
    return wrapper


def _pick(value, cfg, key, default=None):
    if value is not None:
        return value
    return cfg.get(key, default)


def _outdir(out):
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, payload):
    path.write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n",
                    encoding="utf-8")


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _string(value) -> bool:
    return isinstance(value, str)


# Every --config key, with the check its value must pass and what it must be.
_CONFIG_KEYS = {
    "preset": (_string, "a string"),
    "k1": (_number, "a number"),
    "b": (_number, "a number"),
    "entity_file": (_string, "a string"),
    "predicate_file": (_string, "a string"),
    "triple_file": (_string, "a string"),
}


def _config(config_path):
    """The --config JSON object, or {} without --config; ConfigError unless
    it is an object of known keys of the right types."""
    if config_path is None:
        return {}
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{config_path}: config must be a JSON object")
    for key, value in cfg.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{config_path}: unknown config key {key!r}; "
                              f"have {sorted(_CONFIG_KEYS)}")
        valid, kind = _CONFIG_KEYS[key]
        if not valid(value):
            raise ConfigError(f"{config_path}: config key {key!r} must be {kind}, "
                              f"got {value!r}")
    return cfg


def _inputs(config_path, toy, entity_file, predicate_file, triple_file):
    """The checked --config object, and the snapshot from --toy, the file
    flags or the config."""
    cfg = _config(config_path)
    if toy:
        return cfg, load_snapshot(toy_data.toy_entity_file(),
                                  toy_data.toy_predicate_file(),
                                  toy_data.toy_triple_file())
    entity_file = _pick(entity_file, cfg, "entity_file")
    predicate_file = _pick(predicate_file, cfg, "predicate_file")
    triple_file = _pick(triple_file, cfg, "triple_file")
    if not (entity_file and predicate_file and triple_file):
        raise ConfigError(
            "need --toy or all of --entity-file/--predicate-file/--triple-file")
    return cfg, load_snapshot(entity_file, predicate_file, triple_file)


def _examples(dataset_path, toy, split, toy_file=toy_data.toy_dataset_file):
    """Load the dataset (the bundled one with --toy) and keep one split."""
    if dataset_path is None and toy:
        dataset_path = toy_file()
    if dataset_path is None:
        raise ConfigError("need --dataset (or --toy)")
    loaded = load_dataset(dataset_path)
    examples = [ex for ex in loaded.examples if split in ("all", ex.split)]
    if not examples:
        raise ConfigError(f"no examples in split {split!r}")
    return loaded, examples


_DEFAULT_PARAMS = Bm25Params(1.5, 0.75)


def _params(kind, preset, k1, b, cfg):
    """Resolve k1 and b one at a time: flag > --config > preset > default."""
    preset = _pick(preset, cfg, "preset")
    base = _DEFAULT_PARAMS
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
        base = getattr(PRESETS[preset], kind)
    return Bm25Params(float(_pick(k1, cfg, "k1", base.k1)),
                      float(_pick(b, cfg, "b", base.b)))


def _check_min_degree(kind, min_degree):
    if kind != "entity" and min_degree is not None:
        raise ConfigError("--min-degree applies to entity indexes only")


def _build_index(snapshot, kind, params, min_degree=None):
    if kind == "entity":
        pruned = prune_by_degree(snapshot, min_degree) if min_degree is not None else None
        return Bm25Index.build(snapshot.entities.values(), params, pruned_ids=pruned)
    return Bm25Index.build(snapshot.predicates.values(), params)


def _indexes(snapshot, cfg, preset, k1=None, b=None, min_degree=None):
    return (_build_index(snapshot, "entity", _params("entity", preset, k1, b, cfg),
                         min_degree),
            _build_index(snapshot, "predicate", _params("predicate", preset, k1, b, cfg)))


def _parse_grid(spec):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ConfigError("grid step must be positive")
        # Floor, not round, so the grid never passes stop; the tolerance
        # keeps a stop that float division lands just short of.
        count = math.floor((stop - start) / step + 1e-9) + 1
        return [round(start + i * step, 10) for i in range(count)]
    return [float(p) for p in spec.split(",") if p]


def _id_list(raw):
    return [tok for tok in raw.replace(",", " ").split() if tok]


def _llm_client(base_url, model, api_key_env, timeout, retries):
    if not base_url or not model:
        raise ConfigError("remote backend needs --llm-base-url and --llm-model")
    return ChatCompletionsClient(ReasonerClientConfig(
        base_url=base_url, model_name=model, api_key_env=api_key_env,
        timeout=timeout, max_retries=retries))


def _disambiguator(choice, llm):
    if choice == "oracle-gold":
        return GoldOracle()
    if choice == "oracle-label":
        return LabelOracle()
    return RemoteReasoner(llm())


def _generator(choice, llm, gold):
    if choice == "template":
        return TemplateGenerator()
    if choice == "gold-passthrough":
        if gold is None:
            raise ConfigError("gold-passthrough needs --gold-query")
        return GoldPassthrough(gold)
    return RemoteLlmGenerator(llm())


def _executor(choice, snapshot, endpoint, user_agent, timeout):
    if choice == "local":
        return LocalExecutor(snapshot)
    if not endpoint:
        raise ConfigError("--executor remote needs --endpoint")
    kwargs = {"base_url": endpoint, "timeout": timeout}
    if user_agent:
        kwargs["user_agent"] = user_agent
    return RemoteExecutor(EndpointConfig(**kwargs))


_SNAPSHOT_OPTIONS = [
    click.option("--toy", is_flag=True, help="Use the bundled toy graph and dataset."),
    click.option("--entity-file", type=click.Path(), default=None,
                 help="Entity catalog (JSON Lines)."),
    click.option("--predicate-file", type=click.Path(), default=None,
                 help="Predicate catalog (JSON Lines)."),
    click.option("--triple-file", type=click.Path(), default=None,
                 help="Triple file (TSV)."),
]

_LLM_OPTIONS = [
    click.option("--llm-base-url", default=None, help="Chat-completions endpoint URL."),
    click.option("--llm-model", default=None, help="Model name for remote backends."),
    click.option("--llm-api-key-env", default="KGQA_API_KEY", show_default=True,
                 help="Environment variable holding the API key."),
    click.option("--llm-timeout", type=float, default=30.0, show_default=True),
    click.option("--llm-max-retries", type=int, default=2, show_default=True),
]


_BM25_OPTIONS = [
    click.option("--preset", default=None,
                 help=f"Hyperparameter preset: {', '.join(sorted(PRESETS))}."),
    click.option("--k1", type=float, default=None, help="BM25 k1 (overrides preset)."),
    click.option("--b", type=float, default=None, help="BM25 b (overrides preset)."),
]

_MIN_DEGREE_OPTION = click.option(
    "--min-degree", type=int, default=None,
    help="Index only entities with at least this many distinct predicates.")

_OUTPUT_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(), default=None),
    click.option("--out", default="kgqa-out", show_default=True),
]


def _options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


def _llm_options(fn):
    """Add the --llm-* flags and pass them on as ``llm``, a callable that
    builds a chat client, so only remote backends require them."""
    @functools.wraps(fn)
    def wrapper(llm_base_url, llm_model, llm_api_key_env, llm_timeout,
                llm_max_retries, **kwargs):
        llm = functools.partial(_llm_client, llm_base_url, llm_model,
                                llm_api_key_env, llm_timeout, llm_max_retries)
        return fn(llm=llm, **kwargs)
    return _options(_LLM_OPTIONS)(wrapper)


@click.group()
@click.version_option()
def cli():
    """Query-based knowledge-graph QA pipeline."""


@cli.command("index-sweep")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--kind", type=click.Choice(["entity", "predicate"]), default="entity",
              show_default=True)
@click.option("--dataset", "dataset_path", type=click.Path(), default=None,
              help="Dataset with gold ids (defaults to the toy set with --toy).")
@click.option("--split", default="test", show_default=True)
@click.option("--k1", "k1_grid", default="0.5:3.0:0.5", show_default=True,
              help="Grid as start:stop:step or comma list.")
@click.option("--b", "b_grid", default="0.0:1.0:0.25", show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
@_MIN_DEGREE_OPTION
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def index_sweep(toy, entity_file, predicate_file, triple_file, kind, dataset_path,
                split, k1_grid, b_grid, k, min_degree, config_path, out):
    """Grid-search BM25 hyperparameters by Recall@k."""
    _check_min_degree(kind, min_degree)
    k1_values, b_values = _parse_grid(k1_grid), _parse_grid(b_grid)
    # Every cell is checked before anything loads, so a bad grid exits 2 at once.
    if not [Bm25Params(k1, b) for k1 in k1_values for b in b_values]:
        raise ConfigError("--k1 and --b grids must not be empty")
    _, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    _, examples = _examples(dataset_path, toy, split)
    pairs = [(ex.question,
              set(ex.gold_entities if kind == "entity" else ex.gold_predicates))
             for ex in examples]
    index = _build_index(snapshot, kind, _DEFAULT_PARAMS, min_degree)
    result = sweep(index, pairs, k1_values, b_values, k)
    path = _outdir(out) / "sweep.csv"
    write_sweep_csv(result, path)
    click.echo(f"best k1={result.best.k1:g} b={result.best.b:g} "
               f"recall@{k}={result.best_recall:.4f} -> {path}")


@cli.command("retrieve")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--kind", type=click.Choice(["entity", "predicate"]), default="entity",
              show_default=True)
@click.option("--query", required=True)
@click.option("--k", type=int, default=10, show_default=True)
@_options(_BM25_OPTIONS)
@_MIN_DEGREE_OPTION
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def retrieve(toy, entity_file, predicate_file, triple_file, kind, query, k, preset,
             k1, b, min_degree, config_path, out):
    """Search the catalog and print ranked candidates."""
    _check_min_degree(kind, min_degree)
    cfg, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    index = _build_index(snapshot, kind, _params(kind, preset, k1, b, cfg), min_degree)
    candidates = index.search(query, k)
    _write_json(_outdir(out) / "candidates.json",
                {"query": query, "kind": kind,
                 "hits": [[cid, score] for cid, score in candidates.hits]})
    for cid, score in candidates.hits:
        click.echo(f"{cid}\t{score:.6f}\t{index.by_id[cid].label}")


@cli.command("disambiguate")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--question", required=True)
@click.option("--kind", type=click.Choice(["entity", "predicate"]), default="entity",
              show_default=True)
@click.option("--backend", type=click.Choice(["oracle-label", "oracle-gold", "remote"]),
              default="oracle-label", show_default=True)
@click.option("--gold", default=None, help="Gold ids for oracle-gold (comma-separated).")
@click.option("--k", type=int, default=10, show_default=True)
@_options(_BM25_OPTIONS)
@_MIN_DEGREE_OPTION
@_llm_options
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def disambiguate_cmd(toy, entity_file, predicate_file, triple_file, question, kind,
                     backend, gold, k, preset, k1, b, min_degree, llm, config_path, out):
    """Retrieve candidates and select the ids the question mentions."""
    _check_min_degree(kind, min_degree)
    cfg, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    index = _build_index(snapshot, kind, _params(kind, preset, k1, b, cfg), min_degree)
    candidates = index.search(question, k)
    result = disambiguate(question, candidates, kind, _disambiguator(backend, llm),
                          catalog=index.by_id, gold=_id_list(gold) if gold else None)
    _write_json(_outdir(out) / "disambiguation.json",
                {"question": question, "kind": kind, "backend": result.backend,
                 "selected": list(result.selected), "off_list": result.off_list,
                 "failure": result.failure})
    click.echo(" ".join(result.selected) if result.selected else "(empty selection)")


@cli.command("generate")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--question", required=True)
@click.option("--generator", type=click.Choice(["template", "gold-passthrough",
                                                "remote-llm"]),
              default="template", show_default=True)
@click.option("--entity-ids", default="", help="Selected entity ids, comma-separated.")
@click.option("--predicate-ids", default="", help="Selected predicate ids.")
@click.option("--gold-query", default=None, help="Query for gold-passthrough.")
@_llm_options
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def generate_cmd(toy, entity_file, predicate_file, triple_file, question, generator,
                 entity_ids, predicate_ids, gold_query, llm, config_path, out):
    """Produce a SPARQL query from the question and selected candidates."""
    _, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)

    def record(cid):
        rec = snapshot.entities.get(cid) or snapshot.predicates.get(cid)
        if rec is None:
            raise ConfigError(f"id {cid} is not in the catalogs")
        return (cid, rec.label, rec.description)

    request = GenerationRequest(
        question=question,
        entities=tuple(record(c) for c in _id_list(entity_ids)),
        predicates=tuple(record(c) for c in _id_list(predicate_ids)),
    )
    result = generate(request, _generator(generator, llm, gold_query))
    _write_json(_outdir(out) / "generation.json",
                {"question": question, "backend": result.backend,
                 "query": result.query_text})
    click.echo(result.query_text)


@cli.command("filter-check")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--entities", "entity_ids", required=True,
              help="Selected entity ids, comma-separated.")
@click.option("--predicates", "predicate_ids", required=True,
              help="Selected predicate ids, comma-separated.")
@click.option("--mode", type=click.Choice(list(FILTER_CHECKERS)), default="alg1",
              show_default=True)
@_options(_OUTPUT_OPTIONS[:1])
@_wrap_errors
def filter_check(toy, entity_file, predicate_file, triple_file, entity_ids,
                 predicate_ids, mode, config_path):
    """Check whether the selected entities relate to the selected predicates."""
    _, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    mismatch = FILTER_CHECKERS[mode](snapshot, set(_id_list(entity_ids)),
                                     set(_id_list(predicate_ids)))
    click.echo("REJECT pre-generation-filter" if mismatch else "PASS")


@cli.command("execute")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--query", required=True)
@click.option("--executor", "executor_choice", type=click.Choice(["local", "remote"]),
              default="local", show_default=True)
@click.option("--endpoint", default=None, help="SPARQL endpoint URL for remote.")
@click.option("--user-agent", default=None)
@click.option("--timeout", type=float, default=60.0, show_default=True)
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def execute_cmd(toy, entity_file, predicate_file, triple_file, query, executor_choice,
                endpoint, user_agent, timeout, config_path, out):
    """Run one query locally or against a remote endpoint."""
    snapshot = None
    if executor_choice == "local":
        _, snapshot = _inputs(config_path, toy, entity_file, predicate_file,
                              triple_file)
    else:
        _config(config_path)  # a remote run needs no key, but a bad file still fails
    executor = _executor(executor_choice, snapshot, endpoint, user_agent, timeout)
    answers = executor.run(query)
    _write_json(_outdir(out) / "answers.json",
                {"query": query, "terms": answers.sorted_terms(), "truth": answers.truth})
    for term in answers.sorted_terms():
        click.echo(term)


@cli.command("evaluate")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--dataset", "dataset_path", type=click.Path(), default=None,
              help="Dataset JSON Lines (defaults to the toy set with --toy).")
@click.option("--split", default="test", show_default=True,
              help="Evaluate only this split ('all' for everything).")
@_options(_BM25_OPTIONS)
@click.option("--k", type=int, default=10, show_default=True)
@_MIN_DEGREE_OPTION
@click.option("--disambiguator", type=click.Choice(["oracle-gold", "oracle-label",
                                                    "remote"]),
              default="oracle-gold", show_default=True)
@click.option("--generator", type=click.Choice(["gold-passthrough", "template",
                                                "remote-llm"]),
              default="gold-passthrough", show_default=True)
@click.option("--executor", "executor_choice", type=click.Choice(["local", "remote"]),
              default="local", show_default=True)
@click.option("--endpoint", default=None)
@click.option("--user-agent", default=None)
@click.option("--timeout", type=float, default=60.0, show_default=True)
@click.option("--filter", "filter_mode", type=click.Choice(FILTER_MODES),
              default="alg1", show_default=True)
@click.option("--execution-check", type=click.Choice(["on", "off"]), default="on",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@_llm_options
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def evaluate(toy, entity_file, predicate_file, triple_file, dataset_path, split,
             preset, k1, b, k, min_degree, disambiguator, generator, executor_choice,
             endpoint, user_agent, timeout, filter_mode, execution_check, seed, workers,
             llm, config_path, out):
    """Run the full pipeline over a dataset and write report + trace."""
    cfg, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    loaded, examples = _examples(dataset_path, toy, split)
    for name in sorted(loaded.split_counts):
        click.echo(f"split {name}: {loaded.split_counts[name]} examples")
    for lineno, message in loaded.line_errors:
        click.echo(f"skipped line {lineno}: {message}", err=True)

    entity_index, predicate_index = _indexes(snapshot, cfg, preset, k1, b, min_degree)
    pipeline_cfg = PipelineConfig(
        snapshot=snapshot, entity_index=entity_index, predicate_index=predicate_index,
        disambiguator=_disambiguator(disambiguator, llm),
        generator=_generator(generator, llm, {ex.id: ex.gold_query for ex in examples}),
        executor=_executor(executor_choice, snapshot, endpoint, user_agent, timeout),
        policy=GuardPolicy(filter=filter_mode, execution=execution_check == "on"),
        k=k, seed=seed, workers=workers,
    )
    report = evaluate_end_to_end(examples, pipeline_cfg)
    out_path = _outdir(out)
    write_report_csv(report, out_path / "report.csv")
    write_trace_jsonl(report.outcomes, out_path / "trace.jsonl")
    write_gold_cache(report.outcomes, out_path / "gold_cache.json")
    for row in report.rows:
        click.echo(f"{row.dataset}: n={row.n} f1={row.f1:.4f} "
                   f"acc@1={row.acc_at_1:.4f} rejected={row.rejected_pct:.1f}%")


@cli.command("reject-report")
@_options(_SNAPSHOT_OPTIONS)
@click.option("--dataset", "dataset_path", type=click.Path(), default=None)
@click.option("--split", default="test", show_default=True)
@click.option("--preset", default=None)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--corrupt-fraction", type=float, default=0.5, show_default=True,
              help="Share of generations to corrupt for the study.")
@click.option("--seed", type=int, default=0, show_default=True)
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def reject_report(toy, entity_file, predicate_file, triple_file, dataset_path, split,
                  preset, k, corrupt_fraction, seed, config_path, out):
    """Corrupt a share of gold generations and measure each rejection policy."""
    cfg, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    _, examples = _examples(dataset_path, toy, split)
    entity_index, predicate_index = _indexes(snapshot, cfg, preset)
    pipeline_cfg = PipelineConfig(
        snapshot=snapshot, entity_index=entity_index, predicate_index=predicate_index,
        disambiguator=GoldOracle(),
        generator=GoldPassthrough({ex.id: ex.gold_query for ex in examples}),
        executor=LocalExecutor(snapshot), k=k, seed=seed,
    )
    cases = build_rejection_suite(examples, snapshot, corrupt_fraction, seed)
    outcomes = run_rejection_study(cases, pipeline_cfg)
    rows = rejection_report(outcomes)
    out_path = _outdir(out)
    write_rejection_csv(rows, out_path / "rejection_report.csv")
    write_trace_jsonl(outcomes, out_path / "rejection_trace.jsonl")
    for row in rows:
        click.echo(f"{row['dataset']}: execution={row['execution']} "
                   f"filtering_and_execution={row['filtering_and_execution']}")


@cli.command("make-splits")
@click.option("--dataset", "dataset_specs", multiple=True, required=True,
              help="name=path, repeatable.")
@click.option("--held-out", required=True, help="Dataset name to hold out.")
@click.option("--distractors", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_options(_SNAPSHOT_OPTIONS)
@click.option("--preset", default=None)
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def make_splits(dataset_specs, held_out, distractors, seed, toy, entity_file,
                predicate_file, triple_file, preset, config_path, out):
    """Cross-dataset generalization split: train on all but one dataset."""
    cfg, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    datasets = {}
    for spec in dataset_specs:
        name, _, path = spec.partition("=")
        if not path:
            raise ConfigError(f"--dataset must be name=path, got {spec!r}")
        datasets[name] = list(load_dataset(path).examples)
    train, test = make_generalization_splits(datasets, held_out)
    for side, examples in (("train", train), ("test", test)):
        if not examples:
            raise ConfigError(f"no examples on the {side} side of the split")
    entity_index, predicate_index = _indexes(snapshot, cfg, preset)
    out_path = _outdir(out)
    report = augment_training_pairs(train, entity_index, predicate_index,
                                    out_path / "train.jsonl",
                                    n_distractors=distractors, seed=seed)
    with open(out_path / "test.jsonl", "w", encoding="utf-8") as fh:
        for ex in test:
            fh.write(json.dumps({
                "id": ex.id, "question": ex.question, "sparql": ex.gold_query,
                "entities": sorted(ex.gold_entities),
                "predicates": sorted(ex.gold_predicates),
                "dataset": ex.dataset, "split": ex.split,
            }, ensure_ascii=False) + "\n")
    click.echo(f"train: {report.written} pairs (skipped {len(report.skipped)}), "
               f"test: {len(test)} examples -> {out_path}")


@cli.command("augment-train")
@click.option("--dataset", "dataset_path", type=click.Path(), default=None)
@click.option("--split", default="train", show_default=True)
@click.option("--distractors", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_options(_SNAPSHOT_OPTIONS)
@click.option("--preset", default=None)
@_options(_OUTPUT_OPTIONS)
@_wrap_errors
def augment_train(dataset_path, split, distractors, seed, toy, entity_file,
                  predicate_file, triple_file, preset, config_path, out):
    """Write distractor-augmented prompt/target training pairs."""
    cfg, snapshot = _inputs(config_path, toy, entity_file, predicate_file, triple_file)
    _, examples = _examples(dataset_path, toy, split, toy_data.toy_train_file)
    entity_index, predicate_index = _indexes(snapshot, cfg, preset)
    path = _outdir(out) / "train_augmented.jsonl"
    report = augment_training_pairs(examples, entity_index, predicate_index, path,
                                    n_distractors=distractors, seed=seed)
    click.echo(f"wrote {report.written} pairs (skipped {len(report.skipped)}) -> {path}")


def main():
    cli(prog_name="kgqa")


if __name__ == "__main__":
    main()
