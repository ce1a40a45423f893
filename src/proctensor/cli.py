"""Command line interface.

Each command maps to one harness operation. Exit codes: 0 on success, 2 on
configuration errors (bad plan, missing file, missing stage), 3 on a
numerical failure: a physicality guard that fails, a CPTP projection that
does not converge, or an optimiser search whose every start ends on NaN. A
search that stops on its iteration limit is stored, not an error.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .basis import generate_haar_basis
from .harness import (
    POOL_BOUNDS,
    ConfigError,
    ExperimentPlan,
    ResultsStore,
    load_plan,
    plan_from_dict,
    report as build_report,
    run_plan,
)
from .qcore import NumericalError


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as err:
            click.echo(f"config error: {err}", err=True)
            sys.exit(2)
        except NumericalError as err:
            click.echo(f"numerical failure: {err}", err=True)
            sys.exit(3)
    return wrapper


def plan_options(fn):
    fn = click.option("--plan", "plan_path", required=True,
                      type=click.Path(path_type=Path),
                      help="Plan JSON file.")(fn)
    fn = click.option("--out", "out_dir", required=True,
                      type=click.Path(path_type=Path),
                      help="Results store directory.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Override the plan's master seed.")(fn)
    fn = click.option("--shots", type=int, default=None,
                      help="Override the plan's shot count.")(fn)
    return fn


def _load(plan_path: Path, seed: int | None, shots: int | None) -> ExperimentPlan:
    """The plan file with the overrides applied, validated as one plan."""
    plan = load_plan(plan_path)
    overrides = {k: v for k, v in (("master_seed", seed), ("shots", shots))
                 if v is not None}
    return plan_from_dict({**asdict(plan), **overrides}) if overrides else plan


def _execute(plan_path: Path, out_dir: Path, seed: int | None,
             shots: int | None, stages: tuple[str, ...] | None) -> None:
    plan = _load(plan_path, seed, shots)
    store = ResultsStore(out_dir)
    counts = run_plan(plan, store, stages=stages)
    for stage, n in counts.items():
        click.echo(f"{stage}: {n} records appended")


@click.group()
def main() -> None:
    """Process tensor experiments against the system-environment simulator."""


@main.command("generate-basis")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--size", type=int, default=28, show_default=True)
@click.option("--out", "out_path", required=True,
              type=click.Path(path_type=Path))
@handle_errors
def generate_basis_cmd(seed: int, size: int, out_path: Path) -> None:
    """Write the preparation set and unitary pool to a JSON file."""
    lo, hi = POOL_BOUNDS
    if not lo <= size <= hi:
        raise ConfigError(f"size: must be between {lo} and {hi}")
    if seed < 0:
        raise ConfigError("seed: must be a non-negative integer")
    basis = generate_haar_basis(size, seed)

    def mat_doc(m: np.ndarray) -> list:
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    doc = {"seed": seed, "size": size,
           "preparations": [{"label": p.label, "gate": mat_doc(p.gate)}
                            for p in basis.preparations],
           "unitaries": [mat_doc(u) for u in basis.unitaries]}
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, sort_keys=True,
                                   separators=(",", ":")) + "\n")
    click.echo(f"wrote {out_path}")


@main.command("run-plan")
@plan_options
@click.option("--stage", "stage_names", multiple=True,
              help="Run only this stage (repeatable); defaults to the plan's.")
@handle_errors
def run_plan_cmd(plan_path: Path, out_dir: Path, seed: int | None,
                 shots: int | None, stage_names: tuple[str, ...]) -> None:
    """Execute a plan's stages against a results store."""
    _execute(plan_path, out_dir, seed, shots, stage_names or None)


def stage_command(name: str, stage: str, doc: str):
    @main.command(name)
    @plan_options
    @handle_errors
    def cmd(plan_path: Path, out_dir: Path, seed: int | None,
            shots: int | None) -> None:
        _execute(plan_path, out_dir, seed, shots, (stage,))

    cmd.__doc__ = doc
    cmd.help = doc
    return cmd


evaluate_cmd = stage_command(
    "evaluate", "evaluate",
    "Reconstruct tensors and score held-out sequences.")
memory_bound_cmd = stage_command(
    "memory-bound", "memory",
    "Maximize the conditional mutual information probes.")
compare_markov_cmd = stage_command(
    "compare-markov", "markov",
    "Score the composed-channel baseline against the tensor.")
optimize_decoupling_cmd = stage_command(
    "optimize-decoupling", "decouple",
    "Search for the purity-restoring gate and record trajectories.")
synthesize_gate_cmd = stage_command(
    "synthesize-gate", "synthesize",
    "Sweep non-unitary targets and synthesize gates for them.")


@main.command("report")
@click.option("--plan", "plan_path", required=True,
              type=click.Path(path_type=Path))
@click.option("--out", "out_dir", required=True,
              type=click.Path(path_type=Path),
              help="Results store directory; CSVs go to <out>/report.")
@handle_errors
def report_cmd(plan_path: Path, out_dir: Path) -> None:
    """Render the store into CSV tables and a text summary."""
    plan = load_plan(plan_path)
    if not (Path(out_dir) / "records.jsonl").is_file():
        raise ConfigError(f"{out_dir} holds no results store; run 'evaluate'")
    store = ResultsStore(out_dir)
    written = build_report(plan, store, Path(out_dir) / "report")
    for name, path in written.items():
        click.echo(f"{name}: {path}")


if __name__ == "__main__":
    main()
