"""Command-line front end: simulate, identify, excite-check, mpc-run,
compare, print-defaults.

Every command is a deterministic function of the config file, input files and
seed; outputs are CSV files under --out-dir.  Exit codes: 0 ok, 2 config
error, 3 numerical error.

A command checks its inputs and computes every result before it returns them
as a mapping from file name to writer, plus its stdout lines; only then does
``main`` create --out-dir, write and print.  An exit 2 or 3 from the command
therefore leaves --out-dir as it was.  So does a failed write or a target
that is a directory: every target is checked and every file written before
the first rename.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import os
import sys
import tempfile
from pathlib import Path

from . import excitation, identify, mpc
from .config import ExperimentConfig, config_to_ini, default_config, load_config
from .errors import ConfigError, DivergenceError, NumericalError, ThermbenchError
from .regressors import RegressorSpec, Structure, water_spec
from .simulator import TimeSeriesDataset, run_experiment, run_probe_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thermbench",
                                description="thermal-zone identification and "
                                            "predictive-control workbench")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, dataset=False, specs=False):
        sp.add_argument("--config", required=True, help="experiment config file")
        sp.add_argument("--out-dir", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")
        if dataset:
            sp.add_argument("--dataset", default=None,
                            help="dataset CSV (generated from the config when omitted)")
        if specs:
            sp.add_argument("--spec", action="append", default=None,
                            help="model structure (repeatable); defaults to the "
                                 "config's [model] structure")

    sim_p = sub.add_parser("simulate", help="generate a closed-loop dataset")
    common(sim_p)
    sim_p.add_argument("--probe", action="store_true",
                       help="drive the water loop with a randomized probe over "
                            "the [mpc] control set instead of the hysteresis law")
    common(sub.add_parser("identify", help="train model structures on a dataset"),
           dataset=True, specs=True)
    common(sub.add_parser("excite-check", help="persistence-of-excitation report"),
           dataset=True)
    common(sub.add_parser("mpc-run", help="closed-loop receding-horizon episode"),
           dataset=True, specs=True)
    common(sub.add_parser("compare", help="identification + closed-loop comparison"),
           dataset=True, specs=True)
    sub.add_parser("print-defaults", help="write the default config to stdout")
    return p


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, seed=args.seed))
    return cfg


def _specs(args, cfg: ExperimentConfig) -> list[RegressorSpec]:
    """The requested structures, each once, in the order first named."""
    if not args.spec:
        return [cfg.model.spec]
    out = []
    for name in dict.fromkeys(args.spec):
        try:
            out.append(RegressorSpec(Structure(name), cfg.model.spec.n_neighbors))
        except ValueError:
            raise ConfigError(f"unknown model structure {name!r}") from None
    return out


def _dataset(args, cfg: ExperimentConfig) -> TimeSeriesDataset:
    if args.dataset:
        ds = TimeSeriesDataset.from_csv(args.dataset)
        # the same tolerance as the dataset's own time-grid check
        epsilon = cfg.sim.epsilon
        if abs(ds.epsilon - epsilon) > 1e-3 * epsilon:
            raise ConfigError(f"dataset {args.dataset} is sampled every "
                              f"{ds.epsilon!r} h, the config's [sim] epsilon_hours "
                              f"is {epsilon!r} h")
        if ds.n_neighbors != cfg.plant.n_neighbors:
            raise ConfigError(f"dataset {args.dataset} has {ds.n_neighbors} neighbor(s), "
                              f"the config's [plant] n_neighbors is "
                              f"{cfg.plant.n_neighbors}")
        return ds
    return run_experiment(cfg.plant, cfg.sim)


def cmd_simulate(args):
    cfg = _load(args)
    if args.probe:
        ds = run_probe_experiment(cfg.plant, cfg.sim, inlet_set=cfg.mpc.inlet_set,
                                  flow_set=cfg.mpc.flow_set, period_h=cfg.mpc.t_opt)
        name = "dataset_probe.csv"
    else:
        ds = run_experiment(cfg.plant, cfg.sim)
        name = "dataset.csv"
    return {name: ds.to_csv}, [f"wrote {Path(args.out_dir) / name} ({len(ds)} samples, "
                               f"{ds.n_neighbors} neighbor(s))"]


def train_all(cfg: ExperimentConfig, dataset: TimeSeriesDataset, specs: list[RegressorSpec]):
    """Train the RH predictor once, then each structure of ``specs`` with its
    parameters: ``(rh, {spec: report})``, where an RH spec's report is ``rh``."""
    model = cfg.model
    rh = identify.train(dataset, water_spec(model.spec), model.passes, model.rls,
                        window=model.rmse_window)
    return rh, {spec: rh if spec.structure is Structure.NRM_FI_RH else
                identify.train(dataset, spec, model.passes, model.rls, theta_w=rh.theta,
                               window=model.rmse_window) for spec in specs}


def evaluate(cfg: ExperimentConfig, reports) -> dict[RegressorSpec, mpc.EpisodeReport]:
    """Each zone model's closed-loop episode on the config's evaluation week."""
    return {spec: mpc.closed_loop_run(cfg.plant, cfg.evaluation_sim, cfg.mpc, spec,
                                      rep.theta, rep.theta_w)
            for spec, rep in reports.items() if spec.structure is not Structure.NRM_FI_RH}


def _experiment(args, cfg: ExperimentConfig, specs: list[RegressorSpec], closed_loop=True):
    """Train every structure and, with ``closed_loop``, evaluate each zone
    model; the reports, each episode's final running-average costs and the
    files that hold them."""
    rh, reports = train_all(cfg, _dataset(args, cfg), specs)
    episodes = evaluate(cfg, reports) if closed_loop else {}
    outputs = {"theta_w.txt": functools.partial(identify.theta_to_file, rh.theta)}
    for spec, rep in reports.items():
        tag = spec.structure.value
        outputs[f"train_report_{tag}.csv"] = rep.to_csv
        outputs[f"theta_{tag}.txt"] = functools.partial(identify.theta_to_file, rep.theta)
    costs = {}
    for spec, ep in episodes.items():
        outputs[f"episode_{spec.structure.value}.csv"] = ep.to_csv
        costs[spec] = (ep.final_comfort, ep.final_heating, ep.final_pump)
    return reports, costs, outputs


def cmd_identify(args):
    cfg = _load(args)
    reports, _, outputs = _experiment(args, cfg, _specs(args, cfg), closed_loop=False)
    return outputs, [f"{spec.structure.value}: final rolling RMSE "
                     f"{rep.final_rmse:.6g} over window {rep.window}"
                     for spec, rep in reports.items()]


def cmd_excite_check(args):
    cfg = _load(args)
    ds = _dataset(args, cfg)
    report = excitation.informativity_check(ds, cfg.model.spec)
    return ({f"spectrum_{col}.csv": functools.partial(rep.to_csv, epsilon_hours=ds.epsilon)
             for col, rep in report.spectra.items()}, [report.summary()])


def cmd_mpc_run(args):
    cfg = _load(args)
    specs = _specs(args, cfg)
    if any(spec.structure is Structure.NRM_FI_RH for spec in specs):
        raise ConfigError("the RH structure predicts the water temperature "
                          "and cannot serve as the zone model in the MPC")
    _, costs, outputs = _experiment(args, cfg, specs)
    return outputs, [f"{spec.structure.value}: comfort {comfort:.6g}  "
                     f"heating {heating:.6g}  pump {pump:.6g}"
                     for spec, (comfort, heating, pump) in costs.items()]


def cmd_compare(args):
    cfg = _load(args)
    reports, costs, outputs = _experiment(args, cfg, _specs(args, cfg))
    rows = [(spec.structure.value, rep.final_rmse, *costs.get(spec, (float("nan"),) * 3))
            for spec, rep in reports.items()]
    summary = "spec,final_rmse,final_comfort,final_heating,final_pump\n" + "".join(
        f"{tag},{rmse:.9g},{comfort:.9g},{heating:.9g},{pump:.9g}\n"
        for tag, rmse, comfort, heating, pump in rows)
    outputs["summary.csv"] = lambda path: path.write_text(summary, encoding="utf-8")
    return outputs, [f"wrote {Path(args.out_dir) / 'summary.csv'}",
                     *(f"{tag}: rmse {rmse:.6g}  comfort {comfort:.6g}  "
                       f"heating {heating:.6g}  pump {pump:.6g}"
                       for tag, rmse, comfort, heating, pump in rows)]


def cmd_print_defaults(_args):
    return {}, config_to_ini(default_config()).splitlines()


def _write(out_dir, outputs) -> None:
    """Create ``out_dir`` and write every output into a temporary directory
    in it, then rename them into place once every write has succeeded; a
    path that cannot be written, a target directory included, is a config
    error and leaves no temporary."""
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        for path in (Path(out_dir) / name for name in outputs):
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        with tempfile.TemporaryDirectory(dir=out_dir, prefix=".thermbench-",
                                         ignore_cleanup_errors=True) as staging:
            for name, write in outputs.items():
                path = Path(out_dir) / name
                write(Path(staging) / name)
            for name in outputs:
                path = Path(out_dir) / name
                os.replace(Path(staging) / name, path)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


_COMMANDS = {
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "excite-check": cmd_excite_check,
    "mpc-run": cmd_mpc_run,
    "compare": cmd_compare,
    "print-defaults": cmd_print_defaults,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        outputs, lines = _COMMANDS[args.command](args)
        if outputs:
            _write(args.out_dir, outputs)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, DivergenceError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ThermbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    for line in lines:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
