"""Command-line front end: simulate, identify, excite-check, mpc-run,
compare, print-defaults.

Every command is a deterministic function of the config file, input files and
seed; outputs are CSV files under --out-dir.  Exit codes: 0 ok, 2 config
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import excitation, identify, mpc
from .config import ExperimentConfig, config_to_ini, default_config, load_config
from .errors import ConfigError, DivergenceError, NumericalError, ThermbenchError
from .regressors import RegressorSpec, Structure
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
    if not getattr(args, "spec", None):
        return [cfg.model.spec]
    out = []
    for name in args.spec:
        try:
            out.append(RegressorSpec(Structure(name), cfg.model.spec.n_neighbors))
        except ValueError:
            raise ConfigError(f"unknown model structure {name!r}") from None
    return out


def _dataset(args, cfg: ExperimentConfig) -> TimeSeriesDataset:
    if getattr(args, "dataset", None):
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


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    if getattr(args, "probe", False):
        ds = run_probe_experiment(cfg.plant, cfg.sim, inlet_set=cfg.mpc.inlet_set,
                                  flow_set=cfg.mpc.flow_set, period_h=cfg.mpc.t_opt)
        path = out / "dataset_probe.csv"
    else:
        ds = run_experiment(cfg.plant, cfg.sim)
        path = out / "dataset.csv"
    ds.to_csv(path)
    print(f"wrote {path} ({len(ds)} samples, {ds.n_neighbors} neighbor(s))")
    return EXIT_OK


def _train_all(cfg: ExperimentConfig, ds: TimeSeriesDataset,
               specs: list[RegressorSpec], out: Path):
    """Train the RH predictor once, then each requested zone structure."""
    rh_spec = RegressorSpec(Structure.NRM_FI_RH, cfg.model.spec.n_neighbors)
    rh_report = identify.train(ds, rh_spec, cfg.model.passes, cfg.model.rls,
                               window=cfg.model.rmse_window)
    identify.theta_to_file(rh_report.theta, out / "theta_w.txt")
    reports = {}
    for spec in specs:
        if spec.structure is Structure.NRM_FI_RH:
            reports[spec] = rh_report
            continue
        rep = identify.train(ds, spec, cfg.model.passes, cfg.model.rls,
                             theta_w=rh_report.theta, window=cfg.model.rmse_window)
        reports[spec] = rep
    for spec, rep in reports.items():
        tag = spec.structure.value
        rep.to_csv(out / f"train_report_{tag}.csv")
        identify.theta_to_file(rep.theta, out / f"theta_{tag}.txt")
    return rh_report, reports


def cmd_identify(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    ds = _dataset(args, cfg)
    _, reports = _train_all(cfg, ds, _specs(args, cfg), out)
    for spec, rep in reports.items():
        print(f"{spec.structure.value}: final rolling RMSE "
              f"{rep.final_rmse:.6g} over window {rep.window}")
    return EXIT_OK


def cmd_excite_check(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    ds = _dataset(args, cfg)
    report = excitation.informativity_check(ds, cfg.model.spec)
    for col, rep in report.spectra.items():
        rep.to_csv(out / f"spectrum_{col}.csv", epsilon_hours=ds.epsilon)
    print(report.summary())
    return EXIT_OK


def _episode(cfg: ExperimentConfig, spec: RegressorSpec, theta, theta_w):
    sim = dataclasses.replace(cfg.sim, seed=cfg.eval_seed,
                              duration=cfg.episode_hours)
    return mpc.closed_loop_run(cfg.plant, sim, cfg.mpc, spec, theta, theta_w)


def cmd_mpc_run(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    specs = _specs(args, cfg)
    for spec in specs:
        if spec.structure is Structure.NRM_FI_RH:
            raise ConfigError("the RH structure predicts the water temperature "
                              "and cannot serve as the zone model in the MPC")
    ds = _dataset(args, cfg)
    _, reports = _train_all(cfg, ds, specs, out)
    for spec, rep in reports.items():
        episode = _episode(cfg, spec, rep.theta, rep.theta_w)
        tag = spec.structure.value
        episode.to_csv(out / f"episode_{tag}.csv")
        print(f"{tag}: comfort {episode.final_comfort:.6g}  "
              f"heating {episode.final_heating:.6g}  pump {episode.final_pump:.6g}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    specs = _specs(args, cfg)
    ds = _dataset(args, cfg)
    _, reports = _train_all(cfg, ds, specs, out)
    rows = []
    for spec, rep in reports.items():
        tag = spec.structure.value
        if spec.structure is Structure.NRM_FI_RH:
            rows.append((tag, rep.final_rmse, float("nan"), float("nan"),
                         float("nan")))
            continue
        episode = _episode(cfg, spec, rep.theta, rep.theta_w)
        episode.to_csv(out / f"episode_{tag}.csv")
        rows.append((tag, rep.final_rmse, episode.final_comfort,
                     episode.final_heating, episode.final_pump))
    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        fh.write("spec,final_rmse,final_comfort,final_heating,final_pump\n")
        for tag, rmse, comfort, heating, pump in rows:
            fh.write(f"{tag},{rmse:.9g},{comfort:.9g},{heating:.9g},{pump:.9g}\n")
        print(f"wrote {out / 'summary.csv'}")
    for tag, rmse, comfort, heating, pump in rows:
        print(f"{tag}: rmse {rmse:.6g}  comfort {comfort:.6g}  "
              f"heating {heating:.6g}  pump {pump:.6g}")
    return EXIT_OK


def cmd_print_defaults(_args) -> int:
    sys.stdout.write(config_to_ini(default_config()))
    return EXIT_OK


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
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, DivergenceError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ThermbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
