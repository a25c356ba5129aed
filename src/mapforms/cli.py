"""Command line front end.

    mapforms verify  --suite hat-calculus --suite boundary --seed 7 --out report.json
    mapforms converge --identity derivation-circle --levels 32,64,128,256
    mapforms demo mw-links --out demo-out/

verify runs named identity suites and writes a structured report (JSON or
CSV); converge reruns one identity over a node ladder with FD steps scaled
accordingly and emits a residual table with the fitted order; demo produces
value tables as CSV plus a JSON summary.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.  Reports carry the seed, meshes, tolerances and the
conventions in force, and are byte-identical for identical (config, seed).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import grassmannian as gr
from . import mechanics as me
from .charts import DEFAULT_FD_STEP
from .domains import make_domain, torus2
from .forms import coefficient_form, integrate, scalar_coordinate
from .report import TestRecord, VerificationReport, csv_text, fit_order, json_text
from .suites import (DERIVATION_CASES, SUITES, SuiteConfig, brane_catalog,
                     brane_checks, derivation_residual, mw_links, run_suite,
                     two_route_residual, unit_loop)

USAGE_ERROR = 2


def _write(path, text: str) -> None:
    """Write `text` to `path`, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_config(args):
    """The SuiteConfig and the suite ids of an optional JSON config file (an
    object of SuiteConfig fields plus "suites"), overridden by the flags; an
    unknown or repeated suite id is an error for every command, a demo included."""
    config, suites = SuiteConfig(), []
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object, got "
                             f"{type(raw).__name__}")
        suites = raw.pop("suites", [])
        if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
            raise ValueError(f"suites must be a list of suite ids, got {suites!r}")
        unknown = sorted(set(raw) - set(SuiteConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        config = replace(config, **raw)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "nodes", None) is not None:
        config = replace(config, nodes=args.nodes)
    suites = getattr(args, "suite", []) or suites
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite ids {unknown}; available: {sorted(SUITES)}")
    repeated = sorted({s for s in suites if suites.count(s) > 1})
    if repeated:
        raise ValueError(f"repeated suite ids {repeated}: each suite runs once")
    return config, suites


def cmd_verify(args) -> int:
    try:
        config, suites = _load_config(args)
        if not suites:
            print("error: no suites requested (use --suite, e.g. "
                  f"--suite hat-calculus; available: {sorted(SUITES)})",
                  file=sys.stderr)
            return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    records = []
    for name in suites:
        try:
            records.extend(run_suite(name, config))
        except Exception as exc:
            # a suite that raises is one failed record; the others still run
            traceback.print_exc()
            records.append(TestRecord(
                test_id=f"{name}-raised", statement=f"suite {name} runs to completion",
                residual=1.0, tolerance=0.0, passed=False, seed=config.seed, mesh={},
                detail=f"{type(exc).__name__}: {exc}"))
    report = VerificationReport(suite="+".join(suites), records=records,
                                environment=config.environment())
    for r in records:
        print(r.line())
    n_fail = sum(not r.passed for r in records)
    print(f"{len(records) - n_fail}/{len(records)} checks passed")
    if args.out:
        _write(args.out, report.to_csv() if args.format == "csv" else report.to_json())
        print(f"report written to {Path(args.out)}")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# convergence studies

def _derivation(dom, fd_step: float, rng) -> float:
    """The derivation identity on the first DERIVATION_CASES entry of the
    domain's kind."""
    m, p, q = next(case[1:] for case in DERIVATION_CASES if case[0] == dom.kind)
    return abs(derivation_residual(dom, m, p, q, rng)(fd_step))


# id -> (label, kind of its grids, draw salt, residual(domain, fd_step, rng));
# every level draws its case from [seed, salt].  The quadrature of the exact
# derivative of a periodic function is zero up to roundoff at every level
# (the machine-floor reference case).
CONVERGE_IDS = {
    "derivation-circle": ("FD-limited derivation identity on the circle", "circle", 90,
                          _derivation),
    "derivation-torus": ("FD-limited derivation identity on the torus", "torus2", 90,
                         _derivation),
    "two-route-circle": ("spectral two-route agreement (machine floor)", "circle", 91,
                         lambda dom, fd_step, rng: two_route_residual(dom, 3, 2, 1, rng)),
    "quadrature-circle": (
        "spectral quadrature of an exact derivative", "circle", 92,
        lambda dom, fd_step, rng: abs(integrate(coefficient_form(
            1, 0, {(): cat.random_scalar(1, rng, n_terms=3, max_mode=3)}).analytic_d, dom))),
}


def _level_config(kind: str, level: int, seed: int) -> SuiteConfig:
    """The config a converge level runs on: `level` circle nodes, or the
    torus side that make_domain gives `level` nodes.  It is validated like
    verify's, so a grid under suites.GRID_MINIMUMS is a usage error."""
    field = {"circle": "nodes", "torus2": "torus_side"}[kind]
    size = make_domain(kind, level).shape[0]
    try:
        return SuiteConfig(seed=seed, **{field: size})
    except ValueError as exc:
        raise ValueError(f"level {level} of --levels, on {kind}({size}): {exc}") from None


def cmd_converge(args) -> int:
    try:
        if args.identity not in CONVERGE_IDS:
            print(f"error: unknown identity {args.identity!r}; available: "
                  f"{sorted(CONVERGE_IDS)}", file=sys.stderr)
            return USAGE_ERROR
        label, kind, salt, measure = CONVERGE_IDS[args.identity]
        levels = [int(t) for t in args.levels.split(",") if t]
        if not levels or any(n <= 0 for n in levels):
            raise ValueError(f"--levels needs positive node counts, got {args.levels!r}")
        configs = [_level_config(kind, n, args.seed) for n in levels]
        grids = [c.domains()[kind] for c in configs]
        if len({g.shape for g in grids}) < len(grids):
            raise ValueError(f"--levels {args.levels} repeat a {kind} grid, so no order "
                             f"can be fitted: shapes {[g.shape for g in grids]}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    base_nodes = grids[0].n_nodes  # a torus2 level is rounded to a square grid
    rows = []
    for dom in grids:
        fd = DEFAULT_FD_STEP * base_nodes / dom.n_nodes * 40.0  # keep the FD term visible
        rows.append((dom.n_nodes, fd, measure(dom, fd, np.random.default_rng([args.seed, salt]))))
    steps = [1.0 / n for n, _, _ in rows]
    residuals = [r for _, _, r in rows]
    order, note = fit_order(steps, residuals)
    order_text = f"{order:.2f}" if order is not None else note

    print(f"identity: {args.identity} ({label})")
    print("nodes,fd_step,residual")
    for nodes, fd, residual in rows:
        print(f"{nodes},{fd:.6e},{residual:.6e}")
    print(f"fitted order vs 1/nodes: {order_text}")
    if args.out:
        if args.format == "json":
            text = json_text({
                "identity": args.identity, "label": label,
                "levels": [{"nodes": n, "fd_step": fd, "residual": r} for n, fd, r in rows],
                "order": order, "order_note": note, "seed": args.seed,
            })
        else:
            text = csv_text([("nodes", "fd_step", "residual"), *rows])
        _write(args.out, text)
        print(f"table written to {Path(args.out)}")
    return 0


# ---------------------------------------------------------------------------
# demos

def demo_mw_links(config: SuiteConfig):
    """Loop-space area pairing: circle value, horizontality, closedness."""
    loop = unit_loop()
    rng = np.random.default_rng([config.seed, 95])
    wavy = gr.embed(cat.random_loop(loop.dom, 3, rng, amp=0.2))
    v_circle, checks = mw_links(config, loop, rng, offset=0.2)
    odd = gr.tilda_eval(loop.nu, loop.circ, [loop.ez, cat.named_field("e_x")])
    rows = [("loop", "slot_fields", "value"),
            ("unit-circle", "e_z,radial", f"{v_circle:.15f}"),
            ("unit-circle", "e_z,e_x", f"{odd:.3e}"),
            ("wavy-loop", "e_z,radial",
             f"{gr.tilda_eval(loop.nu, wavy, [loop.ez, loop.rad]):.15f}")]
    residual = {r.test_id: r.residual for r in checks}
    summary = {
        "circle_value": v_circle,
        "circle_value_error": residual["mw-circle-value"],
        "horizontality_defect": residual["tilda-horizontality"],
        "closedness_residual": residual["mw-closedness"],
        "passed": all(r.passed for r in checks),
    }
    return summary, {"mw-links.csv": rows}


def demo_dualpair(config: SuiteConfig):
    """Commuting hamiltonian actions on F(T^2, R^2) with their momenta."""
    dom = torus2(config.torus_side)
    rng = np.random.default_rng([config.seed, 96])
    sys = me.canonical_r2()
    theta = coefficient_form(2, 1, {(1,): scalar_coordinate(0, 2)},
                             name="x dy")
    om_ex = me.exact_two_form(theta)
    report = me.dual_pair_report(sys, om_ex, dom, rng)
    # each quantity with the bound it must stay under for the demo to pass
    bounds = {"commutation_error": 1e-12, "diffham_residual": 1e-6,
              "diffex_residual": 1e-6, "diffex_cocycle_spread": 1e-6}
    rows = [("quantity", "value")] + [(key, f"{report[key]:.3e}") for key in bounds]
    # momentum samples along the homotopy; the cocycle column stays constant
    names = [p.name for p in sys.catalog]
    path_rows = [("t",) + tuple(f"J_ham[{n}]" for n in names)
                 + ("J_vol", "cocycle")]
    for step_data in report["homotopy_path"]:
        path_rows.append(
            (f"{step_data['t']:.2f}",)
            + tuple(f"{v:.12f}" for v in step_data["momentum_diffham"])
            + (f"{step_data['momentum_diffex']:.12f}",
               f"{step_data['cocycle_diffex']:.3e}"))
    summary = {key: report[key] for key in bounds}
    summary["passed"] = all(report[key] < bound for key, bound in bounds.items())
    return summary, {"dualpair.csv": rows,
                     "dualpair-homotopy.csv": path_rows}


def demo_branes(config: SuiteConfig):
    """Twist closedness for the cataloged boundary data."""
    records, reports = brane_checks(config, 97, *brane_catalog(config))
    rows = [("case", "applicable", "gate_residual", "closedness_residual",
             "passed")]
    rows += [(name, rep.applicable, f"{rep.gate_residual:.3e}",
              f"{rep.closedness_residual:.3e}", rep.passed) for name, rep in reports]
    summary = {"cases": len(reports), "passed": all(r.passed for r in records)}
    return summary, {"branes.csv": rows}


DEMOS = {
    "mw-links": demo_mw_links,
    "dualpair": demo_dualpair,
    "branes": demo_branes,
}


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        print(f"error: unknown demo {args.name!r}; available: "
              f"{sorted(DEMOS)}", file=sys.stderr)
        return USAGE_ERROR
    try:
        config, _ = _load_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    summary, tables = DEMOS[args.name](config)
    out_dir = Path(args.out or "demo-out")
    for fname, rows in tables.items():
        _write(out_dir / fname, csv_text(rows))
    _write(out_dir / f"{args.name}.json", json_text(summary))
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"artifacts written to {out_dir}/")
    return 0 if summary.get("passed", True) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapforms",
        description="identity suites, convergence studies, and demos for the "
                    "map-space form calculus")
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("--suite", action="append", default=[],
                          help=f"suite id, repeatable ({sorted(SUITES)})")
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--nodes", type=int, default=None)
    p_verify.add_argument("--out", help="report file path")
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")

    p_conv = sub.add_parser("converge", help="node-refinement study")
    p_conv.add_argument("--identity", required=True,
                        help=f"identity id ({sorted(CONVERGE_IDS)})")
    p_conv.add_argument("--levels", default="32,64,128,256")
    p_conv.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_conv.add_argument("--out", help="table file path")
    p_conv.add_argument("--format", choices=["json", "csv"], default="csv")

    p_demo = sub.add_parser("demo", help="run a demo")
    p_demo.add_argument("name", help=f"demo id ({sorted(DEMOS)})")
    p_demo.add_argument("--config", help="JSON config file")
    p_demo.add_argument("--seed", type=int, default=None)
    p_demo.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"verify": cmd_verify, "converge": cmd_converge, "demo": cmd_demo}.get(args.command)
    if command is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        return command(args)
    except OSError as exc:  # a --config that cannot be read or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
