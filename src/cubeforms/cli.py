"""Command line front end: exact verification, rate prediction, and
configuration-driven convergence experiments.

Subcommands:
    check     run the exact suites (dimensions, DOF counts, unisolvence,
              calculus identities, subcomplex, pullback inclusions)
    rates     print predicted (affine, multilinear) rates for a space
    converge  run a convergence study from a config file; emits CSV, a run
              record (JSON) and an aligned table

Exit codes: 0 success, 1 verification/assertion failure, 2 usage or config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import io
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__, verify
from .forms import DiffForm
from .meshlab import (
    ConvergenceReport,
    NumericalError,
    convergence_study,
    target_from_form,
    target_trig,
)
from .spaces import (
    FormSpace,
    build_P,
    build_Qminus,
    build_SrLambda1_2d,
    build_serendipity,
    predict_rates,
)

SPACE_KINDS = ("P", "Qminus", "serendipity", "SLambda1_2d", "custom")
# The mesh families that read the distortion d, and the one that reads shear.
D_FAMILIES = ("trapezoidal", "trilinear3d")
SHEAR_FAMILY = "parallelotope"
CSV_HEADER = "family,n,k,r,space,N,h,error,rate_pair,rate_lsq,pred_affine,pred_multilinear"


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# ---------------------------------------------------------------------------
# custom space grammar: semicolon-separated monomial forms, each a '*'-joined
# product of an optional rational coefficient, powers x<i>[^<e>], and one
# dx(<i>,<j>,...) factor (dx() or omitted for 0-forms).

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_DX_RE = re.compile(r"^dx\(([\d,\s]*)\)$")
_COEF_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def parse_monomial_form(text: str, n: int) -> DiffForm:
    coef = Fraction(1)
    exps = [0] * n
    sigma: tuple[int, ...] | None = None
    for raw in text.split("*"):
        tok = raw.strip()
        if not tok:
            raise ConfigError(f"empty factor in form {text!r}")
        m = _FACTOR_RE.match(tok)
        if m:
            i = int(m.group(1))
            if not 1 <= i <= n:
                raise ConfigError(f"variable x{i} out of range for n={n}")
            exps[i - 1] += int(m.group(2) or 1)
            continue
        m = _DX_RE.match(tok)
        if m:
            if sigma is not None:
                raise ConfigError(f"multiple dx factors in form {text!r}")
            body = m.group(1).strip()
            idx = tuple(int(p) for p in body.split(",")) if body else ()
            if list(idx) != sorted(set(idx)) or any(not 1 <= i <= n for i in idx):
                raise ConfigError(f"dx indices must be strictly increasing in 1..{n}")
            sigma = idx
            continue
        if _COEF_RE.match(tok):
            coef *= _parse_fraction(tok, f"coefficient in form {text!r}")
            continue
        raise ConfigError(f"cannot parse factor {tok!r} in form {text!r}")
    return DiffForm.monomial_form(n, sigma or (), tuple(exps), coef)


def parse_custom_space(text: str, n: int) -> FormSpace:
    forms = [parse_monomial_form(part, n) for part in text.split(";") if part.strip()]
    if not forms:
        raise ConfigError("custom space has no forms")
    k = forms[0].k
    if any(f.k != k for f in forms):
        raise ConfigError("custom space mixes form degrees")
    space = FormSpace(n, k, forms, label="custom")
    if space.rank() < space.dim:
        raise ConfigError("custom forms are linearly dependent")
    return space


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    space_kind: str
    n: int
    k: int
    r: int | None = None
    forms: str | None = None
    family: str = "uniform"
    subdivision_list: list[int] = field(default_factory=lambda: [2, 4, 8])
    d: Fraction = Fraction(0)
    shear: list[list[Fraction]] | None = None
    target_kind: str = "trig"
    target_scale: Fraction = Fraction(1)
    target_form: str | None = None
    quad: int | None = None
    csv_name: str | None = None

    def build_space(self) -> FormSpace:
        kind = self.space_kind
        if kind == "P":
            return build_P(self.r, self.k, self.n)
        if kind == "Qminus":
            return build_Qminus(self.r, self.k, self.n)
        if kind == "serendipity":
            if self.k != 0:
                raise ConfigError("serendipity spaces are 0-forms; set k = 0")
            return build_serendipity(self.r, self.n)
        if kind == "SLambda1_2d":
            if (self.n, self.k) != (2, 1):
                raise ConfigError("SLambda1_2d requires n = 2, k = 1")
            return build_SrLambda1_2d(self.r)
        if kind == "custom":
            if not self.forms:
                raise ConfigError("custom space needs a forms key")
            space = parse_custom_space(self.forms, self.n)
            if space.k != self.k:
                raise ConfigError("custom forms degree disagrees with k")
            return space
        raise ConfigError(f"unknown space kind {kind!r}")

    def build_target(self):
        if self.target_kind == "trig":
            return target_trig(self.n, self.k, float(self.target_scale))
        if self.target_kind == "poly":
            if not self.target_form:
                raise ConfigError("poly target needs a form key")
            return target_from_form(parse_monomial_form(self.target_form, self.n))
        raise ConfigError(f"unknown target kind {self.target_kind!r}")

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp.optionxform = str  # keep the case of keys such as N
        cp["space"] = {"kind": self.space_kind, "n": str(self.n), "k": str(self.k)}
        if self.r is not None:
            cp["space"]["r"] = str(self.r)
        if self.forms:
            cp["space"]["forms"] = self.forms
        cp["mesh"] = {
            "family": self.family,
            "N": " ".join(str(x) for x in self.subdivision_list),
        }
        if self.family in D_FAMILIES:
            cp["mesh"]["d"] = str(self.d)
        if self.family == SHEAR_FAMILY and self.shear is not None:
            cp["mesh"]["shear"] = " ".join(
                str(x) for row in self.shear for x in row
            )
        cp["target"] = {"kind": self.target_kind}
        if self.target_kind == "trig" and self.target_scale != 1:
            cp["target"]["scale"] = str(self.target_scale)
        if self.target_form:
            cp["target"]["form"] = self.target_form
        cp["run"] = {}
        if self.quad is not None:
            cp["run"]["quad"] = str(self.quad)
        if self.csv_name:
            cp["run"]["csv"] = self.csv_name
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what}: {text!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if "space" not in cp or "mesh" not in cp:
        raise ConfigError("config needs [space] and [mesh] sections")
    sp = cp["space"]
    me = cp["mesh"]
    tg = cp["target"] if "target" in cp else {}
    rn = cp["run"] if "run" in cp else {}
    try:
        kind = sp.get("kind", "")
        if kind not in SPACE_KINDS:
            raise ConfigError(f"space kind must be one of {SPACE_KINDS}")
        n = int(sp["n"])
        if n < 1:
            raise ConfigError("space needs n >= 1")
        k = int(sp["k"])
        r = int(sp["r"]) if "r" in sp else None
        if kind != "custom" and r is None:
            raise ConfigError("space needs r")
        family = me.get("family", "")
        # A key the family does not read would be dropped from the run.
        if "d" in me and family not in D_FAMILIES:
            wanted = " or ".join(D_FAMILIES)
            raise ConfigError(f"mesh key d needs family {wanted}, not {family!r}")
        if "shear" in me and family != SHEAR_FAMILY:
            raise ConfigError(f"mesh key shear needs family {SHEAR_FAMILY}, not {family!r}")
        subdivision_list = [int(x) for x in me.get("N", "").split()]
        if not subdivision_list:
            raise ConfigError("mesh needs an N list")
        cfg = ExperimentConfig(
            space_kind=kind,
            n=n,
            k=k,
            r=r,
            forms=sp.get("forms"),
            family=family,
            subdivision_list=subdivision_list,
            d=_parse_fraction(me.get("d", "0"), "distortion d"),
            target_kind=tg.get("kind", "trig"),
            target_scale=_parse_fraction(tg.get("scale", "1"), "target scale"),
            target_form=tg.get("form"),
            quad=int(rn["quad"]) if "quad" in rn else None,
            csv_name=rn.get("csv"),
        )
        if "shear" in me:
            entries = [_parse_fraction(x, "shear entry") for x in me["shear"].split()]
            if len(entries) != n * n:
                raise ConfigError(f"shear needs {n * n} row-major entries")
            cfg.shear = [entries[i * n : (i + 1) * n] for i in range(n)]
        if cfg.csv_name and (Path(cfg.csv_name).name != cfg.csv_name or cfg.csv_name == ".."):
            raise ConfigError(f"run csv must be a bare file name: {cfg.csv_name!r}")
        cfg.build_space()
        cfg.build_target()
    except (KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return cfg


def bundled_config_path(name: str) -> Path:
    """Path of a packaged reproduction config; accepts bare names."""
    if not name.endswith(".cfg"):
        name += ".cfg"
    path = resources.files("cubeforms") / "configs" / name
    return Path(str(path))


def bundled_config_names() -> list[str]:
    root = resources.files("cubeforms") / "configs"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


# ---------------------------------------------------------------------------
# report rendering


def report_csv_rows(report: ConvergenceReport, r: int | None) -> list[list[str]]:
    rows = []
    pairs = report.rate_pairs
    lsq = report.rate_lsq
    last = len(report.subdivisions) - 1
    for i, (nn, err) in enumerate(zip(report.subdivisions, report.errors)):
        rows.append(
            [
                report.family,
                str(report.n),
                str(report.k),
                "" if r is None else str(r),
                report.space_label,
                str(nn),
                repr(1.0 / nn),
                repr(err),
                "" if pairs[i] is None else f"{pairs[i]:.6f}",
                f"{lsq:.6f}" if (i == last and lsq is not None) else "",
                str(report.prediction.s_affine),
                str(report.prediction.s_multilinear),
            ]
        )
    return rows


def write_csv(path: Path, report: ConvergenceReport, r: int | None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(report_csv_rows(report, r))


def render_table(report: ConvergenceReport) -> str:
    lines = [
        f"family={report.family} space={report.space_label} target={report.target_label} "
        f"quad={report.quad_order}",
        f"{'N':>6} {'h':>10} {'error':>14} {'rate_pair':>10}",
    ]
    for nn, err, pr in zip(report.subdivisions, report.errors, report.rate_pairs):
        pr_s = "" if pr is None else f"{pr:.3f}"
        lines.append(f"{nn:>6} {1.0 / nn:>10.5f} {err:>14.6e} {pr_s:>10}")
    lsq = report.rate_lsq
    lines.append(
        f"rate (last pair) = {report.last_pair_rate:.3f}  "
        f"rate (lsq last 3) = {lsq:.3f}  "
        f"predicted affine/multilinear = {report.prediction.s_affine}/{report.prediction.s_multilinear}"
        if report.last_pair_rate is not None and lsq is not None
        else "not enough refinements for a rate fit"
    )
    return "\n".join(lines)


def run_record(cfg: ExperimentConfig, report: ConvergenceReport) -> dict:
    return {
        "config": cfg.to_text(),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "report": {
            "family": report.family,
            "space": report.space_label,
            "n": report.n,
            "k": report.k,
            "target": report.target_label,
            "quad_order": report.quad_order,
            "subdivisions": report.subdivisions,
            "errors": report.errors,
            "ls_conds": report.ls_conds,
            "rate_pairs": report.rate_pairs,
            "rate_lsq": report.rate_lsq,
            "prediction": {
                "s_affine": report.prediction.s_affine,
                "s_multilinear": report.prediction.s_multilinear,
            },
        },
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    results = verify.run_all(args.max_n, args.max_r, pullback_maps=args.pullback_maps)
    failed = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed:", ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _parse_r_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if hi < lo:
            raise ValueError(f"empty range --r {text}: the upper end is below the lower")
        return list(range(lo, hi + 1))
    return [int(text)]


def cmd_rates(args) -> int:
    try:
        rs = _parse_r_range(args.r)
        rows = []
        for r in rs:
            cfg = ExperimentConfig(
                space_kind=args.kind, n=args.n, k=args.k, r=r, forms=args.forms
            )
            space = cfg.build_space()
            pred = predict_rates(space)
            rows.append((space.label, pred))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(label) for label, _ in rows)
    print(f"{'space':<{width}}  {'s_affine':>8}  {'s_multilinear':>13}")
    for label, pred in rows:
        print(f"{label:<{width}}  {pred.s_affine:>8}  {pred.s_multilinear:>13}")
    return 0


def cmd_converge(args) -> int:
    path = Path(args.config)
    if not path.exists():
        bundled = bundled_config_path(args.config)
        if bundled.exists():
            path = bundled
        else:
            print(f"error: config {args.config!r} not found", file=sys.stderr)
            return 2
    try:
        cfg = parse_config(path.read_text())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.quad is not None:
        cfg.quad = args.quad
    space = cfg.build_space()
    target = cfg.build_target()
    try:
        report = convergence_study(
            space,
            target,
            cfg.family,
            cfg.subdivision_list,
            d=cfg.d,
            shear=cfg.shear,
            quad_order=cfg.quad,
        )
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.csv_name or (path.stem + ".csv")
    csv_path = out_dir / stem
    write_csv(csv_path, report, cfg.r)
    record_path = csv_path.with_suffix(".json")
    record_path.write_text(json.dumps(run_record(cfg, report), indent=2))
    print(render_table(report))
    print(f"csv: {csv_path}")
    print(f"record: {record_path}")
    if args.assert_rates is not None:
        predicted = report.predicted_rate
        fitted = report.last_pair_rate
        if fitted is None or abs(fitted - predicted) > args.assert_rates:
            print(
                f"rate assertion failed: fitted {fitted} vs predicted {predicted} "
                f"(tol {args.assert_rates})",
                file=sys.stderr,
            )
            return 1
        print(f"rate assertion ok: fitted {fitted:.3f} vs predicted {predicted}")
    return 0


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low (argparse names the flag)."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def _tolerance(text: str) -> float:
    """An argparse type: a finite float no smaller than 0."""
    tol = float(text)
    if not 0 <= tol < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeforms",
        description="Finite element differential forms on cubic meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the exact verification suites")
    p_check.add_argument("--max-n", type=_int_at_least(1), default=3, dest="max_n")
    p_check.add_argument("--max-r", type=_int_at_least(1), default=3, dest="max_r")
    p_check.add_argument("--pullback-maps", type=_int_at_least(0), default=5, dest="pullback_maps")
    p_check.set_defaults(func=cmd_check)

    p_rates = sub.add_parser("rates", help="predicted approximation rates for a space")
    p_rates.add_argument("--kind", choices=SPACE_KINDS, required=True)
    p_rates.add_argument("--r", default="1", help="single value or range like 1..6")
    p_rates.add_argument("--k", type=int, default=0)
    p_rates.add_argument("--n", type=_int_at_least(1), required=True)
    p_rates.add_argument("--forms", default=None, help="custom space grammar")
    p_rates.set_defaults(func=cmd_rates)

    p_conv = sub.add_parser("converge", help="run a convergence study from a config")
    p_conv.add_argument("config", help="config path or bundled config name")
    p_conv.add_argument("--out", default=".", help="output directory")
    p_conv.add_argument("--quad", type=int, default=None, help="per-axis quadrature order")
    p_conv.add_argument(
        "--assert-rates",
        type=_tolerance,
        default=None,
        dest="assert_rates",
        metavar="TOL",
        help="exit 1 unless the fitted last-pair rate is within TOL of the prediction",
    )
    p_conv.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
