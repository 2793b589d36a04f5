"""Experiment runner: rate-over-blocklength and error-rate-over-SNR sweeps.

Outputs one CSV per run with the fixed schema
``scheme,kind,n,es_n0_db,value,stderr,flag`` plus a line-based key=value run
manifest, both written by run_with_manifest, which merges in reference curves
from other tools untouched: their value columns are copied byte for byte.
"""

import csv
import decimal
import functools
import math
import operator
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import bounds
from .bounds import Requirements, dt_error_estimate, info_density_samples
from .channel import ChannelParams, FramePlan, snr_to_sigma2
from .codebook import MAX_K, load_generator
from .detectors import DetectorSpec
from .montecarlo import calibrate_threshold, estimate_rates
from .numerics import q_func, q_inv

__all__ = [
    "SweepConfig",
    "parse_config",
    "run_rate_sweep",
    "run_pie_sweep",
    "run_optimize_split",
    "run_bounds_report",
    "run_with_manifest",
    "write_rows",
]

CSV_HEADER = ["scheme", "kind", "n", "es_n0_db", "value", "stderr", "flag"]

# every scheme a sweep knows, and the default
DEFAULT_SCHEMES = ("genie", "dad", "hyped", "preamble")

# the schemes a rate sweep has rows for
RATE_SCHEMES = ("genie", "dad", "hyped")

# the schemes with a preamble split
SPLIT_SCHEMES = ("hyped", "preamble")

# float64 densities one bound pass holds per stream; keys past it take
# another pass, so peak memory does not grow with the grids
DENSITY_BUDGET_BYTES = 64 << 20

# slot-symbols (trials x longest slot) that the Monte Carlo calibrations and
# evaluations of one run may draw: about 3-4 minutes of noise on 2 cores
MAX_SLOT_SYMBOLS = 1e10

# largest |SNR| in dB a config may give: 10^(dB/10) over- or underflows
# near 3080 dB, well inside the finite doubles
MAX_ABS_SNR_DB = 300.0

# longest blocklength a config may give: a density pass holds two 4096 x n
# float64 blocks (64 KiB per symbol of n) and a HyPED engine pass up to four,
# 2 GiB at this length; a much longer n would exhaust memory mid-run rather
# than be refused at parse time
MAX_BLOCKLENGTH = 1 << 14

# ranks (value, flag) pairs by value; max and min keep the first of equal
# values, so ties go to the smaller n_p of the ascending split grid
_BY_VALUE = operator.itemgetter(0)


@dataclass
class SweepConfig:
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    es_n0_db: float = -3.0              # fixed SNR for rate sweeps
    n_grid: tuple[int, ...] = ()        # blocklength grid for rate sweeps
    snr_grid: tuple[float, ...] = ()    # SNR grid for error-rate sweeps
    n: int = 84                         # fixed slot length for error-rate sweeps
    k: int = 12
    eps_fa: float = 1e-4
    eps_md: float = 1e-4
    eps_ie: float = 1e-3
    trials: int = 100_000
    seed: int = 0
    codes: tuple[str, ...] = ()         # generator-matrix files for simulated points
    refs: tuple[str, ...] = ()          # external reference CSVs, merged untouched
    np_grid: tuple[int, ...] = ()       # preamble-split candidates; () = automatic

    @property
    def requirements(self):
        return Requirements(self.eps_fa, self.eps_md, self.eps_ie)

    def validate(self):
        """Raise ValueError for settings no sweep can run with."""
        if not self.schemes or not set(self.schemes) <= set(DEFAULT_SCHEMES):
            raise ValueError(f"schemes must name one or more of {','.join(DEFAULT_SCHEMES)}, "
                             f"got {','.join(self.schemes)!r}")
        # a repeated entry would write its rows twice
        for key in ("schemes", "n_grid", "snr_grid", "np_grid", "codes", "refs"):
            value = getattr(self, key)
            if len(set(value)) < len(value):
                raise ValueError(f"{key} must not repeat, got {','.join(map(str, value))!r}")
        for key, snrs in (("es_n0_db", (self.es_n0_db,)), ("snr_grid", self.snr_grid)):
            bad = [snr for snr in snrs if not abs(snr) <= MAX_ABS_SNR_DB]  # nan is bad too
            if bad:
                raise ValueError(f"{key} must lie in [-{MAX_ABS_SNR_DB:g}, {MAX_ABS_SNR_DB:g}] dB, "
                                 f"got {bad[0]}")
        self.requirements  # Requirements rejects eps_* outside (0, 1)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # one key's densities, 8 bytes a trial, must fit one bound pass
        if self.trials > DENSITY_BUDGET_BYTES // 8:
            raise ValueError(f"trials must be <= {DENSITY_BUDGET_BYTES // 8}, the densities of "
                             f"one bound pass, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not 1 <= self.n <= MAX_BLOCKLENGTH:
            raise ValueError(f"n must lie in 1..{MAX_BLOCKLENGTH}, got {self.n}")
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must lie in 1..{MAX_K}, got {self.k}")
        if self.k > self.n:
            raise ValueError(f"k must be <= n, got k={self.k}, n={self.n}")
        bad = [n for n in self.n_grid if not 1 <= n <= MAX_BLOCKLENGTH]
        if bad:
            raise ValueError(f"n_grid entries must lie in 1..{MAX_BLOCKLENGTH}, got {bad[0]}")
        if any(n_p < 0 for n_p in self.np_grid):
            raise ValueError(f"np_grid entries must be >= 0, got {self.np_grid}")
        # a list entry is cut at ',' and a config line at '#', so such a path
        # could not be written back into a config or a run manifest
        for key in ("codes", "refs"):
            bad = [p for p in getattr(self, key) if "," in p or "#" in p]
            if bad:
                raise ValueError(f"{key} paths cannot contain ',' or '#', got {bad[0]!r}")

    def calibration_trials(self):
        """Trials that resolve the (1 - eps_fa)-quantile, and no fewer than `trials`."""
        return max(int(np.ceil(50 / self.eps_fa)), self.trials)


def parse_config(text):
    """Parse the line-based key=value grammar; lists are comma-separated.

    The keys are SweepConfig's fields, each value converted to its field's
    type (a tuple field to a tuple of its element type); a value that does
    not convert raises ValueError("{key}: expected {type}, got {value!r}").
    Out-of-range settings are rejected here (see SweepConfig.validate).
    """
    types = {f.name: f.type for f in fields(SweepConfig)}
    cfg = SweepConfig()
    for raw in str(text).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
        is_list = get_origin(types[key]) is tuple
        conv = get_args(types[key])[0] if is_list else types[key]
        items = [v.strip() for v in value.split(",") if v.strip()] if is_list else [value]
        try:
            converted = [conv(v) for v in items]
        except ValueError:
            raise ValueError(f"{key}: expected {conv.__name__}, got {value!r}") from None
        setattr(cfg, key, tuple(converted) if is_list else converted[0])
    cfg.validate()
    return cfg


def _value(value):
    """A value to 10 significant digits; an int past the float range is rounded exactly."""
    try:
        return f"{value:.10g}"
    except OverflowError:  # a code size past 2^1024
        return format(decimal.Context(prec=10).create_decimal(value).normalize(), "g")


def _row(scheme, kind, n, es_n0_db, value, stderr="", flag=""):
    return {
        "scheme": scheme,
        "kind": kind,
        "n": str(n),
        "es_n0_db": f"{es_n0_db:g}",
        "value": _value(value),
        "stderr": f"{stderr:.4g}" if isinstance(stderr, float) else str(stderr),
        "flag": flag,
    }


def _sort_key(row):
    try:
        sweep = (float(row["n"]), float(row["es_n0_db"]))
    except ValueError:
        sweep = (0.0, 0.0)
    # flag/value keep ties deterministic (e.g. several report rows per point)
    return (row["scheme"], row["kind"], *sweep, row["flag"], row["value"])


def ingest_reference(path):
    """Read an external reference CSV; value/stderr columns stay verbatim."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_HEADER) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"reference CSV {path} lacks columns: {sorted(missing)}")
        for rec in reader:
            rec = {k: rec[k] for k in CSV_HEADER}
            if not rec["scheme"].startswith("ref:"):
                rec["scheme"] = "ref:" + rec["scheme"]
            rows.append(rec)
    return rows


def write_rows(rows, path):
    rows = sorted(rows, key=_sort_key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    return path


def _split_candidates(cfg, n_total, k, scheme):
    if cfg.np_grid:
        cands = [p for p in cfg.np_grid if 0 <= p <= n_total - k]
    else:
        step = max(1, n_total // 8)
        cands = sorted({0, *range(step, n_total - k + 1, step), n_total - k})
    if scheme == "preamble":
        cands = [p for p in cands if p >= 1]
    return cands


def _preamble_pmd(n_p, sigma2, eps_fa):
    """Closed-form P_MD of the n_p-symbol preamble matched filter at P_FA eps_fa.

    The genie detector is this matched filter over the whole slot (n_p = n).
    """
    return float(1.0 - q_func(q_inv(eps_fa) - np.sqrt(n_p / sigma2)))


def _split_pmds(scheme, splits, cfg):
    """Missed-detection rate at every (n_p, params) preamble split of a SPLIT_SCHEMES scheme.

    The preamble matched filter has a closed form. For HyPED the exact
    detector is calibrated and evaluated with an i.i.d. random payload, which
    is exactly the model under which the HyPED LLR is the optimal
    Neyman-Pearson statistic; all splits, of every slot length and SNR,
    share one calibrate_threshold call and one estimate_rates call.
    """
    if scheme == "preamble":
        return [_preamble_pmd(n_p, p.sigma2, cfg.eps_fa) for n_p, p in splits]
    if not splits:
        return []
    plans = [FramePlan(n_p=n_p, n_c=p.n - n_p) for n_p, p in splits]
    params = [p for _, p in splits]
    spec = DetectorSpec(kind="hyped-exact")
    calibs = calibrate_threshold(spec, plans, params, cfg.calibration_trials(), cfg.eps_fa, cfg.seed)
    rates = estimate_rates([spec.with_gamma(c.gamma) for c in calibs], plans, params,
                           cfg.trials, cfg.seed)
    return [r["pmd"].p_hat for r in rates]


def _need_bounded_work(cfg, width):
    """Refuse, before any noise is drawn, Monte Carlo passes past MAX_SLOT_SYMBOLS.

    `width` sums the longest slot of every engine pass the run plans; each
    pass is one calibration of cfg.calibration_trials() and one evaluation
    of cfg.trials slots.
    """
    work = (cfg.calibration_trials() + cfg.trials) * width
    if work > MAX_SLOT_SYMBOLS:
        raise ValueError(f"eps_fa={cfg.eps_fa} needs {cfg.calibration_trials()} calibration "
                         f"trials, and with trials={cfg.trials} the Monte Carlo passes would draw "
                         f"{work:.3g} slot-symbols, past the limit of {MAX_SLOT_SYMBOLS:.3g}")


def _need_bound_trials(cfg):
    """Refuse, before any simulation, trials too few for the bounds a run reads."""
    if cfg.trials < bounds._MIN_TRIALS:
        raise ValueError(f"need at least {bounds._MIN_TRIALS} trials for the DT and "
                         f"meta-converse bounds, got {cfg.trials}")


def _bound_values(cfg, requests):
    """One value per bound request, in order: every bound pass of the sweeps.

    A request is (sigma2, length, quantity, arg): "dt-error" at M
    (dt_error_estimate's (estimate, stderr)), "dt-max-M" at eps,
    "dad-max-M" at Requirements (dad_max_code_size, at most one DT search),
    "mc-max-M" at eps or "mc-min-error" at M. The DT quantities read stream
    1 and each meta-converse (quantity, arg) streams 2 and 3. Each such
    family packs its distinct (sigma2, length) keys, in order of first use,
    into passes whose densities fit DENSITY_BUDGET_BYTES (or of one key); a
    pass is one jdd.bounds call on that flat key list (the first key, then
    the rest as ``more``), which draws each noise block once. Every value
    equals the request's own call, so the packing changes none. Stream 1 is
    drawn on first use, so a DAD code size that is 0 before its DT search
    draws none, and each pass is freed before the next.
    """
    families = {}  # family -> (sigma2, length) -> its distinct requests
    for r in dict.fromkeys(requests):
        family = r[2:] if r[2].startswith("mc-") else "dt"
        families.setdefault(family, {}).setdefault(r[:2], []).append(r)
    per_pass = max(1, DENSITY_BUDGET_BYTES // (8 * cfg.trials))
    value = {}
    for family, where in families.items():
        keys = list(where)
        for a in range(0, len(keys), per_pass):
            part = keys[a : a + per_pass]
            (s2, l), *more = part
            if family == "dt":  # drawn when a request first reads it
                sample = functools.cache(lambda: dict(zip(part, info_density_samples(
                    l, s2, cfg.trials, cfg.seed, more=more))))
                value.update((r, _dt_value(cfg, r, sample)) for key in part for r in where[key])
                del sample  # frees the pass
                continue
            quantity, arg = family
            bound = (bounds.meta_converse_max_M if quantity == "mc-max-M"
                     else bounds.meta_converse_min_error)
            got = bound(l, s2, arg, cfg.trials, cfg.seed, more=more)
            value.update(((*key, *family), v) for key, v in zip(part, got))
    return [value[r] for r in requests]


def _dt_value(cfg, request, sample):
    """A stream-1 request's value; sample() maps (sigma2, length) to densities."""
    sigma2, l, quantity, arg = request

    def search(target, *_):
        return bounds.dt_bound_max_M(l, sigma2, target, cfg.trials, cfg.seed,
                                     dens=sample()[sigma2, l])
    if quantity == "dt-error":
        return dt_error_estimate(sample()[sigma2, l], arg)
    if quantity == "dt-max-M":
        return search(arg)
    return bounds.dad_max_code_size(l, sigma2, arg, search)


def _log2(M):
    """log2 of a code size; math.log2 only where float(M) overflows."""
    try:
        return np.log2(float(M))
    except OverflowError:  # an int M past the float range
        return math.log2(M)


def run_rate_sweep(cfg):
    """Rate-over-blocklength sweep at fixed SNR (bounds only).

    Per blocklength and scheme: the genie feasibility mask from the
    blocklength converse, the DAD achievable rate log2(M)/n, HyPED
    detection-feasibility combined with DT/meta-converse payload rates, and
    the genie DT/meta-converse reference rates. A configured preamble scheme
    gets no rows, and a config naming none of genie, dad and hyped is
    rejected before any noise is drawn, as are trials too few for the genie's
    DT search and a split search past MAX_SLOT_SYMBOLS. The HyPED splits of
    every feasible n are calibrated and scored in one Monte Carlo pass
    (_feasible_splits), and every DT search (the genie, DAD's code size,
    each split's payload) and every meta-converse code size of the
    whole n grid is one request to _bound_values, so a sweep over an n grid
    writes the same rows as one sweep per n. The config is validated first (see SweepConfig.validate),
    as parse_config does.
    """
    cfg.validate()
    if not cfg.n_grid:
        raise ValueError("rate sweep needs n_grid")
    schemes = [s for s in cfg.schemes if s in RATE_SCHEMES]
    if not schemes:
        raise ValueError(f"rate sweep needs one or more of {','.join(RATE_SCHEMES)} in schemes, "
                         f"got {','.join(cfg.schemes)!r}")
    req = cfg.requirements
    sigma2 = snr_to_sigma2(cfg.es_n0_db)
    n_min = bounds.min_blocklength(sigma2, req)
    feasible = [n for n in cfg.n_grid if n >= n_min]
    if "genie" in schemes and feasible:  # a DT search at every feasible n
        _need_bound_trials(cfg)
    if "hyped" in schemes and feasible:  # one split search at the longest feasible n
        _need_bounded_work(cfg, max(feasible))
    # the feasible (n_p, pmd) HyPED splits of every n above the converse
    slots = [ChannelParams.from_db(cfg.es_n0_db, n) for n in feasible]
    splits = dict(zip(feasible, _feasible_splits(cfg, "hyped", 1, slots) if "hyped" in schemes
                      else [[] for _ in feasible]))
    requests = []
    for n, pairs in splits.items():
        if "genie" in schemes:
            requests += [(sigma2, n, "dt-max-M", req.eps_ie), (sigma2, n, "mc-max-M", req.eps_ie)]
        if "dad" in schemes:
            requests.append((sigma2, n, "dad-max-M", req))
        # a split's payload gets a DT search only if its pmd leaves eps_ie budget
        requests += [(sigma2, n - n_p, "dt-max-M", req.eps_ie - pmd)
                     for n_p, pmd in pairs if pmd < req.eps_ie]
        requests += [(sigma2, n - n_p, "mc-max-M", req.eps_ie) for n_p, _ in pairs]
    value = dict(zip(requests, _bound_values(cfg, requests)))
    snr = cfg.es_n0_db
    rows = []
    for n in cfg.n_grid:
        if n not in splits:
            for scheme in schemes:
                rows.append(_row(scheme, "achievability", n, snr, 0.0, flag="infeasible"))
            continue
        if "genie" in schemes:
            rows.append(_row("genie", "achievability", n, snr,
                             _log2(value[sigma2, n, "dt-max-M", req.eps_ie]) / n))
            rows.append(_row("genie", "converse", n, snr,
                             _log2(max(value[sigma2, n, "mc-max-M", req.eps_ie], 1)) / n))
        if "dad" in schemes:
            dad_M = value[sigma2, n, "dad-max-M", req]
            if dad_M >= 1:
                rows.append(_row("dad", "achievability", n, snr, _log2(dad_M) / n))
            else:
                rows.append(_row("dad", "achievability", n, snr, 0.0, flag="infeasible"))
        if "hyped" in schemes:
            ach = [(_log2(value[sigma2, n - n_p, "dt-max-M", req.eps_ie - pmd]) / n,
                    f"n_p={n_p}") for n_p, pmd in splits[n] if pmd < req.eps_ie]
            con = [(_log2(max(value[sigma2, n - n_p, "mc-max-M", req.eps_ie], 1)) / n,
                    f"n_p={n_p}") for n_p, _ in splits[n]]
            rows += _best_rows("hyped", n, snr, [("achievability", ach), ("converse", con)],
                               max, 0.0)
    return rows


def _best_rows(scheme, n, snr, ranked, pick, worst):
    """The best split's row of each kind, for `ranked` = [(kind, [(value, flag), ...]), ...].

    `pick` (max for rates, min for error probabilities) keeps the first of
    equal values, the smaller n_p of the ascending split grid; a kind with
    no candidate gets `worst` flagged infeasible.
    """
    rows = []
    for kind, candidates in ranked:
        value, flag = pick(candidates, key=_BY_VALUE, default=(worst, "infeasible"))
        rows.append(_row(scheme, kind, n, snr, value, flag=flag))
    return rows


def run_pie_sweep(cfg):
    """Inclusive-error-rate sweep over SNR at fixed (n, k).

    Emits bound rows per scheme and, when generator matrices are supplied,
    simulated operating points (kind = "simulated"). The DT and
    meta-converse bounds of the full slot and of every feasible split's
    payload, at every SNR above the converse floor, are requests to one
    _bound_values call; the HyPED splits of every such SNR are one Monte
    Carlo pass (_feasible_splits), and so are each code's simulated points
    (_simulated_points). So a sweep over an SNR grid writes the same rows as
    one sweep per SNR. An invalid config (see SweepConfig.validate), a code
    longer than the slot, or one whose dimension is not k, is rejected
    before any noise is drawn, and so are trials too few for the bounds when
    an SNR lies above the floor, and Monte Carlo passes past
    MAX_SLOT_SYMBOLS.
    """
    cfg.validate()
    if not cfg.snr_grid:
        raise ValueError("error-rate sweep needs snr_grid")
    req = cfg.requirements
    n, k = cfg.n, cfg.k
    M = 1 << k
    codes = [load_generator(p) for p in cfg.codes]
    for path, cb in zip(cfg.codes, codes):
        if cb.n_c > n:
            raise ValueError(f"code {path} has length n_c={cb.n_c}, longer than the slot n={n}")
        if cb.k != k:
            raise ValueError(f"code {path} has dimension k={cb.k}, not the configured k={k}")
    snr_floor = bounds.min_snr_db(n, req)
    # every SNR above the floor, and its feasible (n_p, pmd) splits per scheme
    params = {snr: ChannelParams.from_db(snr, n) for snr in cfg.snr_grid if snr >= snr_floor}
    if params:  # each reads the slot's DT and meta-converse bounds
        _need_bound_trials(cfg)
        # HyPED's split search and each simulating code are one pass each
        passes = ("hyped" in cfg.schemes) + sum(bool(_simulated_schemes(cfg, n - cb.n_c))
                                                for cb in codes)
        _need_bounded_work(cfg, n * passes)
    slots = list(params.values())
    per_scheme = {scheme: _feasible_splits(cfg, scheme, k, slots)
                  for scheme in SPLIT_SCHEMES if scheme in cfg.schemes}
    splits = {snr: {scheme: per[i] for scheme, per in per_scheme.items()}
              for i, snr in enumerate(params)}
    simulated = {snr: [] for snr in params}
    for cb in codes:
        for snr, points in zip(params, _simulated_points(cfg, cb, slots)):
            simulated[snr] += points
    requests = [(params[snr].sigma2, l, quantity, M) for snr, by_scheme in splits.items()
                for l in sorted({n, *(n - n_p for pairs in by_scheme.values() for n_p, _ in pairs)})
                for quantity in ("dt-error", "mc-min-error")]
    value = dict(zip(requests, _bound_values(cfg, requests)))
    rows = []
    for snr in cfg.snr_grid:
        if snr not in splits:
            for scheme in cfg.schemes:
                rows.append(_row(scheme, "achievability", n, snr, 1.0, flag="infeasible"))
            continue
        sigma2 = params[snr].sigma2
        pcw_ach, pcw_se = value[sigma2, n, "dt-error", M]
        pcw_con = value[sigma2, n, "mc-min-error", M]

        if "genie" in cfg.schemes:
            lo, hi = bounds.pie_sandwich(_preamble_pmd(n, sigma2, req.eps_fa), pcw_con, pcw_ach)
            rows.append(_row("genie", "converse", n, snr, lo, stderr=pcw_se))
            rows.append(_row("genie", "achievability", n, snr, hi, stderr=pcw_se))
        if "dad" in cfg.schemes:
            gamma = bounds.dad_gamma(n, sigma2, req.eps_fa, M)
            _, pmd_ub = bounds.dad_error_bounds(n, sigma2, gamma, M)
            if pmd_ub <= req.eps_md:
                _, hi = bounds.pie_sandwich(pmd_ub, 0.0, pcw_ach)
                rows.append(_row("dad", "achievability", n, snr, hi, stderr=pcw_se))
            else:
                rows.append(_row("dad", "achievability", n, snr, 1.0, flag="infeasible"))
        for scheme, pairs in splits[snr].items():
            # the (converse, achievability) sandwich of each feasible split
            sandwiches = [(bounds.pie_sandwich(pmd, value[sigma2, n - n_p, "mc-min-error", M],
                                               value[sigma2, n - n_p, "dt-error", M][0]),
                           f"n_p={n_p}") for n_p, pmd in pairs]
            ranked = [("achievability", [(up, flag) for (_, up), flag in sandwiches])]
            if pairs:  # with no feasible split, the achievability row alone says so
                ranked.append(("converse", [(lo, flag) for (lo, _), flag in sandwiches]))
            rows += _best_rows(scheme, n, snr, ranked, min, 1.0)
        rows.extend(simulated[snr])
    return rows


def _feasible_splits(cfg, scheme, k, slots):
    """Per ChannelParams of `slots`, the (n_p, pmd) of every candidate split of
    its slot whose pmd meets eps_md: one _split_pmds call for all."""
    splits = [[(n_p, p) for n_p in _split_candidates(cfg, p.n, k, scheme)] for p in slots]
    pmds = iter(_split_pmds(scheme, [split for per in splits for split in per], cfg))
    return [[(n_p, pmd) for (n_p, _), pmd in zip(per, pmds) if pmd <= cfg.eps_md]
            for per in splits]


# the detector of each scheme a code's operating point simulates
_SIMULATED_KINDS = {"dad": "dad", "hyped": "hyped-exact", "preamble": "preamble"}


def _simulated_schemes(cfg, n_p):
    """The configured schemes simulated with a code after an n_p-symbol preamble."""
    return [s for s in cfg.schemes if s in _SIMULATED_KINDS and (s != "preamble" or n_p >= 1)]


def _simulated_points(cfg, cb, slots):
    """Monte Carlo operating points of every configured scheme with this code, per slot.

    All schemes and SNRs share the code's one plan, so one
    calibrate_threshold call and one estimate_rates call evaluate them all
    on the same noise blocks; each (scheme, SNR) result equals its own
    single-entry call. Returns one list of rows per ChannelParams of `slots`.
    """
    n = cfg.n
    n_p = n - cb.n_c
    plan = FramePlan(n_p=n_p, n_c=cb.n_c)
    schemes = _simulated_schemes(cfg, n_p)
    if not schemes or not slots:
        return [[] for _ in slots]
    entries = [(j, scheme) for j in range(len(slots)) for scheme in schemes]
    specs = [DetectorSpec(kind=_SIMULATED_KINDS[scheme]) for _, scheme in entries]
    params = [slots[j] for j, _ in entries]
    calibs = calibrate_threshold(specs, plan, params, cfg.calibration_trials(),
                                 cfg.eps_fa, cfg.seed, cb=cb)
    live = [i for i, c in enumerate(calibs) if not c.infeasible]
    rates = estimate_rates([specs[i].with_gamma(calibs[i].gamma) for i in live], plan,
                           [params[i] for i in live], cfg.trials, cfg.seed, cb=cb) if live else []
    rates = dict(zip(live, rates))
    rows = [[] for _ in slots]
    for i, (j, scheme) in enumerate(entries):
        snr = slots[j].es_n0_db
        if i not in rates:
            rows[j].append(_row(scheme, "simulated", n, snr, 1.0, flag="calibration-infeasible"))
            continue
        pie = rates[i]["pie"]
        se = (pie.ci_high - pie.ci_low) / 4.0  # ~ 1 sigma from the 95% CI width
        rows[j].append(_row(scheme, "simulated", n, snr, pie.p_hat, stderr=se,
                            flag=f"n_p={n_p},trials={pie.trials}"))
    return rows


def run_optimize_split(cfg):
    """Preamble-split search of each SPLIT_SCHEMES scheme at (n, k, es_n0_db).

    Per candidate split n_p, rows flagged pmd, pcw-ub (the payload's DT
    bound) and pie-ub (nan where pmd misses eps_md); then the least pie-ub,
    ties to the earlier split, flagged best,n_p=..., or the infeasible row:
    the P_IE sweep's achievability row at this SNR. A config naming no split
    scheme is rejected, like an invalid one, before any noise is drawn, and
    so is a HyPED split search past MAX_SLOT_SYMBOLS.
    """
    cfg.validate()
    schemes = [s for s in cfg.schemes if s in SPLIT_SCHEMES]
    if not schemes:
        raise ValueError(f"optimize-split needs one or more of {','.join(SPLIT_SCHEMES)} in "
                         f"schemes, got {','.join(cfg.schemes)!r}")
    params = ChannelParams.from_db(cfg.es_n0_db, cfg.n)
    n, snr, M = cfg.n, cfg.es_n0_db, 1 << cfg.k
    n_ps = {scheme: _split_candidates(cfg, n, cfg.k, scheme) for scheme in schemes}
    if n_ps.get("hyped"):  # one split search
        _need_bounded_work(cfg, n)
    # payload length -> its DT codeword-error bound, all in one bound request list
    lengths = sorted({n - n_p for cands in n_ps.values() for n_p in cands})
    dt = dict(zip(lengths, _bound_values(cfg, [(params.sigma2, l, "dt-error", M) for l in lengths])))
    rows = []
    for scheme in schemes:
        feasible = []
        pmds = _split_pmds(scheme, [(n_p, params) for n_p in n_ps[scheme]], cfg)
        for n_p, pmd in zip(n_ps[scheme], pmds):
            pcw_ub = dt[n - n_p][0]
            pie_ub = math.nan
            if pmd <= cfg.eps_md:
                pie_ub = bounds.pie_sandwich(pmd, 0.0, pcw_ub)[1]
                feasible.append((pie_ub, f"best,n_p={n_p}"))
            rows += [_row(scheme, "achievability", n, snr, v, flag=f"{name},n_p={n_p}")
                     for name, v in (("pmd", pmd), ("pcw-ub", pcw_ub), ("pie-ub", pie_ub))]
        rows += _best_rows(scheme, n, snr, [("achievability", feasible)], min, 1.0)
    return rows


def run_bounds_report(cfg):
    """Closed-form bound summary rows for the configured operating point.

    The config is validated first (see SweepConfig.validate).
    """
    cfg.validate()
    req = cfg.requirements
    sigma2 = snr_to_sigma2(cfg.es_n0_db)
    n = cfg.n
    M = 1 << cfg.k
    rows = [
        _row("theorem1", "converse", n, cfg.es_n0_db, bounds.min_blocklength(sigma2, req),
             flag="min-blocklength"),
        _row("theorem1", "converse", n, cfg.es_n0_db, bounds.min_snr_db(n, req),
             flag="min-snr-db"),
    ]
    gamma = bounds.dad_gamma(n, sigma2, req.eps_fa, M)
    pfa_ub, pmd_ub = bounds.dad_error_bounds(n, sigma2, gamma, M)
    rows.append(_row("dad", "achievability", n, cfg.es_n0_db, gamma, flag="gamma"))
    rows.append(_row("dad", "achievability", n, cfg.es_n0_db, pfa_ub, flag="pfa-ub"))
    rows.append(_row("dad", "achievability", n, cfg.es_n0_db, pmd_ub, flag="pmd-ub"))
    (M_max,) = _bound_values(cfg, [(sigma2, n, "dad-max-M", req)])
    rows.append(_row("dad", "achievability", n, cfg.es_n0_db, M_max, flag="max-code-size"))
    return rows


def run_with_manifest(runner, cfg, out_dir, name):
    """Run runner(cfg); write its rows and cfg.refs' to out_dir/<name>.csv, and the manifest.

    The manifest's key=value lines list the command, every config field in
    field order (tuples comma-joined, so its config lines parse back to
    `cfg`), the derived calibration trials, the timing and the time written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    refs = [r for ref in cfg.refs for r in ingest_reference(ref)]
    csv_path = write_rows(runner(cfg) + refs, out / f"{name}.csv")
    manifest = {"command": name}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        manifest[f.name] = ",".join(map(str, value)) if isinstance(value, tuple) else value
    manifest["calibration_trials"] = cfg.calibration_trials()
    manifest["wall_time_s"] = f"{time.time() - started:.3f}"
    manifest["written_unix"] = f"{time.time():.3f}"
    (out / f"{name}.manifest.txt").write_text("".join(f"{k}={v}\n" for k, v in manifest.items()))
    return csv_path
