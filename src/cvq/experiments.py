"""Named experiments reproducing the thesis-style figure data as CSV.

Each experiment is a pure function (profile, params) -> (columns, meta)
where ``columns`` is an ordered mapping column-name -> 1-D array.  The
``fast`` profile coarsens grids so every experiment finishes within a
minute; ``paper`` keeps the tolerances used by the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import amplifiers as amp
from . import binary, detectors, gaussian, kor, mary, qkd

REGISTRY = {}


def experiment(eid, description):
    def wrap(fn):
        REGISTRY[eid] = (fn, description)
        return fn

    return wrap


def list_experiments(filter_text=""):
    return {
        eid: desc
        for eid, (fn, desc) in sorted(REGISTRY.items())
        if filter_text.lower() in eid.lower()
    }


def run_experiment(eid, profile="paper", params=None):
    if eid not in REGISTRY:
        raise KeyError(eid)
    fn, _ = REGISTRY[eid]
    return fn(profile, params or {})


def _grid(profile, params, key, lo, hi, n_paper, n_fast):
    n = int(params.get(key, n_fast if profile == "fast" else n_paper))
    return np.linspace(lo, hi, n)


@experiment("bpsk-curves", "BPSK receiver error probabilities vs pulse energy "
                           "(discrimination-bound figure family)")
def bpsk_curves(profile, params):
    a2 = _grid(profile, params, "points", 0.02, float(params.get("a2_max", 2.0)), 60, 15)

    def row(x):
        sc = binary.BpskScenario(x)
        hel = binary.helstrom(sc)
        sql = binary.sql(sc)
        pk = binary.kennedy_family(sc, "nulling").p_err
        pik = binary.kennedy_family(sc, "improved").p_err
        phy = binary.hynore(sc, detection="homodyne").p_err
        return hel, sql, pk, pik, phy

    rows = np.array([row(a) for a in a2])
    cols = {
        "alpha2": a2,
        "P_Hel": rows[:, 0],
        "P_SQL": rows[:, 1],
        "P_K": rows[:, 2],
        "P_IK": rows[:, 3],
        "P_HY": rows[:, 4],
    }
    return cols, {}


@experiment("bpsk-imperfect", "DPNR vs HYNORE under dark counts or reduced "
                              "visibility (imperfect-receiver figure family)")
def bpsk_imperfect(profile, params):
    m = int(params.get("resolution", 3))
    nu = float(params.get("nu", 1e-3))
    xi = float(params.get("xi", 1.0))
    a2 = _grid(profile, params, "points", 0.05, float(params.get("a2_max", 6.0)), 40, 10)
    grid = 21 if profile == "fast" else 41
    spec = detectors.PnrSpec(resolution=m, nu=nu, xi=xi)

    def row(x):
        sc = binary.BpskScenario(x, spec=spec)
        pd = binary.kennedy_family(sc, "dpnr").p_err
        phy = binary.hynore(sc, grid=grid).p_err
        return pd, phy, binary.sql(binary.BpskScenario(x))

    rows = np.array([row(a) for a in a2])
    return {
        "alpha2": a2,
        "P_DPNR": rows[:, 0],
        "P_HY": rows[:, 1],
        "P_SQL": rows[:, 2],
    }, {}


@experiment("qpsk-disc", "QPSK discrimination: PGM bound, double-homodyne SQL, "
                         "Bondurant and displacement receivers")
def qpsk_disc(profile, params):
    a2 = _grid(profile, params, "points", 0.05, float(params.get("a2_max", 6.0)), 50, 12)
    n_ff = int(params.get("copies", 16 if profile == "fast" else 64))

    def row(x):
        pmin = mary.pgm_error(4, x)
        sql = mary.qpsk_sql(x)
        b1 = mary.bondurant(x, "I")
        b2 = mary.bondurant(x, "II")
        qd = mary.qdre(x, "optimized").p_err
        _, qdf = mary.qdffre(x, n_ff)
        return pmin, sql, b1, b2, qd, qdf

    rows = np.array([row(a) for a in a2])
    return {
        "alpha2": a2,
        "P_min": rows[:, 0],
        "P_SQL": rows[:, 1],
        "P_Bon_I": rows[:, 2],
        "P_Bon_II": rows[:, 3],
        "P_QDRE": rows[:, 4],
        "P_QDFFRE": rows[:, 5],
    }, {}


@experiment("capacities", "Shannon and Gordon-Holevo capacities of the "
                          "thermal-loss channel vs received energy")
def capacities(profile, params):
    n_n = float(params.get("n_noise", 0.0))
    n_s = np.exp(np.linspace(math.log(1e-2), math.log(100.0),
                             20 if profile == "fast" else 80))
    rows = np.array([
        [c["C_SH"], c["C_DH"], c["C_H"]]
        for c in (gaussian.classical_capacities(x, n_n) for x in n_s)
    ])
    return {
        "n_S": n_s,
        "C_SH": rows[:, 0],
        "C_DH": rows[:, 1],
        "C_H": rows[:, 2],
    }, {}


def _distance_grid(profile, params, d_max=200.0, n_paper=40, n_fast=10):
    lo = float(params.get("d_min", 1.0))
    hi = float(params.get("d_max", d_max))
    return _grid(profile, params, "points", lo, hi, n_paper, n_fast)


@experiment("gg02-kgr", "GG02 key rate and optimal modulation vs distance")
def gg02_kgr_exp(profile, params):
    eps = float(params.get("eps", 0.03))
    beta = float(params.get("beta", 0.95))
    kappa = float(params.get("kappa", 0.2))
    ds = _distance_grid(profile, params, d_max=320.0)

    def row(d):
        r = qkd.gg02_kgr(qkd.ChannelParams.from_distance(d, eps, kappa), beta)
        return r.K, r.params["V"]

    rows = np.array([row(d) for d in ds])
    return {"d_km": ds, "K": rows[:, 0], "V_opt": rows[:, 1]}, {}


@experiment("psk-kgr", "PSK(M) key rate vs distance under the Gaussian bound")
def psk_kgr_exp(profile, params):
    eps = float(params.get("eps", 0.01))
    beta = float(params.get("beta", 0.95))
    order = params.get("order", 4)
    order = order if order == "inf" else int(order)
    ds = _distance_grid(profile, params, d_max=120.0, n_paper=25, n_fast=8)

    def row(d):
        r = qkd.psk_kgr(order, qkd.ChannelParams.from_distance(d, eps), beta)
        return r.K, r.params["alpha2"]

    rows = np.array([row(d) for d in ds])
    return {"d_km": ds, "K": rows[:, 0], "alpha2_opt": rows[:, 1]}, {}


@experiment("qam-kgr", "QAM key rate with uniform or Maxwell-Boltzmann "
                       "sampling vs distance")
def qam_kgr_exp(profile, params):
    eps = float(params.get("eps", 0.01))
    beta = float(params.get("beta", 0.95))
    side = int(params.get("side", 8))
    sampling = str(params.get("sampling", "MB"))
    ds = _distance_grid(profile, params, d_max=100.0, n_paper=12, n_fast=5)

    def row(d):
        r = qkd.qam_kgr(side, qkd.ChannelParams.from_distance(d, eps), beta,
                        sampling=sampling)
        rg = qkd.gg02_kgr(qkd.ChannelParams.from_distance(d, eps), beta)
        return r.K, r.params["nbar"], r.params["xi"], rg.K

    rows = np.array([row(d) for d in ds])
    return {
        "d_km": ds,
        "K": rows[:, 0],
        "nbar_opt": rows[:, 1],
        "xi_opt": rows[:, 2],
        "K_GG02": rows[:, 3],
    }, {}


@experiment("trusted-qpsk", "QPSK key rate under the three detection trust "
                            "levels")
def trusted_qpsk_exp(profile, params):
    eps_ch = float(params.get("eps_ch", 0.01))
    eps_d = float(params.get("eps_d", 0.01))
    eta = float(params.get("eta", 0.7))
    beta = float(params.get("beta", 0.95))
    ds = _distance_grid(profile, params, d_max=120.0, n_paper=20, n_fast=6)

    def row(d):
        ch = qkd.ChannelParams.from_distance(d, eps_ch)
        out = []
        for tag in ("uL;uN", "tL;uN", "tL;tN"):
            sc = qkd.TrustScenario(tag, eta=eta, eps_d=eps_d)
            out.append(qkd.trusted_qpsk_kgr(ch, beta, sc).K)
        return out

    rows = np.array([row(d) for d in ds])
    return {
        "d_km": ds,
        "K_uLuN": rows[:, 0],
        "K_tLuN": rows[:, 1],
        "K_tLtN": rows[:, 2],
    }, {}


@experiment("wiretap-qpsk", "QPSK key rate over the thermal-loss wiretap "
                            "channel vs the unconditional bound")
def wiretap_qpsk_exp(profile, params):
    eps = float(params.get("eps", 0.02))
    beta = float(params.get("beta", 0.95))
    nodes = 101 if profile == "fast" else 201
    ds = _distance_grid(profile, params, d_max=80.0, n_paper=8, n_fast=4)

    def row(d):
        ch = qkd.ChannelParams.from_distance(d, eps)
        kw = qkd.wiretap_qpsk_kgr(ch, beta, "thermal", n_nodes=nodes)
        ku = qkd.psk_kgr(4, ch, beta)
        return kw.K, ku.K

    rows = np.array([row(d) for d in ds])
    return {"d_km": ds, "K_wiretap": rows[:, 0], "K_unconditional": rows[:, 1]}, {}


@experiment("multispan-unconditional", "PSA multi-span link key rate under "
                                       "unconditional security")
def multispan_unc_exp(profile, params):
    eps = float(params.get("eps", 0.05))
    beta = float(params.get("beta", 0.95))
    m_spans = int(params.get("m_spans", 10))
    ds = _distance_grid(profile, params, d_max=160.0, n_paper=12, n_fast=5)

    def row(d):
        lk = amp.SpanLink(m_spans, d, eps, kind="psa")
        rb = amp.multispan_kgr_unconditional(lk, beta, case="IIb")
        ra = amp.multispan_kgr_unconditional(lk, beta, case="IIa")
        return rb.K, rb.params["G"], ra.params["G"], ra.params["K_G1"]

    rows = np.array([row(d) for d in ds])
    return {
        "d_km": ds,
        "K_IIb": rows[:, 0],
        "G_IIb": rows[:, 1],
        "G_IIa": rows[:, 2],
        "K_noamp": rows[:, 3],
    }, {}


@experiment("multispan-conditional", "Single-untrusted-span key ratios vs "
                                     "attacked position")
def multispan_cond_exp(profile, params):
    eps = float(params.get("eps", 0.05))
    beta = float(params.get("beta", 0.95))
    m_spans = int(params.get("m_spans", 5))
    d = float(params.get("d", 120.0))
    ks = np.arange(1, m_spans + 1)

    def row(k):
        out = []
        for kind, case in (("pia", "I"), ("psa", "IIa"), ("psa", "IIb")):
            lk = amp.SpanLink(m_spans, d, eps, kind=kind)
            rc = amp.multispan_kgr_conditional(lk, beta, int(k), case=case)
            k_g1 = rc.params["K_G1"]
            out.append(rc.K / k_g1 if k_g1 > 0 else math.nan)
        return out

    rows = np.array([row(k) for k in ks])
    return {
        "k": ks.astype(float),
        "ratio_I": rows[:, 0],
        "ratio_IIa": rows[:, 1],
        "ratio_IIb": rows[:, 2],
    }, {}


@experiment("nla-kgr", "NLA-assisted GG02 key rates (ideal, QS, SPC) vs "
                       "distance")
def nla_kgr_exp(profile, params):
    eps = float(params.get("eps", 0.03))
    beta = float(params.get("beta", 0.95))
    eta = float(params.get("eta", 1.0))
    gain = params.get("g", "opt")
    gain = None if gain in ("opt", None) else float(gain)
    ds = _distance_grid(profile, params, d_max=420.0, n_paper=15, n_fast=5)

    def row(d):
        ch = qkd.ChannelParams.from_distance(d, eps)
        kg = qkd.gg02_kgr(ch, beta).K
        vals = [
            amp.nla_kgr(kind, ch, beta, gain=gain, eta=eta).K
            for kind in ("ideal", "QS", "SPC")
        ]
        kp, _ = amp.plob(ch.T, ch.nbar_T)
        return [kg] + vals + [kp]

    rows = np.array([row(d) for d in ds])
    return {
        "d_km": ds,
        "K_GG02": rows[:, 0],
        "K_ideal": rows[:, 1],
        "K_QS": rows[:, 2],
        "K_SPC": rows[:, 3],
        "K_PLOB": rows[:, 4],
    }, {}


@experiment("plob-bound", "Repeaterless secret-key capacity vs distance")
def plob_exp(profile, params):
    eps = float(params.get("eps", 0.0))
    ds = _distance_grid(profile, params, d_max=300.0, n_paper=60, n_fast=15)
    ks = []
    for d in ds:
        ch = qkd.ChannelParams.from_distance(d, eps)
        k, _ = amp.plob(ch.T, ch.nbar_T)
        ks.append(k)
    return {"d_km": ds, "K_PLOB": np.array(ks)}, {}


@experiment("kor-ratio", "Discrimination-receiver key rates (DH, PGM, KOR) "
                         "and their ratios vs distance")
def kor_ratio_exp(profile, params):
    beta = float(params.get("beta", 0.95))
    lattice = 8 if profile == "fast" else 16
    ds = _distance_grid(profile, params, d_max=150.0, n_paper=16, n_fast=6)

    def row(d):
        t = 10.0 ** (-0.2 * d / 10.0)
        rdh = kor.dh_rate(t, beta)
        rpgm = kor.optimize_kor(t, beta, mode="PGM")
        rkor = kor.optimize_kor(t, beta, mode="KOR", lattice=lattice)
        ph = kor.canonical_phases(rkor.params["phases"])
        return [rdh.K, rpgm.K, rkor.K, *ph[1:], rkor.params["alpha2"]]

    rows = np.array([row(d) for d in ds])
    return {
        "d_km": ds,
        "K_DH": rows[:, 0],
        "K_PGM": rows[:, 1],
        "K_KOR": rows[:, 2],
        "phi1": rows[:, 3],
        "phi2": rows[:, 4],
        "phi3": rows[:, 5],
        "alpha2_KOR": rows[:, 6],
    }, {}


@experiment("kor-wigner", "Wigner function of the optimized reference "
                          "measurement vector on a quadrature grid")
def kor_wigner_exp(profile, params):
    d = float(params.get("d", 30.0))
    alpha2 = float(params.get("alpha2", 1.0))
    t = 10.0 ** (-0.2 * d / 10.0)
    phases = [0.0, math.pi / 2, math.pi, math.pi / 2]
    if str(params.get("phases", "kor")) == "pgm":
        phases = [0.0, 0.0, 0.0, 0.0]
    n = 41 if profile == "fast" else 81
    lim = float(params.get("window", 4.0))
    qs = np.linspace(-lim, lim, n)
    w = kor.measurement_wigner(phases, alpha2, t, qs, qs)
    qq, pp = np.meshgrid(qs, qs, indexing="ij")
    return {
        "q": qq.ravel(),
        "p": pp.ravel(),
        "W": w.ravel(),
    }, {"negativity": float(w.min())}
