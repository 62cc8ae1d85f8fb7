"""Desk-scale pre-norm transformer with fully manual backprop.

The model exists to exercise the normalization layers' hand-derived
gradients inside a real architecture, so nothing here touches an autodiff
framework. Token plus learned positional embeddings feed a stack of
causal-attention/FFN blocks with norms at the attention input, the query and
key projections, the FFN input, and the final output. The residual stream
is one (batch*time, dim) matrix from the embedding to the logits, each
sequence's positions in consecutive rows, and every norm slot and the FFN
take it as it is; only attention views it as (batch, time, ...). Per-head
query/key norms share one parameter vector of width dim/heads across every
attention head.

Every function of a step takes an optional buffer source ``ws`` and passes
it on (see ``core.Workspace``). A training loop hands one workspace to every
step, so the step's large arrays are allocated once. Arrays that must live
on, a layer's forward cache and a parameter's gradient, are named after
their layer or parameter. Scratch, used only while one function runs, is
named after its role alone, so each block reuses the scratch of the one
before. A backward also writes into arrays of its own layer's forward once
it has read them for the last time: a norm slot's output, the FFN's h1,
attention's oc and v, and the logits. With the default every array is
fresh.

The FFN's GELU is the exact, erf-based one. ``_erf`` computes its erf in
NumPy with Cephes' algorithm, the one ``scipy.special.erf`` runs, and
returns the same bits, so the library needs no SciPy.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import ClassVar

import numpy as np

# The norm slots call these through this module (see _LAYER_FNS), so a test
# or a tracer can swap one here.
from .backward import (  # noqa: F401
    dyt_backward,
    layernorm_backward,
    mh_seednorm_backward,
    rmsnorm_backward,
    seednorm_backward,
)
from .core import FRESH, NonFiniteError, mapped_zeros, require_finite
from .forward import (  # noqa: F401
    dyt_forward,
    layernorm_forward,
    mh_seednorm_forward,
    rmsnorm_forward,
    seednorm_forward,
)
from .norms import NORMS, NormSpec
from .params import NormParams


@dataclass
class ModelConfig:
    layers: int = 2
    hidden_dim: int = 64
    attn_heads: int = 4
    vocab: int = 17
    context: int = 16
    norm_variant: str = "seednorm"  # a key of NORMS
    norm_heads: int = 1
    alpha_init: float = 1.0
    ffn_mult: ClassVar[int] = 4  # FFN width over hidden_dim; fixed, not a setting

    def __post_init__(self):
        if self.norm_variant not in tuple(NORMS):  # a tuple: no hashing, no TypeError
            raise ValueError(f"norm_variant must be one of {', '.join(NORMS)}, "
                             f"got {self.norm_variant!r}")
        if self.layers < 1 or self.hidden_dim < 1:
            raise ValueError("layers and hidden_dim must be >= 1")
        if self.attn_heads < 1 or self.hidden_dim % self.attn_heads != 0:
            raise ValueError("attn_heads must be >= 1 and divide hidden_dim")
        if self.norm.multi_head:
            if self.norm_heads < 1 or self.hidden_dim % self.norm_heads != 0:
                raise ValueError("norm_heads must be >= 1 and divide hidden_dim")
        if self.vocab < 2 or self.context < 2:
            raise ValueError("vocab and context must be >= 2")
        if not math.isfinite(self.alpha_init):
            raise ValueError(f"alpha_init must be finite, got {self.alpha_init}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.attn_heads

    @property
    def norm(self) -> NormSpec:
        """The variant table's row for this model's norm layers."""
        return NORMS[self.norm_variant]


def _hidden_slot_heads(cfg: ModelConfig) -> int:
    return cfg.norm_heads if cfg.norm.multi_head else 1


def _norm_param_entries(prefix: str, width: int, norm: NormSpec):
    return [
        (f"{prefix}.{suffix}", () if field == "alpha" and norm.scalar_alpha else (width,))
        for suffix, field in norm.params
    ]


def _stack_specs(cfg: ModelConfig) -> tuple[tuple, tuple, tuple]:
    """The (name, shape) entries before the layers, one layer's and those after them."""
    return _stack_entries(cfg.vocab, cfg.context, cfg.hidden_dim, cfg.head_dim, cfg.norm_variant)


@lru_cache(maxsize=64)
def _stack_entries(vocab: int, context: int, d: int, head_dim: int,
                   variant: str) -> tuple[tuple, tuple, tuple]:
    # cached: every build counts and lists them; layer names omit "layer<i>."
    norm, f = NORMS[variant], ModelConfig.ffn_mult * d
    layer = (*_norm_param_entries("attn_norm", d, norm),
             *((f"attn.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo")),
             *_norm_param_entries("q_norm", head_dim, norm),
             *_norm_param_entries("k_norm", head_dim, norm),
             *_norm_param_entries("ffn_norm", d, norm), ("ffn.w1", (d, f)), ("ffn.w2", (f, d)))
    return ((("embed.weight", (vocab, d)), ("pos_embed.weight", (context, d))), layer,
            (*_norm_param_entries("final_norm", d, norm), ("unembed.weight", (d, vocab))))


def parameter_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; defines build, count, and serialization order."""
    head, layer, tail = _stack_specs(cfg)
    specs = list(head)
    for i in range(cfg.layers):
        specs += [(f"layer{i}.{name}", shape) for name, shape in layer]
    return specs + list(tail)


def count_parameters(cfg: ModelConfig) -> int:
    """Total parameter count in closed form: no depth lists its layers."""
    head, layer, tail = _stack_specs(cfg)
    return (sum(math.prod(shape) for _, shape in head + tail)
            + cfg.layers * sum(math.prod(shape) for _, shape in layer))


@dataclass
class Model:
    cfg: ModelConfig
    params: dict = field(default_factory=dict)


def _parameter_views(cfg: ModelConfig) -> dict:
    """Every parameter as a zeroed view of one buffer, in canonical order.

    The buffer, a ``mapped_zeros`` vector, is allocated before any parameter
    is listed: a model past memory fails at once, at any depth.
    """
    count = count_parameters(cfg)
    try:
        flat = mapped_zeros(count)
    except MemoryError:
        raise MemoryError(f"Unable to allocate {count} parameters ({count / 2**27:.1f} GiB) "
                          f"for {cfg.layers} layers of width {cfg.hidden_dim}") from None
    params, at = {}, 0
    for name, shape in parameter_specs(cfg):
        size = math.prod(shape)
        w = flat[at:at + size]  # a vector is its slice: only the rest pay for a reshape
        params[name] = w if len(shape) == 1 else w.reshape(shape)
        at += size
    return params


def build_model(cfg: ModelConfig, rng: np.random.Generator) -> Model:
    """Materialize parameters in canonical order, as views of one buffer.

    Norm parameters initialize deterministically (gamma 1, beta 0, alpha
    alpha_init, shift 0) and consume no random draws, so two variants built
    from equal seeds share bitwise-identical weight matrices.
    """
    params = _parameter_views(cfg)
    res_scale = 1.0 / np.sqrt(2.0 * cfg.layers)
    inits = {"gamma": 1.0, "beta": 0.0, "shift": 0.0, "alpha": cfg.alpha_init}
    for name, w in params.items():
        init = inits.get(name.rpartition(".")[2])
        if init is not None:
            w.fill(init)
        else:
            w[...] = rng.normal(0.0, 0.02, size=w.shape)
            if name.endswith((".attn.wo", ".ffn.w2")):
                w *= res_scale
    return Model(cfg=cfg, params=params)


_LAYER_FNS = sys.modules[__name__]


def _slot_forward(params: dict, cfg: ModelConfig, prefix: str, rows, n_heads: int, ws=FRESH):
    forward = getattr(_LAYER_FNS, f"{cfg.norm_variant}_forward")
    try:
        p = NormParams(*cfg.norm.arrays(params, prefix), n_heads=n_heads)
        return forward(rows, p, ws.scope(prefix))
    except NonFiniteError as exc:
        exc.slot, exc.direction = prefix, "forward"
        raise


def _slot_backward(params: dict, cfg: ModelConfig, prefix: str, cache, upstream, grads: dict,
                   ws=FRESH):
    """The slot's input gradient; its parameter gradients go into ``grads``.
    In a workspace the input gradient overwrites the slot's forward output."""
    backward = getattr(_LAYER_FNS, f"{cfg.norm_variant}_backward")
    try:
        b = backward(cache, upstream, ws.scope(prefix))
    except NonFiniteError as exc:
        exc.slot, exc.direction = prefix, "backward"
        raise
    grads.update(cfg.norm.grads(prefix, b))
    return b.d_x


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes' erf and erfc (ndtr.c), the coefficients scipy.special.erf uses:
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1; past 1, erf(x) = +-(1 - erfc(|x|))
# with erfc(a) = exp(-a^2) P(a) / Q(a), and 0 once -a^2 < -MAXLOG. From
# a = 8 on Cephes' erfc takes R(a) / S(a) instead of P / Q, but erf needs no
# R / S: both lie in [0.018, 0.07] from 8 to sqrt(MAXLOG), so erfc(a) is
# below 1.2e-29 with either, far under half an ulp of 1, and 1 - erfc(a)
# rounds to exactly 1.
# U and Q are monic, their leading 1 left out, as p1evl expects.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_MAXLOG = 7.09782712893383996843E2  # exp(-a^2) underflows past this
# The |x| <= 1 rational runs over blocks of this many elements, so its three
# scratch arrays stay under 1 MB whatever the input's size.
_ERF_BLOCK = 32768


def _horner(x, coef, monic, out=None):
    """Cephes' polevl (``monic`` False) or p1evl (True, leading 1 implied) at
    ``x``, written into ``out`` when given: ((c0 x + c1) x + c2) ...,
    rounding after each multiply and each add, in Cephes' order."""
    if monic:
        out = np.add(x, coef[0], out=out)
    else:
        out = np.multiply(x, coef[0], out=out)
        out += coef[1]
        coef = coef[1:]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erfc_tail(x):
    """erf of the elements past |x| = 1, a small gathered array. The
    exponential is NumPy's complex exp, which calls the C library's ``cexp``;
    on a real argument that returns the C library's exp, the one Cephes
    calls, where NumPy's float exp differs from it in the last bit for some
    arguments."""
    a = np.abs(x)
    z = np.negative(a)
    z *= a
    p = _horner(a, _ERFC_P, False)
    q = _horner(a, _ERFC_Q, True)
    np.multiply(np.exp(z, dtype=np.complex128).real, p, out=p)
    p /= q
    p[z < -_MAXLOG] = 0.0
    np.subtract(1.0, p, out=p)
    return np.copysign(p, x, out=p)


def _erf(x, out, ws=FRESH):
    """erf of a C-contiguous float64 array, bit for bit what
    ``scipy.special.erf`` returns: Cephes' algorithm, the same operations in
    the same order, less the R / S rational that cannot change erf. Written
    into ``out``, a C-contiguous array shaped like ``x``, which may be ``x``
    itself; scratch comes from ``ws.shared``."""
    xf, of = x.reshape(-1), out.reshape(-1)
    m = min(xf.size, _ERF_BLOCK)
    z, num, den = (ws.shared(f"erf.{n}", (m,)) for n in ("z", "num", "den"))
    # overflow in x^2 and inf / inf only reach elements the tail overwrites
    with np.errstate(all="ignore"):
        for start in range(0, xf.size, _ERF_BLOCK):
            xb, ob = xf[start:start + _ERF_BLOCK], of[start:start + _ERF_BLOCK]
            n = xb.size
            zb, nb, db = z[:n], num[:n], den[:n]
            tail = np.flatnonzero(np.abs(xb, out=zb) > 1.0)
            tail_erf = _erfc_tail(xb[tail]) if tail.size else None
            np.multiply(xb, xb, out=zb)
            _horner(zb, _ERF_T, False, nb)
            _horner(zb, _ERF_U, True, db)
            nb *= xb
            np.divide(nb, db, out=ob)
            if tail_erf is not None:
                ob[tail] = tail_erf
    return out


def _gelu_cdf(z, out=None, ws=FRESH):
    """Standard normal CDF Phi(z) = (1 + erf(z / sqrt 2)) / 2, written into
    ``out`` when given. The FFN's GELU is the exact, erf-based z * Phi(z),
    smooth everywhere, which keeps the whole-model finite-difference check
    clean; ``_erf`` computes its erf with scratch from ``ws``."""
    cdf = np.multiply(z, _INV_SQRT2, out=out)
    _erf(cdf, cdf, ws)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_prime_from_cdf(z, cdf, out=None):
    """d GELU / dz = Phi(z) + z * phi(z), given Phi(z); written into ``out``,
    an array shaped like ``z``, when one is given."""
    g = np.multiply(z, -0.5, out=out)
    g *= z
    np.exp(g, out=g)
    g *= z
    g *= _INV_SQRT_2PI
    g += cdf
    return g


def softmax_cross_entropy(logits, targets, ws=FRESH):
    """Mean cross-entropy over rows plus d loss / d logits.

    d loss / d logits is ``ws``'s array "logits": in a workspace it
    overwrites the logits that ``model_forward`` left there.
    """
    rows = logits.shape[0]
    idx = np.arange(rows)
    picked = logits[idx, targets]
    m = logits.max(axis=1, keepdims=True)
    ex = np.subtract(logits, m, out=ws.out("logits", logits.shape))
    np.exp(ex, out=ex)
    z = ex.sum(axis=1, keepdims=True)
    log_z = np.log(z) + m
    loss = float(np.mean(log_z.ravel() - picked))
    dlogits = ex
    dlogits /= z
    dlogits[idx, targets] -= 1.0
    dlogits /= rows
    return loss, dlogits


def _note(sites, name, arr):
    if sites is not None:
        sites.append((name, bool(np.all(np.isfinite(arr)))))


def _grad(ws, name: str, params: dict) -> np.ndarray | None:
    """The ``out=`` target of the gradient of parameter ``name``."""
    return ws.out(f"grad.{name}", params[name].shape)


def _head_rows(a, b: int, t: int, heads: int, out):
    """(b*t, heads*hd) rows -> (b*heads*t, hd), one row per head and position,
    each head's positions contiguous; written into ``out``."""
    hd = out.shape[-1]
    np.copyto(out.reshape(b, heads, t, hd), a.reshape(b, t, heads, hd).transpose(0, 2, 1, 3))
    return out


def _merge_heads(a, b: int, t: int, heads: int, out):
    """The inverse of ``_head_rows``: (b, heads, t, hd) or (b*heads*t, hd) ->
    (b*t, heads*hd), written into ``out``."""
    hd = out.shape[-1] // heads
    np.copyto(out.reshape(b, t, heads, hd), a.reshape(b, heads, t, hd).transpose(0, 2, 1, 3))
    return out


def _attn_forward(params, cfg, pfx, x2, t, sites=None, ws=FRESH):
    """Causal self-attention over the rows ``x2``, (b*t, d): ``t`` is the
    sequence length, each sequence's t positions consecutive rows. Returns
    the output rows and the cache, whose "shape" is that (b, t, d)."""
    rows, d = x2.shape
    b = rows // t
    heads, hd = cfg.attn_heads, cfg.head_dim
    lw = ws.scope(f"{pfx}.attn")
    # Each head's query/key slice is one row of a single-head norm at
    # head_dim width; the reduced width keeps the coefficient variance small.
    proj = ws.shared("attn.proj", (b * t, d))
    q_rows = _head_rows(np.matmul(x2, params[f"{pfx}.attn.wq"], out=proj), b, t, heads,
                        lw.empty("q_rows", (b * heads * t, hd)))
    k_rows = _head_rows(np.matmul(x2, params[f"{pfx}.attn.wk"], out=proj), b, t, heads,
                        lw.empty("k_rows", (b * heads * t, hd)))
    v = np.matmul(x2, params[f"{pfx}.attn.wv"], out=lw.out("v", (b * t, d)))
    qn_rows, q_cache = _slot_forward(params, cfg, f"{pfx}.q_norm", q_rows, 1, ws)
    kn_rows, k_cache = _slot_forward(params, cfg, f"{pfx}.k_norm", k_rows, 1, ws)
    qn = qn_rows.reshape(b, heads, t, hd)
    kn = kn_rows.reshape(b, heads, t, hd)
    vh = v.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
    inv_scale = 1.0 / np.sqrt(hd)
    # scores, masked, then turned into the softmax in place
    att = np.matmul(qn, kn.swapaxes(-1, -2), out=lw.out("att", (b, heads, t, t)))
    att *= inv_scale
    np.copyto(att, -np.inf, where=np.triu(np.ones((t, t), dtype=bool), k=1))
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    _note(sites, f"{pfx}.attn.softmax", att)
    o = np.matmul(att, vh, out=ws.shared("attn.heads", (b, heads, t, hd)))
    oc = _merge_heads(o, b, t, heads, lw.empty("oc", (b * t, d)))
    out = np.matmul(oc, params[f"{pfx}.attn.wo"], out=lw.out("out", (b * t, d)))
    cache = {
        "x2": x2, "qn": qn, "kn": kn, "vh": vh, "att": att, "oc": oc,
        "q_cache": q_cache, "k_cache": k_cache, "shape": (b, t, d),
    }
    return out, cache


def _attn_backward(params, cfg, pfx, cache, dout, grads, ws=FRESH):
    """The input rows' gradient; the gradients of its four matrices and its
    query/key norms go into ``grads``.

    In a workspace, several intermediates overwrite an array of this layer's
    forward that the backward has read for the last time: the cached ``oc``
    and ``v``, and the scratch of the forward's projections and heads.
    """
    b, t, d = cache["shape"]
    heads, hd = cfg.attn_heads, cfg.head_dim
    lw = ws.scope(f"{pfx}.attn")
    names = {w: f"{pfx}.attn.{w}" for w in ("wq", "wk", "wv", "wo")}
    wq, wk, wv, wo = (params[names[w]] for w in ("wq", "wk", "wv", "wo"))
    att, vh, qn, kn = cache["att"], cache["vh"], cache["qn"], cache["kn"]
    grads[names["wo"]] = np.matmul(cache["oc"].T, dout, out=_grad(ws, names["wo"], params))
    d_oc = np.matmul(dout, wo.T, out=lw.out("oc", (b * t, d)))
    do = d_oc.reshape(b, t, heads, hd).transpose(0, 2, 1, 3)
    datt = np.matmul(do, vh.swapaxes(-1, -2), out=ws.shared("attn_backward.datt", att.shape))
    dvh = np.matmul(att.swapaxes(-1, -2), do, out=ws.shared("attn.heads", vh.shape))
    dv = _merge_heads(dvh, b, t, heads, lw.empty("v", (b * t, d)))
    # softmax backward, in place: dscores = att * (datt - sum(datt * att))
    dscores = datt
    datt_att = np.multiply(datt, att, out=ws.shared("attn_backward.datt_att", att.shape))
    dscores -= datt_att.sum(axis=-1, keepdims=True)
    dscores *= att
    inv_scale = 1.0 / np.sqrt(hd)
    dqn = np.matmul(dscores, kn, out=ws.shared("attn.heads", qn.shape))
    dqn *= inv_scale
    dkn = np.matmul(dscores.swapaxes(-1, -2), qn,
                    out=lw.empty("oc", (b * t, d)).reshape(kn.shape))
    dkn *= inv_scale
    dqn_rows = dqn.reshape(b * heads * t, hd)
    dkn_rows = dkn.reshape(b * heads * t, hd)
    dq_rows = _slot_backward(params, cfg, f"{pfx}.q_norm", cache["q_cache"], dqn_rows, grads, ws)
    dk_rows = _slot_backward(params, cfg, f"{pfx}.k_norm", cache["k_cache"], dkn_rows, grads, ws)
    dq = _merge_heads(dq_rows, b, t, heads, ws.shared("attn.proj", (b * t, d)))
    dk = _merge_heads(dk_rows, b, t, heads, lw.empty("oc", (b * t, d)))
    x2 = cache["x2"]
    for w, dw in (("wq", dq), ("wk", dk), ("wv", dv)):
        grads[names[w]] = np.matmul(x2.T, dw, out=_grad(ws, names[w], params))
    dx2 = np.matmul(dq, wq.T, out=ws.shared("attn_backward.dx", (b * t, d)))
    part = np.matmul(dk, wk.T, out=dq)
    dx2 += part
    dx2 += np.matmul(dv, wv.T, out=part)
    return dx2


def _ffn_forward(params, pfx, rows, ws=FRESH):
    lw = ws.scope(f"{pfx}.ffn")
    w1, w2 = params[f"{pfx}.ffn.w1"], params[f"{pfx}.ffn.w2"]
    h1 = np.matmul(rows, w1, out=lw.out("h1", (rows.shape[0], w1.shape[1])))
    cdf = _gelu_cdf(h1, out=lw.out("cdf", h1.shape), ws=ws)
    act = np.multiply(h1, cdf, out=ws.shared("ffn.act", h1.shape))
    out = np.matmul(act, w2, out=lw.out("out", (rows.shape[0], w2.shape[1])))
    # Phi(h1) serves the backward's GELU and its derivative, so the cache
    # keeps it instead of the activation, which is one multiply away.
    return out, {"rows": rows, "h1": h1, "cdf": cdf}


def _ffn_backward(params, pfx, cache, dout, grads, ws=FRESH):
    """The rows' gradient; the gradients of w2 and w1 go into ``grads``."""
    lw = ws.scope(f"{pfx}.ffn")
    n1, n2 = f"{pfx}.ffn.w1", f"{pfx}.ffn.w2"
    w1, w2 = params[n1], params[n2]
    h1, cdf = cache["h1"], cache["cdf"]
    act = np.multiply(h1, cdf, out=ws.shared("ffn.act", h1.shape))
    grads[n2] = np.matmul(act.T, dout, out=_grad(ws, n2, params))
    gelu_prime = _gelu_prime_from_cdf(h1, cdf, out=act)
    # dact, times GELU' in place; in a workspace it overwrites h1, read last above
    dh1 = np.matmul(dout, w2.T, out=lw.out("h1", h1.shape))
    dh1 *= gelu_prime
    grads[n1] = np.matmul(cache["rows"].T, dh1, out=_grad(ws, n1, params))
    d_rows = np.matmul(dh1, w1.T, out=ws.shared("ffn_backward.d_rows", dout.shape))
    return d_rows


def _block_forward(params, cfg, i, x, t, sites=None, ws=FRESH):
    pfx = f"layer{i}"
    hidden_heads = _hidden_slot_heads(cfg)
    na, c_an = _slot_forward(params, cfg, f"{pfx}.attn_norm", x, hidden_heads, ws)
    _note(sites, f"{pfx}.attn_norm", na)
    attn_out, c_attn = _attn_forward(params, cfg, pfx, na, t, sites, ws)
    _note(sites, f"{pfx}.attn", attn_out)
    h = np.add(x, attn_out, out=attn_out)
    nf, c_fn = _slot_forward(params, cfg, f"{pfx}.ffn_norm", h, hidden_heads, ws)
    _note(sites, f"{pfx}.ffn_norm", nf)
    ffn_out, c_ffn = _ffn_forward(params, pfx, nf, ws)
    _note(sites, f"{pfx}.ffn", ffn_out)
    out = np.add(h, ffn_out, out=ffn_out)
    return out, {"attn_norm": c_an, "attn": c_attn, "ffn_norm": c_fn, "ffn": c_ffn}


def _block_backward(params, cfg, i, cache, dout, grads, ws=FRESH):
    pfx = f"layer{i}"
    d_nf = _ffn_backward(params, pfx, cache["ffn"], dout, grads, ws)
    d_h = _slot_backward(params, cfg, f"{pfx}.ffn_norm", cache["ffn_norm"], d_nf, grads, ws)
    # the residual stream's gradient; the next block down updates it in place
    dh = np.add(dout, d_h, out=ws.shared("block_backward.dh", dout.shape))
    d_na = _attn_backward(params, cfg, pfx, cache["attn"], dh, grads, ws)
    dh += _slot_backward(params, cfg, f"{pfx}.attn_norm", cache["attn_norm"], d_na, grads, ws)
    return dh


def model_forward(params, cfg: ModelConfig, tokens, sites=None, ws=FRESH):
    """Token ids (batch, time) -> logits (batch*time, vocab) plus caches."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError("tokens must be (batch, time)")
    if tokens.shape[1] > cfg.context:
        raise ValueError(f"sequence length {tokens.shape[1]} exceeds context {cfg.context}")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise ValueError("token id out of range")
    b, t = tokens.shape
    d = cfg.hidden_dim
    # the ids were checked, so "clip" changes none; it lets take write into
    # out without a buffer of its own, which the default "raise" needs
    x = np.take(params["embed.weight"], tokens.ravel(), axis=0,
                out=ws.out("embed", (b * t, d)), mode="clip")
    seqs = x.reshape(b, t, d)
    seqs += params["pos_embed.weight"][:t]
    _note(sites, "embed", x)
    blocks = []
    for i in range(cfg.layers):
        x, bc = _block_forward(params, cfg, i, x, t, sites, ws)
        blocks.append(bc)
    fn_out, fn_cache = _slot_forward(params, cfg, "final_norm", x, _hidden_slot_heads(cfg), ws)
    _note(sites, "final_norm", fn_out)
    logits = np.matmul(fn_out, params["unembed.weight"],
                       out=ws.out("logits", (b * t, cfg.vocab)))
    _note(sites, "logits", logits)
    return logits, {"tokens": tokens, "blocks": blocks, "final_norm": fn_cache,
                    "final_norm_out": fn_out}


def model_backward(params, cfg: ModelConfig, caches, dlogits, ws=FRESH):
    """Every parameter's gradient, in one dict that each backward stage below
    writes into as it computes, so its keys follow the order of the writes:
    the unembedding and final norm, then each layer from the last down (FFN
    weights, FFN norm, output projection, query/key norms, input
    projections, attention norm), then the embeddings. ``clip_gradients``
    sums in this order, so changing it changes the bits of every clipped
    run."""
    tokens = caches["tokens"]
    b, t = tokens.shape
    d = cfg.hidden_dim
    unembed = params["unembed.weight"]
    grads = {"unembed.weight": np.matmul(caches["final_norm_out"].T, dlogits,
                                         out=_grad(ws, "unembed.weight", params))}
    d_fn = np.matmul(dlogits, unembed.T, out=ws.shared("model_backward.d_fn", (b * t, d)))
    dx = _slot_backward(params, cfg, "final_norm", caches["final_norm"], d_fn, grads, ws)
    for i in reversed(range(cfg.layers)):
        dx = _block_backward(params, cfg, i, caches["blocks"][i], dx, grads, ws)
    d_emb = ws.empty("grad.embed.weight", params["embed.weight"].shape)
    d_emb.fill(0.0)
    np.add.at(d_emb, tokens.ravel(), dx)
    grads["embed.weight"] = d_emb
    d_pos = ws.empty("grad.pos_embed.weight", params["pos_embed.weight"].shape)
    d_pos[t:] = 0.0
    dx.reshape(b, t, d).sum(axis=0, out=d_pos[:t])
    grads["pos_embed.weight"] = d_pos
    return grads


def model_loss(params, cfg: ModelConfig, tokens, targets) -> float:
    logits, _ = model_forward(params, cfg, tokens)
    loss, _ = softmax_cross_entropy(logits, np.asarray(targets).reshape(-1))
    return loss


def loss_and_grads(model: Model, tokens, targets, ws=FRESH):
    """The loss of one batch and its gradient for every parameter.

    With a workspace ``ws`` (see ``core.Workspace``) the gradients and every
    large intermediate are arrays of the workspace, valid until the next
    call given it; by default they are fresh arrays.
    """
    logits, caches = model_forward(model.params, model.cfg, tokens, ws=ws)
    loss, dlogits = softmax_cross_entropy(logits, np.asarray(targets).reshape(-1), ws)
    grads = model_backward(model.params, model.cfg, caches, dlogits, ws)
    return loss, grads


def first_nonfinite_site(params, cfg: ModelConfig, tokens) -> str | None:
    """Name of the first activation checkpoint that went non-finite, else of
    the first parameter, in ``params``' canonical order, with a non-finite
    entry (a layer can reject its parameters before its output exists);
    None if everything is finite."""
    sites: list = []
    try:
        model_forward(params, cfg, tokens, sites=sites)
    except (ValueError, FloatingPointError):
        # a layer rejecting non-finite input still leaves the trail so far
        pass
    sites += [(name, bool(np.all(np.isfinite(arr)))) for name, arr in params.items()]
    return next((name for name, ok in sites if not ok), None)


CHECKPOINT_FORMAT = "seednorm-checkpoint-v1"


def save_checkpoint(model: Model, path, opt_state=None) -> None:
    """Versioned JSON blob; parameters serialize flat in canonical order."""
    blob = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.cfg),
        "params": {
            name: model.params[name].ravel().tolist()
            for name, _ in parameter_specs(model.cfg)
        },
    }
    if opt_state is not None:
        blob["optimizer"] = {
            "step": opt_state.step,
            "m": {k: v.ravel().tolist() for k, v in opt_state.m.items()},
            "v": {k: v.ravel().tolist() for k, v in opt_state.v.items()},
            "decay": dict(opt_state.decay),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)


def _restore_array(raw, name: str, shape, what: str):
    flat = np.asarray(raw, dtype=np.float64)
    expect = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if flat.size != expect:
        raise ValueError(f"checkpoint {what} {name} has wrong size")
    require_finite(flat, f"checkpoint {what} {name}")
    return flat.reshape(shape)


# Settings older v1 files carry that are now fixed, each with the one value
# every model has (per-head query/key norms, the norm slots' eps, FFN width).
_RETIRED = {"qk_norm_per_head": True, "norm_eps": NormParams.eps, "ffn_mult": ModelConfig.ffn_mult}


def _config_from_blob(raw) -> ModelConfig:
    if not isinstance(raw, dict):
        raise ValueError(f"checkpoint config must be a JSON object, got {raw!r}")
    raw = dict(raw)
    for key, fixed in _RETIRED.items():
        value = raw.pop(key, fixed)
        if type(value) is not type(fixed) or value != fixed:
            raise ValueError(f"checkpoint config {key} must be {fixed!r}, got {value!r}")
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ValueError(f"unknown checkpoint config keys: {', '.join(unknown)}")
    for key, value in raw.items():  # json reads 2 as an int, 2.0 as a float, true as a bool
        if type(value) is not kinds[key] and (kinds[key], type(value)) != (float, int):
            raise ValueError(f"checkpoint config {key} must be a JSON "
                             f"{kinds[key].__name__}, got {value!r}")
    return ModelConfig(**raw)


def _entry(section: dict, key: str, where: str):
    """``section[key]``, or ValueError naming the key missing from ``where``."""
    if not isinstance(section, dict) or key not in section:
        raise ValueError(f"checkpoint {where} has no {key!r}")
    return section[key]


def load_checkpoint(path):
    """Returns (Model, OptimizerState or None); the parameters tile one
    buffer, as a built model's do. Shapes are validated, and a missing
    section, parameter or optimizer field, an array with a NaN or an
    infinity, or an optimizer step or decay flag of another JSON type,
    raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    fmt = blob.get("format") if isinstance(blob, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format: {fmt!r}")
    cfg = _config_from_blob(_entry(blob, "config", "file"))
    raw = _entry(blob, "params", "file")
    params = _parameter_views(cfg)
    for name, w in params.items():
        w[...] = _restore_array(_entry(raw, name, "params"), name, w.shape, "param")
    model = Model(cfg=cfg, params=params)
    opt_blob = blob.get("optimizer")
    if opt_blob is None:
        return model, None
    from .optim import OptimizerState  # deferred: optim imports this module

    def moments(key):
        raw = _entry(opt_blob, key, "optimizer")
        where = f"optimizer.{key}"
        return {n: _restore_array(_entry(raw, n, where), n, w.shape, where)
                for n, w in params.items()}

    step = _entry(opt_blob, "step", "optimizer")
    # json reads true as a bool and 2.7 or 1e30 as a float: only an int is a step
    if type(step) is not int or step < 0:
        raise ValueError(f"checkpoint optimizer.step must be an integer >= 0, got {step!r}")
    decay = _entry(opt_blob, "decay", "optimizer")
    flags = {n: _entry(decay, n, "optimizer.decay") for n in params}
    for n, flag in flags.items():
        if type(flag) is not bool:
            raise ValueError(f"checkpoint optimizer.decay {n} must be a boolean, got {flag!r}")
    return model, OptimizerState(m=moments("m"), v=moments("v"), step=step, decay=flags)
