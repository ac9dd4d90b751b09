"""Built-in chain corpus used by the verification suite and the CLI.

Every entry is a plain JSON-ready document plus routing tags:

- ``iid``: product measure, all mixing coefficients vanish
- ``mixing``: contraction coefficient strictly below 1
- ``multidim``: d = 2 observable
- ``nonstationary``: time-varying kernels/observable or a delta start

The default battery spans 2-4 states, d in {1, 2}, and one-step contraction
coefficients 0.0 through 0.9.  Extra named fixtures (not in the default
battery) cover degenerate behaviour the CLI has to surface: a chain too slow
to localize n0 within the scanned range, and a zero observable that starves
the block builder.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainConfigError, ChainSpec, build_chain


def _sym2(pi: float) -> list:
    s = (1.0 + pi) / 2.0
    return [[s, 1.0 - s], [1.0 - s, s]]


def sym2_doc(pi: float, initial=None, scale: float = 1.0, name: str | None = None) -> dict:
    """Two-state symmetric chain with +-scale observable; contraction = pi."""
    return {
        "name": name or f"sym2_p{int(round(10 * pi)):02d}",
        "kernels": {"periodic": [_sym2(pi)]},
        "initial": list(initial) if initial is not None else [0.5, 0.5],
        "observable": {"constant": [[scale], [-scale]]},
        "L": scale,
    }


# 3-state doubly stochastic kernels; uniform law is invariant, so zero-sum
# observables stay exactly centered at every time.
_K3 = [[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]]
_K3_LEAKY = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]


@dataclass(frozen=True)
class BatteryEntry:
    name: str
    doc: dict
    tags: frozenset = field(default_factory=frozenset)

    def build(self) -> ChainSpec:
        return build_chain(self.doc)

    def has(self, *tags: str) -> bool:
        return all(t in self.tags for t in tags)


def _e(name: str, doc: dict, *tags: str) -> BatteryEntry:
    doc = dict(doc)
    doc["name"] = name
    return BatteryEntry(name=name, doc=doc, tags=frozenset(tags))


def _default_entries() -> list:
    out = []
    for k in range(10):
        pi = k / 10.0
        tag = "iid" if pi == 0.0 else "mixing"
        out.append(_e(f"sym2_p{k:02d}", sym2_doc(pi), tag))
    out += [
        _e("sym2_delta", sym2_doc(0.5, initial=[1.0, 0.0]), "mixing", "nonstationary"),
        # rows of the kernel differ by 0.5 in total variation; the start is
        # the invariant law (0.8, 0.2) and the observable is balanced against
        # it, so the mean vanishes at every time.
        _e("asym2", {
            "kernels": {"periodic": [[[0.9, 0.1], [0.4, 0.6]]]},
            "initial": [0.8, 0.2],
            "observable": {"constant": [[1.0], [-4.0]]},
            "L": 4.0,
        }, "mixing"),
        _e("iid2_scaled", sym2_doc(0.0, scale=2.0), "iid"),
        _e("iid2_d2_zero", {
            "kernels": {"periodic": [_sym2(0.0)]},
            "initial": [0.5, 0.5],
            "observable": {"constant": [[1.0, 0.0], [-1.0, 0.0]]},
            "L": 1.0,
            "d": 2,
        }, "iid", "multidim", "degenerate_direction"),
        _e("chain3", {
            "kernels": {"periodic": [_K3]},
            "initial": [1 / 3, 1 / 3, 1 / 3],
            "observable": {"constant": [[1.0], [0.0], [-1.0]]},
            "L": 1.0,
        }, "mixing"),
        _e("leaky3", {
            "kernels": {"periodic": [_K3_LEAKY]},
            "initial": [1 / 3, 1 / 3, 1 / 3],
            "observable": {"constant": [[1.0], [0.0], [-1.0]]},
            "L": 1.0,
        }, "mixing"),
        _e("leaky3_delta", {
            "kernels": {"periodic": [_K3_LEAKY]},
            "initial": [1.0, 0.0, 0.0],
            "observable": {"constant": [[1.0], [0.0], [-1.0]]},
            "L": 1.0,
        }, "mixing", "nonstationary"),
        _e("period2", {
            "kernels": {"periodic": [_sym2(0.6), _sym2(0.2)]},
            "initial": [0.5, 0.5],
            "observable": {"constant": [[1.0], [-1.0]]},
            "L": 1.0,
        }, "mixing", "nonstationary"),
        # ramp runs slow-to-fast so the early-time probe window sees the
        # worst kernels and the fitted envelope stays an upper bound
        _e("mixture2_ramp", {
            "kernels": {"mixture": {
                "base": [_sym2(0.2), _sym2(0.8)],
                "weights": {"kind": "linear", "start": 1.0, "end": 0.0, "length": 200},
            }},
            "initial": [0.5, 0.5],
            "observable": {"constant": [[1.0], [-1.0]]},
            "L": 1.0,
        }, "mixing", "nonstationary"),
        _e("kron4_d2", {
            "kernels": {"periodic": [np.kron(_sym2(0.5), _sym2(0.3)).tolist()]},
            "initial": [0.25, 0.25, 0.25, 0.25],
            "observable": {"constant": [
                [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
            ]},
            "L": 1.0,
            "d": 2,
        }, "mixing", "multidim"),
        _e("chain3_d2", {
            "kernels": {"periodic": [_K3]},
            "initial": [1 / 3, 1 / 3, 1 / 3],
            "observable": {"constant": [[2.0, 0.0], [0.0, 1.0], [-2.0, -1.0]]},
            "L": 2.0,
            "d": 2,
        }, "mixing", "multidim"),
        _e("corr_d2", {
            "kernels": {"periodic": [_sym2(0.6)]},
            "initial": [0.5, 0.5],
            "observable": {"periodic": [
                [[1.0, 1.0], [-1.0, -1.0]],
                [[1.0, -1.0], [-1.0, 1.0]],
            ]},
            "L": 1.0,
            "d": 2,
        }, "mixing", "multidim", "nonstationary"),
    ]
    return out


def _extra_entries() -> list:
    return [
        # contraction 0.96 with a near-delta start: probing j=1 gives
        # phi(k) ~ 0.99 * 0.96^k > 1/2 for every k <= 12, so the mixing
        # report cannot localize n0 in the default scan range
        _e("slow2", sym2_doc(0.96, initial=[0.99, 0.01], name="slow2"), "mixing", "slow"),
        # identically-zero observable: no variance anywhere, block
        # construction must fail with a starvation error
        _e("zero2", {
            "kernels": {"periodic": [_sym2(0.0)]},
            "initial": [0.5, 0.5],
            "observable": {"constant": [[0.0], [0.0]]},
            "L": 1.0,
        }, "iid", "degenerate"),
    ]


_ALL = {e.name: e for e in _default_entries() + _extra_entries()}
DEFAULT_NAMES = tuple(e.name for e in _default_entries())
EXTRA_NAMES = tuple(e.name for e in _extra_entries())


def entry(name: str) -> BatteryEntry:
    try:
        return _ALL[name]
    except KeyError:
        raise ChainConfigError(
            f"unknown battery chain {name!r}; known: {', '.join(sorted(_ALL))}"
        ) from None


def battery(tags=None, exclude=()) -> list:
    """Default battery entries, optionally filtered by tags.

    ``tags`` keeps entries carrying ALL the given tags; ``exclude`` then
    drops entries carrying ANY of those.
    """
    out = [_ALL[n] for n in DEFAULT_NAMES]
    if tags:
        want = set(tags)
        out = [e for e in out if want <= e.tags]
    if exclude:
        drop = set(exclude)
        out = [e for e in out if not (drop & e.tags)]
    return out
