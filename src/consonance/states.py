"""State family factories, subsystem rearrangement, and TPS relabeling.

Factories validate their parameters and return normalized states.  A
small text grammar, ``name`` or ``name:arg,arg,...`` with ``arg`` either
``key=value`` or a bare value for the family's single distinguished
parameter, builds states from the command line.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import measures
from .qstate import (TOL_RELABEL, DensityMatrix, PureState, ValidationError, assert_valid,
                     check_dims, check_integer, check_normalized, check_state,
                     check_unit_interval, check_unitary, density_from_pure, frozen_array, philox)

_SQRT2 = math.sqrt(2.0)


class FactorySpecError(ValueError):
    """The factory spec text is malformed or names an unknown family."""


# --- two-qubit families --------------------------------------------------


def _two_qubit(i: int, j: int, a, b) -> PureState:
    """a|i> + b|j> over two qubits, i and j flat basis indices."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[i], amps[j] = a, b
    return PureState((2, 2), amps)


# kind: the two basis indices and the sign of the second amplitude
_BELL_AMPS = {"phi+": (0, 3, 1), "phi-": (0, 3, -1), "psi+": (1, 2, 1), "psi-": (1, 2, -1)}


def bell(kind: str = "phi+") -> PureState:
    """One of the four Bell states; kind in phi+, phi-, psi+, psi-."""
    kind = str(kind).lower()
    if kind not in _BELL_AMPS:
        raise ValidationError(f"unknown Bell state {kind!r}; "
                              f"choose from {sorted(_BELL_AMPS)}")
    i, j, sign = _BELL_AMPS[kind]
    return _two_qubit(i, j, 1 / _SQRT2, sign / _SQRT2)


def _pair_amps(a=None, b=None, a2=None) -> tuple[complex, complex]:
    """The (a, b) amplitudes of bell_like and psi_like, for the factories and
    the closed forms alike: a2 = |a|^2 gives the real pair (sqrt(a2),
    sqrt(1 - a2)), and b defaults to sqrt(1 - |a|^2)."""
    if a2 is not None:
        if a is not None or b is not None:
            raise ValidationError("give either a2 or the (a, b) pair, not both")
        a2 = check_unit_interval(a2, "a2")
        return math.sqrt(a2), math.sqrt(1.0 - a2)
    if a is None:
        raise FactorySpecError("parameter a (or a2) is required")
    a = complex(a)
    b = complex(b) if b is not None else complex(math.sqrt(max(0.0, 1.0 - abs(a) ** 2)))
    check_normalized(a, b)
    return a, b


def bell_like(a=None, b=None, a2=None) -> PureState:
    """a|00> + b|11>; accepts a2 = |a|^2, and b defaults to sqrt(1 - |a|^2)."""
    return _two_qubit(0, 3, *_pair_amps(a, b, a2))


def psi_like(a=None, b=None, a2=None) -> PureState:
    """a|01> + b|10>; accepts a2 = |a|^2, and b defaults to sqrt(1 - |a|^2)."""
    return _two_qubit(1, 2, *_pair_amps(a, b, a2))


def pure_2x2(a, b, c, d) -> PureState:
    """a|11> + b|10> + c|01> + d|00> (note the descending bit order)."""
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    check_normalized(a, b, c, d)
    return PureState((2, 2), np.array([d, c, b, a], dtype=np.complex128))


_SINGLET = density_from_pure(bell("psi-")).entries       # read only
_BELL_PROJECTORS = tuple(density_from_pure(bell(k)).entries
                         for k in ("phi+", "phi-", "psi+", "psi-"))


def werner(a: float) -> DensityMatrix:
    """a |psi-><psi-| + (1 - a)/4 identity, a in [0, 1]."""
    a = check_unit_interval(a, "Werner parameter")
    return DensityMatrix((2, 2), a * _SINGLET + (1.0 - a) / 4.0 * np.eye(4))


def bell_diagonal(c_x: float, c_y: float, c_z: float) -> DensityMatrix:
    """(I + c_x σ_x (x) σ_x + c_y σ_y (x) σ_y + c_z σ_z (x) σ_z)/4: the mixture
    of the four Bell states with weights (1 +- c_x +- c_y +- c_z)/4, each
    of which must be >= 0."""
    weights = measures._bell_diagonal_weights(c_x, c_y, c_z)
    rho = sum(w * p for w, p in zip(weights, _BELL_PROJECTORS))
    return assert_valid(DensityMatrix((2, 2), rho))


# --- qubit-qutrit family -------------------------------------------------


def _qutrit_family_operators():
    """The operators the qubit-qutrit family weighs, read only.  The ket |ij>
    is basis vector 3 i + j, the entries np.kron of the party vectors gives."""
    def ket(i, j):
        return np.eye(6, dtype=np.complex128)[3 * i + j]

    def proj(v):
        return np.outer(v, v.conj())

    phi_p = (ket(0, 0) + ket(1, 1)) / _SQRT2
    phi_m = (ket(0, 0) - ket(1, 1)) / _SQRT2
    psi_p = (ket(0, 1) + ket(1, 0)) / _SQRT2
    psi_m = (ket(0, 1) - ket(1, 0)) / _SQRT2
    ops = (proj(ket(0, 2)) + proj(ket(1, 2)),
           proj(phi_p) + proj(phi_m) + proj(psi_p), proj(psi_m))
    for m in ops:
        m.setflags(write=False)
    return ops


_QUTRIT_OPS = _qutrit_family_operators()


def two_param_qubit_qutrit(alpha: float, gamma: float) -> DensityMatrix:
    """Two-parameter 2x3 family mixing Bell-type pairs with |02> and |12>.

    Weights: alpha on each of |02><02| and |12><12|, beta on each of the
    three symmetric Bell-type projectors over the qutrit levels {0, 1},
    gamma on the antisymmetric one, with beta = (1 - 2 alpha - gamma)/3.
    """
    alpha, gamma = float(alpha), float(gamma)
    beta = measures._qutrit_beta(alpha, gamma)
    alpha, gamma, beta = max(alpha, 0.0), max(gamma, 0.0), max(beta, 0.0)
    pairs, symmetric, antisymmetric = _QUTRIT_OPS
    rho = alpha * pairs + beta * symmetric + gamma * antisymmetric
    return assert_valid(DensityMatrix((2, 3), rho))


# --- multi-qubit families ------------------------------------------------


def ghz(n: int = 3) -> PureState:
    n = check_integer(n, "n")
    if n < 2:
        raise ValidationError(f"GHZ needs at least 2 parties, got {n}")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / _SQRT2
    return PureState((2,) * n, amps)


def w_state(n: int = 3) -> PureState:
    n = check_integer(n, "n")
    if n < 2:
        raise ValidationError(f"W state needs at least 2 parties, got {n}")
    amps = np.zeros(2 ** n, dtype=np.complex128)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return PureState((2,) * n, amps)


# --- rearrangement -------------------------------------------------------


def permute_subsystems(state, order):
    """Reorder the parties; ``order[k]`` is the old position of new party k.
    Each axis of the state's array carries one copy of the party indices,
    and every copy moves the same way."""
    n = check_state(state).n_parties
    order = tuple(check_integer(p, "party index") for p in order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    copies = state.data.ndim
    axes = [k * n + p for k in range(copies) for p in order]
    t = state.data.reshape(state.dims * copies).transpose(axes)
    return type(state)(tuple(state.dims[p] for p in order), t.reshape(state.data.shape))


def regroup(state, sizes):
    """Merge consecutive parties into blocks; ``sizes`` partitions the parties.

    The amplitudes are untouched (the flat ordering is already row major),
    only the dims annotation changes, e.g. four qubits regrouped by
    (2, 2) become a 4x4 bipartite state.
    """
    n = check_state(state).n_parties
    sizes = tuple(check_integer(s, "block size") for s in sizes)
    if any(s < 1 for s in sizes) or sum(sizes) != n:
        raise ValueError(f"sizes {sizes} do not partition {n} parties")
    new_dims, pos = [], 0
    for s in sizes:
        new_dims.append(math.prod(state.dims[pos:pos + s]))
        pos += s
    return type(state)(tuple(new_dims), state.data)


# --- tensor product structure relabeling ---------------------------------


@dataclass(frozen=True, eq=False)
class TpsRelabeling:
    """A change of tensor product structure as a basis-change matrix.

    Column t of ``matrix`` is the source-space vector that carries the
    target product label t, so states transform as M^dagger rho M and the
    matrix must be unitary.
    """

    source_dims: tuple[int, ...]
    target_dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        src = check_dims(self.source_dims)
        tgt = check_dims(self.target_dims)
        if math.prod(src) != math.prod(tgt):
            raise ValueError(f"source dims {src} and target dims {tgt} have "
                             f"different total dimension")
        d = math.prod(src)
        m = frozen_array(self.matrix, (d, d), "relabeling matrix")
        check_unitary(m, TOL_RELABEL, "relabeling matrix")
        object.__setattr__(self, "source_dims", src)
        object.__setattr__(self, "target_dims", tgt)
        object.__setattr__(self, "matrix", m)


def index_relabeling(source_dims, target_dims, mapping) -> TpsRelabeling:
    """Relabeling that permutes product basis labels.

    ``mapping`` sends source multi-indices to target multi-indices and
    must be a bijection over the whole basis; every index is an integer.
    """
    src = check_dims(source_dims)
    tgt = check_dims(target_dims)
    d = math.prod(src)
    m = np.zeros((d, d), dtype=np.complex128)
    seen = set()
    items = mapping.items() if isinstance(mapping, dict) else mapping
    for s_multi, t_multi in items:
        s_multi = tuple(check_integer(i, "basis index") for i in s_multi)
        t_multi = tuple(check_integer(i, "basis index") for i in t_multi)
        s = int(np.ravel_multi_index(s_multi, src))
        t = int(np.ravel_multi_index(t_multi, tgt))
        if m[s].any():
            raise ValueError(f"source index {s_multi} mapped twice")
        if t in seen:
            raise ValueError(f"target index {t_multi} assigned twice")
        seen.add(t)
        m[s, t] = 1.0
    if len(seen) != d:
        raise ValueError(f"mapping covers {len(seen)} of {d} basis labels")
    return TpsRelabeling(src, tgt, m)


def identity_relabeling(dims) -> TpsRelabeling:
    dims = check_dims(dims)
    return TpsRelabeling(dims, dims, np.eye(math.prod(dims)))


def werner_f_prime() -> TpsRelabeling:
    """Two-qubit relabeling whose new product basis is the Bell basis.

    Target labels: (0,0) <- psi+, (0,1) <- psi-, (1,0) <- phi+,
    (1,1) <- phi-.  Under it the Werner family becomes diagonal with all
    nonlocal coherence removed by relabeling alone.
    """
    cols = [bell("psi+").amps, bell("psi-").amps,
            bell("phi+").amps, bell("phi-").amps]
    return TpsRelabeling((2, 2), (2, 2), np.column_stack(cols))


def tps_remap(rho: DensityMatrix, relabeling: TpsRelabeling) -> DensityMatrix:
    """Express ``rho`` in the relabeled tensor product structure."""
    if check_state(rho, DensityMatrix).dims != relabeling.source_dims:
        raise ValueError(f"state dims {rho.dims} do not match relabeling source "
                         f"dims {relabeling.source_dims}")
    m = relabeling.matrix
    return DensityMatrix(relabeling.target_dims, m.conj().T @ rho.entries @ m)


# --- random states -------------------------------------------------------


def random_pure(dims, seed: int) -> PureState:
    dims = check_dims(dims)
    d = math.prod(dims)
    rng = philox(seed)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(dims, z / np.linalg.norm(z))


def random_density(dims, seed: int, rank: int | None = None) -> DensityMatrix:
    """Mixture of ``rank`` Haar-random pure states with random weights."""
    dims = check_dims(dims)
    d = math.prod(dims)
    rank = d if rank is None else check_integer(rank, "rank")
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in 1..{d}, got {rank}")
    rng = philox(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    q, _ = np.linalg.qr(g)
    weights = rng.uniform(size=rank)
    weights /= weights.sum()
    rho = (q * weights) @ q.conj().T
    return assert_valid(DensityMatrix(dims, rho))


# --- family registry and factory spec grammar ---------------------------


def _complex(text: str) -> complex:
    """A complex number as Python writes it, or with a trailing i for j:
    only the imaginary unit is mapped, so ``inf`` stays a number."""
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _one(**params) -> float:
    return 1.0


@dataclass(frozen=True, eq=False)
class Family:
    """Everything the package knows about one state family: ``parsers`` turn
    spec text into the factory's keyword parameters, in order, and ``bare``
    is the one a bare value binds; ``resolve`` maps given parameters to the
    keywords of the closed forms, each None where the family has none."""

    name: str
    factory: Callable
    parsers: dict
    bare: str | None = None
    aliases: tuple[str, ...] = ()
    resolve: Callable = dict
    consonance: Callable | None = None
    concurrence: Callable | None = None
    discord: Callable | None = None
    note: str | None = None          # caveat on the consonance closed form

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(self.parsers)

    @property
    def required(self) -> tuple[str, ...]:
        """Factory parameters that have no default."""
        return tuple(name for name, p in inspect.signature(self.factory).parameters.items()
                     if p.default is p.empty)

    def check_params(self, names) -> None:
        """The one check of parameter names, the spec grammar's and a
        sweep's alike: each must be a parameter of this family, none may
        come twice, and every required one must be there."""
        names = list(names)
        for k in names:
            if k not in self.parsers:
                raise FactorySpecError(f"family {self.name!r} has no parameter {k!r}; "
                                       f"expected one of {self.params}")
            if names.count(k) > 1:
                raise FactorySpecError(f"parameter {k!r} given twice")
        missing = [k for k in self.required if k not in names]
        if missing:
            raise FactorySpecError(f"family {self.name!r} needs {', '.join(missing)}")

    def make(self, **params):
        try:
            return self.factory(**params)
        except TypeError as exc:
            raise FactorySpecError(f"bad arguments for family {self.name!r}: {exc}") from exc


# The closed forms look measures functions up when called, so wrappers
# installed on the measures module (profilers, perfbench's tracer) see them.
_PAIR = dict(parsers={"a": _complex, "b": _complex, "a2": float}, bare="a",
             resolve=lambda **p: dict(zip("ab", _pair_amps(**p))),
             consonance=lambda a, b: measures.consonance_pair(a, b),
             concurrence=lambda a, b: measures.consonance_pair(a, b),
             discord=lambda a, b: measures.discord_bell_like(a, b))

FAMILIES = (
    Family("bell", bell, {"kind": str}, "kind",
           consonance=_one, concurrence=_one, discord=_one),
    Family("bell_like", bell_like, **_PAIR),
    Family("psi_like", psi_like, **_PAIR),
    Family("pure_2x2", pure_2x2, {k: _complex for k in "abcd"}, aliases=("pure2x2",),
           consonance=lambda a, b, c, d: measures.consonance_pure_2x2(a, b, c, d)),
    Family("werner", werner, {"a": float}, "a",
           consonance=lambda a: measures.consonance_werner(a),
           concurrence=lambda a: measures.concurrence_werner(a),
           discord=lambda a: measures.discord_werner(a)),
    Family("bell_diagonal", bell_diagonal, {"c_x": float, "c_y": float, "c_z": float},
           consonance=lambda c_x, c_y, c_z: measures.consonance_bell_diagonal(c_x, c_y, c_z)),
    Family("two_param_2x3", two_param_qubit_qutrit, {"alpha": float, "gamma": float},
           aliases=("two_param_qubit_qutrit",),
           consonance=lambda alpha, gamma: measures.consonance_2x3(alpha, gamma),
           discord=lambda alpha, gamma: measures.discord_2x3(alpha, gamma)),
    Family("ghz", ghz, {"n": int}, "n", consonance=_one,
           note="attained in the state's own frame, where L = 0; non-global "
                "circuits go lower: under the nonglobal preset, a CNOT then the "
                "inverse Bell-basis change takes GHZ(3) to |000>, where S = 0"),
    Family("w", w_state, {"n": int}, "n", aliases=("w_state",),
           note="no closed form is implemented for W; for n >= 3 W(n) has no "
                "zero-L single_party frame: an L = 0 frame diagonalizes every "
                "marginal, W(n)'s marginals diag((n-1)/n, 1/n) fix that frame up "
                "to permutations and phases, and L = n - 1 there (as background, "
                "an L = 0 frame of a pure state is a generalized Schmidt form "
                "sum_k c_k |k...k>, and W(n) is not LU-equivalent to any: Dur, "
                "Vidal & Cirac, PRA 62, 062314 (2000)); W(2) is psi+; under the "
                "nonglobal preset W(3) reaches S = L = 0 (criterion 8's witness), "
                "so search values there are upper bounds on 0"),
)

_BY_NAME = {name: fam for fam in FAMILIES for name in (fam.name,) + fam.aliases}


def family_names() -> list[str]:
    return sorted(fam.name for fam in FAMILIES)


def get_family(name: str) -> Family:
    """The family record for a name or alias.  This is the one place a
    family name is normalized: stripped, lower-cased, ``-`` read as ``_``."""
    try:
        return _BY_NAME[name.strip().lower().replace("-", "_")]
    except KeyError:
        raise FactorySpecError(f"unknown state family {name!r}; "
                               f"known: {', '.join(family_names())}") from None


def consonance_closed_form(family: str, **params) -> float:
    """Known consonance value of a state family, from the family table:
    werner, bell, bell_like, psi_like, pure_2x2, bell_diagonal, two_param_2x3
    and ghz.  A caveat on the value, if any, is the family record's ``note``.
    ``family`` is any name :func:`get_family` takes."""
    fam = get_family(family)
    if fam.consonance is None:
        raise ValueError(f"no closed-form consonance for family {fam.name!r}")
    return fam.consonance(**fam.resolve(**params))


def _parse_value(text: str, parser):
    try:
        return parser(text)
    except ValueError as exc:
        raise FactorySpecError(f"cannot parse value {text!r}: {exc}") from exc


def parse_spec(spec: str) -> tuple[Family, dict]:
    """Split ``name`` or ``name:arg,arg,...`` text into the family record
    and its parsed parameters.

    Each arg is ``key=value``; a single bare value is accepted for the
    family's distinguished parameter (for example ``bell:psi-`` or
    ``werner:0.5``).
    """
    name, _, arg_text = spec.partition(":")
    family = get_family(name)
    pairs = []
    for chunk in arg_text.split(",") if arg_text else ():
        chunk = chunk.strip()
        if not chunk:
            raise FactorySpecError(f"empty argument in factory spec {spec!r}")
        k, keyed, v = chunk.partition("=")
        k, v = (k.strip(), v.strip()) if keyed else (family.bare, chunk)
        if k is None:
            raise FactorySpecError(f"family {family.name!r} takes key=value arguments only")
        pairs.append((k, v))
    family.check_params(k for k, _ in pairs)
    return family, {k: _parse_value(v, family.parsers[k]) for k, v in pairs}


def parse_factory_spec(spec: str):
    """Build a state from ``name`` or ``name:arg,arg,...`` text (see
    :func:`parse_spec`)."""
    family, params = parse_spec(spec)
    return family.make(**params)


def make_family(family: str, **params):
    """Build a family state from already-parsed parameters."""
    return get_family(family).make(**params)
