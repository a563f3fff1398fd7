"""DAC topology builders, prototype configuration, calibration and evaluation.

A :class:`DacConfig` describes an ordered list of stages. Power-of-3 weighted
stages inject straight into the differential output node through their string
resistors; runs of ladder stages form 4R-3R chains that hang off the output
node, each chain closed by a 6R terminator so its weight ratios are exact at
any finite length. Chains after the first section connect through a series
entry resistor, which is the free element :func:`calibrate` adjusts so that
consecutive stage weights step by exactly 3 across section boundaries
(including the high-voltage to low-voltage supply step).

Switches are ideal source selection plus an optional state-independent
on-resistance, so the resistive graph is fixed and one factorisation plus a
superposition weight table evaluates any digit state.

The load is applied after one open-network solve, whose port column gives
``z_out`` and each source's current per port amp ``h``: loaded weights are the
open ones times :func:`load_divider` (Thevenin) and loaded source currents are
``J_open - h ⊗ w_loaded/load_ohms`` (compensation theorem; Desoer & Kuh,
*Basic Circuit Theory*, 1969). Only the reference paths build the loaded network.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from . import codec
from .errors import CalibrationError, ConfigError, RangeError
from .network import NetworkSolver, Resistor, ResistiveNetwork, VoltageSource

#: Relative tolerance on calibrated weight ratios.
RATIO_RTOL = 1e-9

WEIGHT_RATIO = 3.0


class StageKind(Enum):
    POWER3_WEIGHTED = "POWER3_WEIGHTED"
    LADDER_4R3R = "LADDER_4R3R"


class TopologyKind(Enum):
    R2R = "R2R"
    TERNARY_4R3R = "TERNARY_4R3R"
    DIFFERENTIAL_4R3R = "DIFFERENTIAL_4R3R"
    POWER3_DIFFERENTIAL = "POWER3_DIFFERENTIAL"


@dataclass(frozen=True)
class StageSpec:
    """One converter stage: topology role, unit resistance and supply rail.

    For POWER3_WEIGHTED stages ``r_base`` is the string resistance and
    ``parallel_strings`` strings share the injection (effective resistance
    r_base / parallel_strings). For LADDER_4R3R stages ``r_base`` is the unit
    R of the 4R-3R chain. ``entry_ohms`` overrides the series element joining
    this stage's section to the output node; it is set by :func:`calibrate`
    and only meaningful on the first stage of a non-leading section.
    """

    kind: StageKind
    r_base: float
    supply_v: float
    parallel_strings: int = 1
    entry_ohms: float | None = None

    def __post_init__(self) -> None:
        if not self.r_base > 0:
            raise ConfigError(f"stage r_base must be > 0 ohms, got {self.r_base}")
        if not self.supply_v > 0:
            raise ConfigError(f"stage supply_v must be > 0 volts, got {self.supply_v}")
        if self.parallel_strings < 1:
            raise ConfigError("parallel_strings must be >= 1")
        if self.entry_ohms is not None and not self.entry_ohms > 0:
            raise ConfigError("entry_ohms must be > 0 ohms when set")


@dataclass(frozen=True)
class DacConfig:
    """Ordered stage specifications plus load, switch and tolerance parameters.

    ``load_ohms`` may be ``inf`` for an open output port. ``element_overrides``
    maps element labels (see :func:`enumerate_elements`) to explicit ohm
    values; it is how :func:`perturb` represents component mismatch.
    """

    stages: tuple[StageSpec, ...]
    load_ohms: float = 32.0
    r_on: float = 0.0
    tolerance: float = 0.0
    element_overrides: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "element_overrides", dict(self.element_overrides))
        if not self.stages:
            raise ConfigError("config needs at least one stage")
        if not self.load_ohms > 0:
            raise ConfigError(f"load_ohms must be > 0 (inf = open port), got {self.load_ohms}")
        if self.r_on < 0:
            raise ConfigError("r_on must be >= 0 ohms")
        if not 0.0 <= self.tolerance < 1.0:
            raise ConfigError("tolerance must be a fraction in [0, 1)")
        seen_ladder = False
        for k, st in enumerate(self.stages):
            if st.kind is StageKind.LADDER_4R3R:
                seen_ladder = True
            elif seen_ladder:
                raise ConfigError(
                    f"stage {k + 1}: power-of-3 weighted stages must precede ladder stages"
                )

    @property
    def n_digits(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class _Section:
    kind: StageKind
    indices: tuple[int, ...]


def _sections(config: DacConfig) -> list[_Section]:
    """Group stages: one power-of-3 bank, then ladder runs split on (R, supply)."""
    out: list[_Section] = []
    current: list[int] = []
    current_key: tuple | None = None
    for k, st in enumerate(config.stages):
        if st.kind is StageKind.POWER3_WEIGHTED:
            key = (StageKind.POWER3_WEIGHTED,)
        else:
            key = (StageKind.LADDER_4R3R, st.r_base, st.supply_v)
        if key != current_key:
            if current:
                out.append(_Section(kind=current_key[0], indices=tuple(current)))
            current = []
            current_key = key
        current.append(k)
    out.append(_Section(kind=current_key[0], indices=tuple(current)))
    return out


@dataclass(frozen=True)
class _Layout:
    """Element-to-branch map of one converter topology.

    Node 1 is the upper output, node 2 the lower. Resistor branches are one
    element each; source ``j`` sits behind ``r_on`` in series with the
    parallel group ``groups[j]`` of elements (padded with ``n_elements``).
    Sources are upper stages 0..n-1 followed by lower stages 0..n-1.
    """

    labels: tuple[str, ...]
    values: np.ndarray  # effective element ohms, in label order
    resistor_nodes: tuple[tuple[int, int], ...]
    resistor_elements: np.ndarray
    source_nodes: tuple[int, ...]
    groups: np.ndarray  # (n_sources, widest group) element indices
    r_on: float

    def branch_ohms(self, element_ohms: np.ndarray) -> np.ndarray:
        """Ohms of every open-network branch for element rows of shape (T, n_elements).

        Columns follow :meth:`network`: resistors, then sources. Each row is
        computed alone, so a row's value does not depend on the other rows.
        """
        t, n_el = element_ohms.shape
        inverse = np.zeros((t, n_el + 1))  # the extra zero column pads the groups
        np.divide(1.0, element_ohms, out=inverse[:, :n_el])
        strings = inverse[:, self.groups[:, 0]]
        for k in range(1, self.groups.shape[1]):
            strings = strings + inverse[:, self.groups[:, k]]
        return np.concatenate(
            [element_ohms[:, self.resistor_elements], self.r_on + 1.0 / strings], axis=1
        )

    def network(self, load_ohms: float) -> ResistiveNetwork:
        """The network with nominal element values and the given load (inf = open)."""
        ohms = self.branch_ohms(self.values[None])[0].tolist()
        resistors = [Resistor(a, b, r) for (a, b), r in zip(self.resistor_nodes, ohms)]
        if math.isfinite(load_ohms):
            resistors.append(Resistor(1, 2, load_ohms))  # after the others, across the port
        sources = tuple(
            VoltageSource(node=node, series_ohms=r)
            for node, r in zip(self.source_nodes, ohms[len(self.resistor_nodes) :])
        )
        name = "dac" + (" loaded" if math.isfinite(load_ohms) else " open")
        return ResistiveNetwork(resistors=tuple(resistors), sources=sources, port=(1, 2), name=name)


def _layout(config: DacConfig) -> _Layout:
    """Walk the stages once: element labels and values, branch nodes and groups."""
    stages = config.stages
    overrides = config.element_overrides
    labels: list[str] = []
    values: list[float] = []
    resistor_nodes: list[tuple[int, int]] = []
    resistor_elements: list[int] = []
    source_nodes: list[int] = []
    groups: list[list[int]] = []

    def element(label: str, nominal: float) -> int:
        labels.append(label)
        values.append(overrides.get(label, nominal))
        return len(labels) - 1

    def resistor(a: int, b: int, label: str, nominal: float) -> None:
        resistor_nodes.append((a, b))
        resistor_elements.append(element(label, nominal))

    def source(node: int, prefix: str, nominal: float, count: int) -> None:
        source_nodes.append(node)
        groups.append([element(f"{prefix}{j + 1}", nominal) for j in range(count)])

    sections = _sections(config)
    next_node = 3
    for half, out_node in (("upper", 1), ("lower", 2)):
        for si, sec in enumerate(sections):
            if sec.kind is StageKind.POWER3_WEIGHTED:
                for k in sec.indices:
                    st = stages[k]
                    source(out_node, f"{half}.s{k + 1:02d}.string", st.r_base, st.parallel_strings)
                if len(sections) == 1:
                    # Standalone bank: terminate with the resistance of the missing
                    # geometric tail so the port impedance matches the infinite ladder.
                    last = stages[sec.indices[-1]]
                    nominal = 2.0 * last.r_base / last.parallel_strings
                    resistor(out_node, 0, f"{half}.star.term", nominal)
                continue
            first = sec.indices[0]
            if si == 0:
                node = out_node
            else:
                node = next_node
                next_node += 1
                st = stages[first]
                nominal = st.entry_ohms if st.entry_ohms is not None else 4.0 * st.r_base
                resistor(out_node, node, f"{half}.s{first + 1:02d}.entry", nominal)
            for pos, k in enumerate(sec.indices):
                st = stages[k]
                if pos > 0:
                    prev = sec.indices[pos - 1]
                    series = 4.0 * stages[prev].r_base
                    resistor(node, next_node, f"{half}.s{prev + 1:02d}.series", series)
                    node = next_node
                    next_node += 1
                source(node, f"{half}.s{k + 1:02d}.shunt", 3.0 * st.r_base, st.parallel_strings)
            last = sec.indices[-1]
            resistor(node, 0, f"{half}.s{last + 1:02d}.term", 6.0 * stages[last].r_base)

    width = max(len(g) for g in groups)
    padded = np.full((len(groups), width), len(labels), dtype=np.intp)
    for j, group in enumerate(groups):
        padded[j, : len(group)] = group
    return _Layout(
        labels=tuple(labels),
        values=np.array(values),
        resistor_nodes=tuple(resistor_nodes),
        resistor_elements=np.array(resistor_elements, dtype=np.intp),
        source_nodes=tuple(source_nodes),
        groups=padded,
        r_on=config.r_on,
    )


def enumerate_elements(config: DacConfig) -> list[tuple[str, float]]:
    """All physical resistor elements as (label, effective ohms), build order.

    The order is deterministic (upper half then lower half, stages ascending),
    which is what makes seeded perturbations reproducible. The load and the
    switch on-resistance are not converter components and are not listed.
    """
    layout = _layout(config)
    return list(zip(layout.labels, layout.values.tolist()))


@dataclass(frozen=True)
class WeightTable:
    """Per-stage differential output volts per digit, plus port impedance.

    Positive and negative digit weights are stored separately; they are equal
    on a symmetric (unperturbed) converter. ``w_open`` is the symmetrised
    open-circuit view. The loaded weights, which drive every output
    evaluation, are the open ones times ``load_divider(z_out, load_ohms)``;
    they equal the open ones exactly for an open port (``load_ohms = inf``).
    """

    w_pos_open: np.ndarray
    w_neg_open: np.ndarray
    w_pos_loaded: np.ndarray
    w_neg_loaded: np.ndarray
    z_out: float
    load_ohms: float

    @property
    def n_digits(self) -> int:
        return len(self.w_pos_open)

    @property
    def w_open(self) -> np.ndarray:
        return 0.5 * (self.w_pos_open + self.w_neg_open)

    @property
    def v_full_scale(self) -> float:
        """Open-circuit peak differential volts with every digit at +1."""
        return float(self.w_pos_open.sum())


def load_divider(z_out, load_ohms: float):
    """Loaded over open port volts, ``1/(1 + z_out/load_ohms)``: exactly 1 for an open port."""
    return 1.0 / (1.0 + z_out / load_ohms)


def _digit_weights(config: DacConfig, port_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed per-digit volts (w_pos, w_neg) from port volts per source volt.

    ``port_weights`` has n_sources (= 2 * n_digits) entries in its last axis.
    """
    n = config.n_digits
    volts = np.array([st.supply_v for st in config.stages])
    return volts * port_weights[..., :n], -volts * port_weights[..., n:]


def group_tables(w_pos: np.ndarray, w_neg: np.ndarray) -> np.ndarray:
    """Output volts of every code of every digit group, shape (groups, 243).

    Entry ``[j, c]`` sums, over the digits of ``codec.GROUP_DIGITS[c]`` in
    group j, ``w_pos`` for +1 and ``-w_neg`` for -1 (distributed arithmetic;
    S. A. White, IEEE ASSP Magazine 6(3), 1989). The top group's padding
    digits weigh 0 volts, and a group with one nonzero digit holds its weight
    exactly.
    """
    n = len(w_pos)
    width = codec.group_count(n) * codec.GROUP_SIZE
    volts = np.zeros((3, width))  # row d + 1: volts of digit d at each padded position
    volts[0, width - n :] = -w_neg
    volts[2, width - n :] = w_pos
    position = np.arange(width).reshape(-1, 1, codec.GROUP_SIZE)
    return volts[codec.GROUP_DIGITS + 1, position].sum(axis=2)


def table_output(codes: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Output volts of digit words given as :func:`codec.group_codes`: the fast path.

    One gather per group from :func:`group_tables`, summed from the most
    significant group down.
    """
    out = np.take(tables[0], codes[:, 0])
    for j in range(1, len(tables)):
        out += np.take(tables[j], codes[:, j])
    return out


#: Row c holds the +1 then the -1 indicators of the digits of group code c.
_GROUP_INDICATORS = np.concatenate(
    [codec.GROUP_DIGITS == 1, codec.GROUP_DIGITS == -1], axis=1
).astype(float)

class Dac:
    """Assembled converter: one open-network solver and digit-state fast paths.

    Immutable after construction (the weight table's arrays are read-only)
    apart from the loaded network the reference paths build on first use and
    the rail-current tables built on the first rail-current call;
    concurrent evaluation over disjoint digit arrays is safe.
    """

    def __init__(self, config: DacConfig):
        self.config = config
        self._open = NetworkSolver(_layout(config).network(math.inf))
        w_pos_open, w_neg_open = _digit_weights(config, self._open.port_weights)
        self.z_out = self._open.output_impedance()
        divider = load_divider(self.z_out, config.load_ohms)
        w_pos_loaded, w_neg_loaded = w_pos_open * divider, w_neg_open * divider
        for w in (w_pos_open, w_neg_open, w_pos_loaded, w_neg_loaded):
            w.setflags(write=False)
        # Port volts per source volt into the load, over the load: its current.
        self._load_amps = self._open.port_weights * (divider / config.load_ohms)
        self._table = WeightTable(
            w_pos_open=w_pos_open,
            w_neg_open=w_neg_open,
            w_pos_loaded=w_pos_loaded,
            w_neg_loaded=w_neg_loaded,
            z_out=self.z_out,
            load_ohms=config.load_ohms,
        )
        self._tables = group_tables(w_pos_loaded, w_neg_loaded)
        self._tables.setflags(write=False)
        volts = np.array([st.supply_v for st in config.stages])
        self.rail_voltages: tuple[float, ...] = tuple(sorted(set(volts), reverse=True))
        self._source_volts = np.concatenate([volts, volts])
        # R[j, r] = 1 when source j (upper stages, then lower) draws from rail r.
        self._rail_matrix = (self._source_volts[:, None] == self.rail_voltages).astype(float)

    @property
    def n_digits(self) -> int:
        return self.config.n_digits

    def weight_table(self) -> WeightTable:
        return self._table

    def source_levels(self, word: Sequence[int]) -> np.ndarray:
        """Per-source volts of one digit word, any 1-D sequence of n_digits digits.

        +1 drives the upper stage's switch HIGH, -1 the lower one's, and 0
        grounds both, so no source pair is ever HIGH together. RangeError
        unless ``word`` is 1-D with n_digits digits from {-1, 0, +1}.
        """
        row = np.asarray(word)
        if row.shape != (self.n_digits,) or row.dtype.kind not in "biu":
            raise RangeError(
                f"a digit word is 1-D with {self.n_digits} integer digits, "
                f"got {row.dtype} of shape {row.shape}"
            )
        row = codec._checked_digits(row[None])[0]
        return self._source_volts * np.concatenate([row == 1, row == -1])

    @cached_property
    def _loaded(self) -> NetworkSolver:  # the reference paths' network, load included
        return NetworkSolver(_layout(self.config).network(self.config.load_ohms))

    def output_direct(self, word: Sequence[int]) -> float:
        """Reference path: full network solve of one digit word's switch state into the load."""
        return float(self._loaded.port_voltage(self.source_levels(word)))

    def output_array(self, digits: np.ndarray) -> np.ndarray:
        """Loaded output volts of digit words of shape (count, n_digits): the fast path."""
        return table_output(self._codes(digits), self._tables)

    def _codes(self, digits: np.ndarray) -> np.ndarray:
        digits = np.asarray(digits)
        if digits.ndim == 2 and digits.shape[1] != self.n_digits:
            raise RangeError(f"digit count {digits.shape[1]} does not match {self.n_digits} stages")
        return codec.group_codes(digits)

    def supply_currents(self, word: Sequence[int]) -> dict[float, float]:
        """Signed amps drawn from each supply rail for one digit word (reference path).

        Only sources whose switch is HIGH count toward their rail; a grounded
        switch conducts to ground, not to the supply.
        """
        levels = self.source_levels(word)
        currents = self._loaded.solve(levels).source_currents * (levels > 0)
        return dict(zip(self.rail_voltages, (currents @ self._rail_matrix).tolist()))

    @cached_property
    def _rail_tables(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        # Js[g, i, h, j]: volts times the current of source j of group h with
        # source i of group g HIGH; R[g, r, 0, i]: 1 when source i of group g
        # draws from rail r. Sources are in _GROUP_INDICATORS' column order
        # (five +1, then five -1 indicators per group); padding rows are zero.
        n, five = self.n_digits, codec.GROUP_SIZE
        groups = codec.group_count(n)
        width = 2 * five * groups
        position = np.arange(n) + width // 2 - n  # in the padded word
        plus = position + position // five * five
        columns = np.concatenate([plus, plus + five])  # of the sources: upper, then lower
        j_loaded = self._open.source_current_matrix - np.outer(
            self._open.port_source_currents, self._load_amps
        )
        js = np.zeros((width, width))
        js[np.ix_(columns, columns)] = self._source_volts[:, None] * j_loaded.T
        rails = np.zeros((width, len(self.rail_voltages)))
        rails[columns] = self._rail_matrix
        js = js.reshape(groups, 2 * five, groups, 2 * five)
        rails = rails.reshape(groups, 2 * five, 1, -1).transpose(0, 3, 2, 1)
        a = _GROUP_INDICATORS
        # Pair (g, h) adds a_g · (Js[g, h] R[h] + (Js[h, g] R[g])ᵀ) · a_h to
        # each rail; a word of one group has no pair term, only its own.
        pairs = list(itertools.combinations(range(groups), 2)) or [(0, 0)]
        g, h = np.array(pairs).T
        cross = js[g, :, h, :][:, None] * rails[h]
        cross += (js[h, :, g, :][:, None] * rails[g]).swapaxes(2, 3)
        cross[g == h] = 0.0
        tables = a @ cross @ a.T  # [pair, rail, code of g, code of h]
        k = np.arange(groups)
        own = ((a @ (js[k, :, k, :][:, None] * rails)) * a).sum(axis=3)  # [group, rail, code]
        tables[0] += own[0][:, :, None]  # group 0 by its row in pair (0, 1)
        tables[k[1:] - 1] += own[1:, :, None, :]  # group k by its column in pair (0, k)
        tables = tables.reshape(len(pairs), len(self.rail_voltages), -1)
        tables.setflags(write=False)
        return pairs, tables

    def rail_currents_array(self, digits: np.ndarray) -> dict[float, np.ndarray]:
        """Per-sample signed rail currents for an array of digit words.

        The currents are the quadratic form ``((a @ Js) * a) @ R`` in the +1
        and -1 digit indicators ``a``, one column per source: ``Js[i, j]`` is
        the current of source j with source i HIGH, the second factor of ``a``
        keeps only the HIGH sources, as in :meth:`supply_currents`, and ``R``
        maps sources to rails. The loaded ``J`` is the open one less ``h``
        times the load current (the compensation theorem).

        The form is summed from tables, one gather for every pair of digit
        groups g < h at index ``243 * code_g + code_h``; a group's own terms
        ride in the first pair that holds it, and a word of one group reads
        its own terms as the pair (0, 0). Built on the first call, the tables
        take pairs x rails x 243² x 8 bytes: 5.7 MB on the prototype (6 pairs,
        2 rails), 13 MB for a 40-digit one-rail ladder (28 pairs) and 17 MB
        for 12 digits on 12 rails (3 pairs).
        """
        codes = self._codes(digits).T  # one contiguous row per group
        pairs, tables = self._rail_tables
        out = np.zeros((len(self.rail_voltages), codes.shape[1]))
        for (g, h), table in zip(pairs, tables):
            out += np.take(table, codes[g] * codec.GROUP_CODES + codes[h], axis=1)
        return dict(zip(self.rail_voltages, out))


# --- spec-level operations ---------------------------------------------------


def build_topology(
    kind: TopologyKind, stage_count: int, r: float = 1000.0, v: float = 90.0
) -> ResistiveNetwork:
    """Build one of the four reference topologies as a raw network.

    Sources appear in stage order, most significant first (for differential
    kinds: all upper-half stages, then all lower-half stages); excitation
    levels are chosen per solve, ``v`` documents the intended reference rail.
    Single-ended ports are (output node, ground); differential ports span the
    two half-ladder output nodes.
    """
    if stage_count < 1:
        raise RangeError("stage_count must be >= 1")
    if not r > 0:
        raise RangeError("r must be > 0 ohms")
    resistors: list[Resistor] = []
    sources: list[VoltageSource] = []
    name = f"{kind.value} n={stage_count} r={r:g} v={v:g}"

    def chain(first_node: int) -> None:
        # 4R-3R ladder: 3R source shunts, 4R series elements, 6R terminator.
        node = first_node
        for k in range(stage_count):
            if k > 0:
                resistors.append(Resistor(node, node + 1, 4.0 * r))
                node += 1
            sources.append(VoltageSource(node=node, series_ohms=3.0 * r))
        resistors.append(Resistor(node, 0, 6.0 * r))

    if kind is TopologyKind.R2R:
        # 2R source shunts, R series elements, 2R terminator.
        node = 1
        for k in range(stage_count):
            if k > 0:
                resistors.append(Resistor(node, node + 1, r))
                node += 1
            sources.append(VoltageSource(node=node, series_ohms=2.0 * r))
        resistors.append(Resistor(node, 0, 2.0 * r))
        port = (1, 0)
    elif kind is TopologyKind.TERNARY_4R3R:
        chain(1)
        port = (1, 0)
    elif kind is TopologyKind.DIFFERENTIAL_4R3R:
        chain(1)
        upper_top = 1
        lower_top = stage_count + 1
        chain(lower_top)
        port = (upper_top, lower_top)
    elif kind is TopologyKind.POWER3_DIFFERENTIAL:
        for out_node in (1, 2):
            for k in range(stage_count):
                sources.append(VoltageSource(node=out_node, series_ohms=r * 3.0**k))
            resistors.append(Resistor(out_node, 0, 2.0 * r * 3.0 ** (stage_count - 1)))
        port = (1, 2)
    else:  # pragma: no cover
        raise RangeError(f"unknown topology kind {kind}")
    return ResistiveNetwork(
        resistors=tuple(resistors), sources=tuple(sources), port=port, name=name
    )


def build_prototype() -> DacConfig:
    """Default 20-stage differential converter.

    Six high-voltage power-of-3 weighted stages (the two most significant
    built from parallel 100-ohm strings), six high-voltage 4R-3R ladder
    stages and eight low-voltage ladder stages; 90 V and 12 V rails, 32-ohm
    load, 5 % component tolerance for Monte-Carlo studies. Run
    :func:`calibrate` to pin the section-boundary weight ratios to exactly 3.
    """
    hv = 90.0
    lv = 12.0
    p3 = StageKind.POWER3_WEIGHTED
    ladder = StageKind.LADDER_4R3R
    stages = [
        StageSpec(p3, 100.0, hv, parallel_strings=9),  # 3 high-current sections of 3 strings
        StageSpec(p3, 100.0, hv, parallel_strings=3),
        StageSpec(p3, 100.0, hv),
        StageSpec(p3, 300.0, hv),
        StageSpec(p3, 900.0, hv),
        StageSpec(p3, 2700.0, hv),
    ]
    stages += [StageSpec(ladder, 2000.0, hv) for _ in range(6)]  # 3R=6000, 4R=8000
    stages += [StageSpec(ladder, 5000.0, lv) for _ in range(8)]  # 3R=15000, 4R=20000
    return DacConfig(stages=tuple(stages), load_ohms=32.0, r_on=0.0, tolerance=0.05)


def calibrate(config: DacConfig) -> DacConfig:
    """Adjust section-boundary entry resistors for exact power-of-3 weighting.

    The downstream section of a boundary reaches the output node only through
    its entry resistor, so the boundary's open-circuit weight ratio is affine
    in that resistance (Middlebrook's extra element theorem, IEEE Trans.
    Education 32(3), 1989): two trial values on one open network give the
    exact root. A ratio also depends on the upstream entry, so the boundaries
    are set in order. Present entry values are not read, so calibrating a
    calibrated config returns an equal config.
    """
    sections = _sections(config)
    boundaries = [(a.indices[-1], b.indices[0]) for a, b in zip(sections, sections[1:])]
    if not boundaries:
        return config
    stages = [dataclasses.replace(st, entry_ohms=None) for st in config.stages]
    layout = _layout(dataclasses.replace(config, stages=stages))
    solver = NetworkSolver(layout.network(math.inf))
    branch = {layout.labels[e]: b for b, e in enumerate(layout.resistor_elements)}
    g = solver.conductances.copy()
    for upstream, downstream in boundaries:
        entry = [branch[f"{half}.s{downstream + 1:02d}.entry"] for half in ("upper", "lower")]
        # Trial entries of R and 2R, with R near the section's own impedance
        # (2·r_base for a plain 4R-3R chain), so the secant is well conditioned.
        r = 4.0 * stages[downstream].r_base
        rows = np.tile(g, (2, 1))
        rows[0, entry] = 1.0 / r
        rows[1, entry] = 0.5 / r
        w = _digit_weights(config, solver.batch_port(rows)[:, :-1])[0]
        ratio = (w[:, upstream] / w[:, downstream]).tolist()
        root = r * (1.0 + (WEIGHT_RATIO - ratio[0]) / (ratio[1] - ratio[0]))
        if not (math.isfinite(root) and root > 0):
            raise CalibrationError(
                f"weight-ratio target at the stage {upstream + 1} -> {downstream + 1} "
                "boundary is unreachable with a positive entry resistance"
            )
        g[entry] = 1.0 / root
        stages[downstream] = dataclasses.replace(stages[downstream], entry_ohms=root)
    cfg = dataclasses.replace(config, stages=stages)

    # Check the returned config as built, so an entry hidden by an element
    # override is caught.
    final = _layout(cfg)
    g = 1.0 / final.branch_ohms(final.values[None])
    w = _digit_weights(cfg, solver.batch_port(g)[:, :-1])[0][0].tolist()
    for upstream, downstream in boundaries:
        ratio = w[upstream] / w[downstream]
        if abs(ratio - WEIGHT_RATIO) > 10 * RATIO_RTOL * WEIGHT_RATIO:
            raise CalibrationError(
                f"calibrated config misses ratio 3 at the stage {upstream + 1} -> "
                f"{downstream + 1} boundary (ratio {ratio!r})"
            )
    return cfg


def weights(config: DacConfig) -> WeightTable:
    """Per-stage differential weights, port impedance and full-scale summary."""
    return Dac(config).weight_table()


def perturb(config: DacConfig, seed) -> DacConfig:
    """Multiply every resistor element independently by (1 + u), u ~ U[-tol, +tol].

    Deterministic for a given seed; the draw order follows
    :func:`enumerate_elements`. The two half ladders are perturbed
    independently, as physically distinct components. A zero tolerance
    returns the config unchanged.
    """
    if config.tolerance == 0.0:
        return config
    layout = _layout(config)
    ohms = _perturbed_ohms(layout, config.tolerance, seed)
    return dataclasses.replace(config, element_overrides=dict(zip(layout.labels, ohms.tolist())))


def _perturbed_ohms(layout: _Layout, tolerance: float, seed) -> np.ndarray:
    u = np.random.default_rng(seed).uniform(-tolerance, tolerance, size=len(layout.values))
    return layout.values * (1.0 + u)


#: Trials per stacked solve in :func:`trial_weights`. It bounds the solve's
#: working memory (about 50 kB per trial on the prototype) for any trial count,
#: and keeps the default 100-trial study to one solve.
TRIAL_BLOCK = 128


def trial_weights(config: DacConfig, seed, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Loaded digit weights of the perturbed converters ``perturb(config, (seed, t))``.

    Returns (w_pos, w_neg), each of shape (trials, n_digits); row ``t`` equals
    the loaded weights of ``Dac(perturb(config, (seed, t)))``. The stages are
    walked once and all trials share one open-network topology, solved in
    stacks of :data:`TRIAL_BLOCK`; each trial's own ``z_out`` sets its load
    divider. Every row is computed alone, so a longer run extends a shorter
    one unchanged.
    """
    if trials < 1:
        raise RangeError("trials must be >= 1")
    layout = _layout(config)
    solver = NetworkSolver(layout.network(math.inf))
    blocks = []
    for start in range(0, trials, TRIAL_BLOCK):
        element_ohms = np.stack(
            [
                _perturbed_ohms(layout, config.tolerance, (seed, t))
                for t in range(start, min(start + TRIAL_BLOCK, trials))
            ]
        )
        blocks.append(solver.batch_port(1.0 / layout.branch_ohms(element_ohms)))
    port = np.concatenate(blocks)
    divider = load_divider(port[:, -1:], config.load_ohms)
    w_pos, w_neg = _digit_weights(config, port[:, :-1])
    return w_pos * divider, w_neg * divider


# --- config file format --------------------------------------------------
#
# Structured key-value text (configparser syntax): a [dac] section with
# load_ohms / r_on / tolerance, one [stage.NN] section per stage in order
# with kind / r_base / supply_v / parallel_strings (and entry_ohms once
# calibrated), plus an optional [elements] section of explicit ohm values
# for perturbed converters.


def write_config(config: DacConfig, path) -> None:
    """Write a config in the textual format read back by :func:`read_config`."""
    import configparser

    parser = configparser.ConfigParser()
    parser["dac"] = {
        "load_ohms": repr(config.load_ohms),
        "r_on": repr(config.r_on),
        "tolerance": repr(config.tolerance),
    }
    for k, st in enumerate(config.stages):
        section = {
            "kind": st.kind.value,
            "r_base": repr(st.r_base),
            "supply_v": repr(st.supply_v),
            "parallel_strings": str(st.parallel_strings),
        }
        if st.entry_ohms is not None:
            section["entry_ohms"] = repr(st.entry_ohms)
        parser[f"stage.{k + 1:02d}"] = section
    if config.element_overrides:
        parser["elements"] = {
            label: repr(value) for label, value in sorted(config.element_overrides.items())
        }
    with open(path, "w", encoding="ascii") as fh:
        parser.write(fh)


def _config_float(section, sec_name: str, key: str, default: float | None = None) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"[{sec_name}] is missing required field '{key}'")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{sec_name}] field '{key}': not a number: {raw!r}") from None


def read_config(path) -> DacConfig:
    """Parse a config file; raises ConfigError naming the offending field."""
    import configparser
    import re

    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="ascii") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    if "dac" not in parser:
        raise ConfigError("config is missing its [dac] section")
    dac_sec = parser["dac"]
    load_ohms = _config_float(dac_sec, "dac", "load_ohms", 32.0)
    r_on = _config_float(dac_sec, "dac", "r_on", 0.0)
    tolerance = _config_float(dac_sec, "dac", "tolerance", 0.0)

    stage_names: list[tuple[int, str]] = []
    for name in parser.sections():
        match = re.fullmatch(r"stage\.(\d+)", name)
        if match:
            stage_names.append((int(match.group(1)), name))
    if not stage_names:
        raise ConfigError("config defines no [stage.NN] sections")
    stage_names.sort()
    expected = list(range(1, len(stage_names) + 1))
    if [num for num, _ in stage_names] != expected:
        raise ConfigError("stage sections must be numbered consecutively from stage.01")

    stages: list[StageSpec] = []
    for num, name in stage_names:
        sec = parser[name]
        kind_raw = sec.get("kind")
        if kind_raw is None:
            raise ConfigError(f"[{name}] is missing required field 'kind'")
        try:
            kind = StageKind(kind_raw.strip().upper())
        except ValueError:
            valid = ", ".join(k.value for k in StageKind)
            raise ConfigError(f"[{name}] field 'kind': {kind_raw!r} is not one of {valid}") from None
        entry = sec.get("entry_ohms")
        stages.append(
            StageSpec(
                kind=kind,
                r_base=_config_float(sec, name, "r_base"),
                supply_v=_config_float(sec, name, "supply_v"),
                parallel_strings=int(_config_float(sec, name, "parallel_strings", 1)),
                entry_ohms=_config_float(sec, name, "entry_ohms") if entry is not None else None,
            )
        )

    overrides: dict[str, float] = {}
    if "elements" in parser:
        for label, raw in parser["elements"].items():
            try:
                overrides[label] = float(raw)
            except ValueError:
                raise ConfigError(f"[elements] field '{label}': not a number: {raw!r}") from None

    return DacConfig(
        stages=tuple(stages),
        load_ohms=load_ohms,
        r_on=r_on,
        tolerance=tolerance,
        element_overrides=overrides,
    )
