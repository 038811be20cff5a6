"""Register reallocation: recolor registers to kill FFMA bank conflicts.

Generalizes the hand-crafted allocation of
:func:`repro.sgemm.register_allocation.allocate_conflict_free` (paper Fig. 9)
into a pass that works on *any* assembled kernel: it computes a global
renaming of the general-purpose registers (a bijection, RZ fixed) that
minimizes the operand register-bank conflicts of FFMA-class instructions
(FFMA/FADD/FMUL/IMAD — the opcodes the Kepler operand collector penalizes,
see :meth:`repro.sim.pipelines.CostModel.operand_bank_multiplier`).

Because the renaming is a bijection applied uniformly to every operand, the
kernel's dataflow — and therefore its semantics — is preserved exactly.  Two
structural constraints shape the search space:

* **wide-access runs**: ``LDS.64/128`` and ``LD.64/128`` write register
  pairs/quads and wide stores read them, so those registers must stay
  consecutive and in order.  Overlapping runs are merged into maximal runs
  that move as one unit.
* the 6-bit register fields cap physical indices at R62.

The solver works in two phases, mirroring how the paper reasons about the
problem (banks first, indices second):

1. **bank assignment** — each unit (run or singleton) gets a bank signature;
   a deterministic local search moves one unit at a time to the signature
   that most reduces the weighted conflict count, subject to per-bank
   capacity (16 registers per bank below R63, 15 on odd1 which loses RZ);
2. **index assignment** — units are placed into concrete free indices
   honoring their signatures, most-constrained first (runs, then registers
   with the highest conflict weight), with a lowest-index preference so the
   register footprint stays compact.

The pass validates itself: the reallocated kernel is re-analysed with
:func:`repro.sgemm.conflict_analysis.analyse_ffma_conflicts` and the result
is rejected (original kernel returned) if the renaming somehow increased the
FFMA conflict count — the pipeline therefore never regresses a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.arch.register_file import _BANK_CODE_BY_RESIDUE, register_bank
from repro.errors import RegisterAllocationError
from repro.isa.assembler import Kernel
from repro.isa.instructions import Instruction, MemRef, Opcode, Register
from repro.isa.registers import MAX_GPR_INDEX, RZ_INDEX
from repro.opt.rewrite import replace_instructions
from repro.sgemm.conflict_analysis import ConflictReport, analyse_ffma_conflicts

#: Opcodes whose source operands suffer register-bank conflicts on Kepler.
BANK_SENSITIVE_OPCODES = (Opcode.FFMA, Opcode.FADD, Opcode.FMUL, Opcode.IMAD)


@dataclass(frozen=True)
class ReallocationResult:
    """Outcome of one register-reallocation run.

    Attributes
    ----------
    kernel:
        The reallocated kernel (the input kernel if reallocation could not
        improve it).
    mapping:
        Old register index → new register index for every renamed register.
    before / after:
        FFMA conflict reports of the input and output kernels.
    applied:
        Whether the renaming was applied (False when it would not improve).
    """

    kernel: Kernel
    mapping: dict[int, int]
    before: ConflictReport
    after: ConflictReport

    applied: bool = True

    @property
    def conflicts_removed(self) -> int:
        """Number of conflicted FFMAs fixed by the renaming."""
        return (self.before.two_way + self.before.three_way) - (
            self.after.two_way + self.after.three_way
        )


# --------------------------------------------------------------------- #
# Kernel scanning: units, triples.                                      #
# --------------------------------------------------------------------- #


def _wide_accesses(instructions: tuple[Instruction, ...]) -> list[tuple[int, int]]:
    """(base register, word count) of every wide load/store in the stream."""
    accesses: list[tuple[int, int]] = []
    for instruction in instructions:
        words = instruction.width // 32
        if words <= 1:
            continue
        if instruction.opcode in (Opcode.LDS, Opcode.LD):
            if instruction.dest is not None and not instruction.dest.is_zero:
                accesses.append((instruction.dest.index, words))
        elif instruction.opcode in (Opcode.STS, Opcode.ST):
            for operand in instruction.sources:
                if isinstance(operand, Register) and not operand.is_zero:
                    accesses.append((operand.index, words))
    return accesses


def _wide_runs(instructions: tuple[Instruction, ...]) -> list[tuple[int, ...]]:
    """Maximal runs of registers that wide accesses force to stay consecutive."""
    intervals = [(base, base + words - 1) for base, words in _wide_accesses(instructions)]
    if not intervals:
        return []
    # Merge *overlapping* intervals (adjacent ones stay independent units).
    intervals.sort()
    merged: list[list[int]] = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(range(lo, hi + 1)) for lo, hi in merged]


def _allowed_residues(run: tuple[int, ...], accesses: list[tuple[int, int]]) -> tuple[int, ...]:
    """Start residues (mod 8) keeping every wide access in ``run`` aligned.

    Hardware requires an LDS.64/128 base register aligned to the access
    width (see :func:`repro.isa.validation.validate_kernel`), so a run may
    only start at indices where each access base lands on a multiple of its
    word count.  An unsatisfiable constraint set (overlapping accesses with
    incompatible phases — necessarily unaligned in the input kernel too)
    falls back to unconstrained.
    """
    residues = []
    for residue in range(8):
        ok = True
        for base, words in accesses:
            if base in run:
                position = run.index(base)
                if (residue + position) % words != 0:
                    ok = False
                    break
        if ok:
            residues.append(residue)
    return tuple(residues) if residues else tuple(range(8))


def _used_registers(instructions: tuple[Instruction, ...]) -> set[int]:
    """Every general-purpose register index the kernel touches."""
    used: set[int] = set()
    for instruction in instructions:
        for register in instruction.registers_written:
            used.add(register.index)
        for register in instruction.registers_read:
            used.add(register.index)
    used.discard(RZ_INDEX)
    return used


def _conflict_tuples(
    instructions: tuple[Instruction, ...],
) -> dict[tuple[int, ...], int]:
    """Distinct-source register tuples of bank-sensitive instructions → weight."""
    tuples: dict[tuple[int, ...], int] = {}
    for instruction in instructions:
        if instruction.opcode not in BANK_SENSITIVE_OPCODES:
            continue
        distinct = tuple(sorted(set(instruction.source_register_indices)))
        if len(distinct) < 2:
            continue
        tuples[distinct] = tuples.get(distinct, 0) + 1
    return tuples


# --------------------------------------------------------------------- #
# Phase 1: bank-signature assignment.                                   #
# --------------------------------------------------------------------- #

#: One canonical offset per bank (EVEN0, ODD0, EVEN1, ODD1): all a
#: singleton's signature needs.
_SINGLETON_OFFSETS = (0, 1, 4, 5)


def _bank_capacities(max_register: int) -> list[int]:
    """Physical indices in [0, max_register] per bank code (see
    :data:`repro.arch.register_file._BANK_CODE_BY_RESIDUE`)."""
    capacities = [0, 0, 0, 0]
    for index in range(max_register + 1):
        capacities[_BANK_CODE_BY_RESIDUE[index % 8]] += 1
    return capacities


@dataclass
class _Unit:
    """One relocatable unit: a singleton register or a consecutive run."""

    registers: tuple[int, ...]
    #: Signature: offset mod 8 of the unit's first register, which fixes the
    #: bank of every member.  Singletons use their bank's canonical offset.
    offset: int
    weight: int = 0
    #: Start residues (mod 8) the unit may be placed at; runs carrying wide
    #: accesses restrict these to alignment-preserving residues.
    allowed_offsets: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)

    @property
    def is_run(self) -> bool:
        return len(self.registers) > 1


def _penalty(counts: list[int], weight: int) -> int:
    """Weighted conflict penalty of one tuple from its per-bank counts:
    ``(degree - 1) × weight``."""
    worst = max(counts)
    return (worst - 1) * weight if worst > 1 else 0


class _BankSolver:
    """Deterministic local search over unit bank signatures.

    The search state is scored incrementally.  Every conflict tuple keeps
    its per-bank register counts and its current penalty, and the solver
    keeps the per-bank demand of the constrained units; moving a unit
    updates only the tuples it belongs to.  The gains of single-unit moves
    are cached per unit and dropped only for the units that share a tuple
    with a moved unit — the only ones whose gains a move can change.
    Every gain is the exact integer a from-scratch rescoring gives, and the
    scans keep their order and their strict ``>`` tie-breaking, so the
    search applies the same moves, in the same order, as re-scoring every
    unit at every step would.
    """

    def __init__(
        self,
        units: list[_Unit],
        tuples: dict[tuple[int, ...], int],
        capacities: list[int],
    ) -> None:
        self._units = units
        self._capacities = capacities
        self._tuple_keys = list(tuples)
        self._weights = list(tuples.values())
        unit_of: dict[int, int] = {}
        position_of: dict[int, int] = {}
        for index, unit in enumerate(units):
            for position, register in enumerate(unit.registers):
                unit_of[register] = index
                position_of[register] = position
        #: (unit index, position in unit) of every register of every tuple.
        self._members = [
            [(unit_of[r], position_of[r]) for r in regs] for regs in self._tuple_keys
        ]
        #: Per unit: (tuple index, positions of the unit's registers in it).
        self._around: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in units]
        for t, members in enumerate(self._members):
            positions: dict[int, list[int]] = {}
            for u, position in members:
                positions.setdefault(u, []).append(position)
            for u, unit_positions in positions.items():
                self._around[u].append((t, tuple(unit_positions)))
        #: Units sharing a tuple with each unit (itself included).
        self._neighbours: list[set[int]] = [{u} for u in range(len(units))]
        for members in self._members:
            shared = {u for u, _ in members}
            for u in shared:
                self._neighbours[u] |= shared
        # Weight-0 singletons (bookkeeping registers that never feed a
        # bank-sensitive instruction) are flexible: phase 2 places them in
        # whatever slots remain, so they consume no capacity here.  Runs
        # always count — their contiguity pins them to concrete banks.
        self._constrained = [unit.is_run or unit.weight > 0 for unit in units]

        self._counts = [self._counts_from_scratch(members) for members in self._members]
        self._penalties = [
            _penalty(counts, weight) for counts, weight in zip(self._counts, self._weights)
        ]
        self._total = sum(self._penalties)
        codes = _BANK_CODE_BY_RESIDUE
        self._demand = [0, 0, 0, 0]
        for u, unit in enumerate(units):
            if self._constrained[u]:
                for position in range(len(unit.registers)):
                    self._demand[codes[(unit.offset + position) % 8]] += 1
        # Per-unit caches, invalidated when a neighbour moves: penalty of the
        # unit's tuples at each residue, and its improving single moves.
        self._at: list[list[int] | dict[int, int] | None] = [None] * len(units)
        self._moves: list[list[tuple[int, int]] | None] = [None] * len(units)
        # (u, v) -> (tuple, u's positions, v's positions) they share.
        self._shared: dict[tuple[int, int], list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = {}

    # -- scoring ---------------------------------------------------------- #

    def total_penalty(self) -> int:
        """Weighted conflict penalty of the current signatures, from scratch."""
        return sum(self.tuple_penalties_from_scratch().values())

    def tuple_penalties_from_scratch(self) -> dict[tuple[int, ...], int]:
        """Penalty of every conflict tuple, recomputed from unit offsets."""
        return {
            regs: _penalty(self._counts_from_scratch(members), weight)
            for regs, members, weight in zip(self._tuple_keys, self._members, self._weights)
        }

    def _counts_from_scratch(self, members: list[tuple[int, int]]) -> list[int]:
        """Per-bank register counts of one tuple at the current offsets."""
        counts = [0, 0, 0, 0]
        for u, position in members:
            counts[_BANK_CODE_BY_RESIDUE[(self._units[u].offset + position) % 8]] += 1
        return counts

    def tuple_penalties(self) -> dict[tuple[int, ...], int]:
        """Penalty of every conflict tuple as the search maintains it."""
        return dict(zip(self._tuple_keys, self._penalties))

    def _run_penalties(self, u: int) -> dict[int, int]:
        """Penalty of run ``u``'s tuples with the run at each offset it may
        take (and its current one), in one pass."""
        codes = _BANK_CODE_BY_RESIDUE
        unit = self._units[u]
        offsets = set(unit.allowed_offsets) | {unit.offset}
        totals = dict.fromkeys(offsets, 0)
        for t, positions in self._around[u]:
            rest = self._counts[t][:]
            for position in positions:
                rest[codes[(unit.offset + position) % 8]] -= 1
            weight = self._weights[t]
            for offset in offsets:
                counts = rest[:]
                for position in positions:
                    counts[codes[(offset + position) % 8]] += 1
                worst = max(counts)
                if worst > 1:
                    totals[offset] += (worst - 1) * weight
        return totals

    def _bank_penalties(self, u: int) -> list[int]:
        """Penalty of singleton ``u``'s tuples with it on each bank, in one pass."""
        codes = _BANK_CODE_BY_RESIDUE
        own = codes[self._units[u].offset % 8]
        totals = [0, 0, 0, 0]
        for t, _ in self._around[u]:
            counts = self._counts[t][:]
            counts[own] -= 1
            rest = max(counts)
            weight = self._weights[t]
            for code in range(4):
                worst = max(counts[code] + 1, rest)
                if worst > 1:
                    totals[code] += (worst - 1) * weight
        return totals

    def _penalty_at(self, u: int, offset: int) -> int:
        """Penalty of unit ``u``'s tuples with it at ``offset`` (cached)."""
        at = self._at[u]
        if len(self._units[u].registers) == 1:
            # Only a singleton's bank matters.
            if at is None:
                at = self._at[u] = self._bank_penalties(u)
            return at[_BANK_CODE_BY_RESIDUE[offset % 8]]
        if at is None:
            at = self._at[u] = self._run_penalties(u)
        return at[offset]

    def _single_moves(self, u: int) -> list[tuple[int, int]]:
        """(offset, gain) of every strictly improving re-signing of ``u``."""
        moves = self._moves[u]
        if moves is None:
            moves = []
            current = self._penalty_at(u, self._units[u].offset)
            if current:
                unit = self._units[u]
                # Runs sweep their alignment-legal signatures; singletons
                # only need one canonical offset per bank.
                offsets = unit.allowed_offsets if unit.is_run else _SINGLETON_OFFSETS
                for offset in offsets:
                    if offset != unit.offset:
                        gain = current - self._penalty_at(u, offset)
                        if gain > 0:
                            moves.append((offset, gain))
            self._moves[u] = moves
        return moves

    # -- state updates ---------------------------------------------------- #

    def _set_offset(self, u: int, offset: int) -> None:
        """Re-sign unit ``u``, updating its tuples' counts and the demand."""
        unit = self._units[u]
        old = unit.offset
        if old == offset:
            return
        codes = _BANK_CODE_BY_RESIDUE
        penalties = self._penalties
        weights = self._weights
        for t, positions in self._around[u]:
            counts = self._counts[t]
            for position in positions:
                counts[codes[(old + position) % 8]] -= 1
                counts[codes[(offset + position) % 8]] += 1
            worst = max(counts)
            penalty = (worst - 1) * weights[t] if worst > 1 else 0
            self._total += penalty - penalties[t]
            penalties[t] = penalty
        if self._constrained[u]:
            demand = self._demand
            for position in range(len(unit.registers)):
                demand[codes[(old + position) % 8]] -= 1
                demand[codes[(offset + position) % 8]] += 1
        unit.offset = offset

    def _move(self, u: int, offset: int) -> None:
        """Apply a move for good: re-sign and drop the stale neighbour caches."""
        self._set_offset(u, offset)
        for v in self._neighbours[u]:
            self._at[v] = None
            self._moves[v] = None

    def _fits(self, *moves: tuple[int, int]) -> bool:
        """Whether re-signing (unit, offset) ``moves`` keeps every bank in
        capacity.  Flexible units (weight-0 singletons, e.g. one side of a
        swap) are absent from the demand and move freely."""
        codes = _BANK_CODE_BY_RESIDUE
        demand = self._demand[:]
        for u, offset in moves:
            if self._constrained[u]:
                base = self._units[u].offset
                for position in range(len(self._units[u].registers)):
                    demand[codes[(base + position) % 8]] -= 1
                    demand[codes[(offset + position) % 8]] += 1
        return all(need <= room for need, room in zip(demand, self._capacities))

    # -- move evaluation -------------------------------------------------- #

    def _swap_gain(self, u: int, v: int) -> int:
        """Penalty reduction from exchanging the signatures of two units."""
        first, second = self._units[u].offset, self._units[v].offset
        gain = (
            self._penalty_at(u, first) - self._penalty_at(u, second)
            + self._penalty_at(v, second) - self._penalty_at(v, first)
        )
        if v in self._neighbours[u]:
            gain += self._shared_correction(u, v)
        return gain

    def _shared_correction(self, u: int, v: int) -> int:
        """What scoring a swap as two separate re-signings miscounts.

        Only the tuples holding both units are miscounted; on each the true
        penalty after the swap replaces the two one-sided ones.
        """
        shared = self._shared.get((u, v))
        if shared is None:
            positions_of_v = dict(self._around[v])
            shared = self._shared[u, v] = [
                (t, positions, positions_of_v[t])
                for t, positions in self._around[u]
                if t in positions_of_v
            ]
        codes = _BANK_CODE_BY_RESIDUE
        first, second = self._units[u].offset, self._units[v].offset
        correction = 0
        for t, positions_u, positions_v in shared:
            weight = self._weights[t]
            moved_u = self._counts[t][:]
            for position in positions_u:
                moved_u[codes[(first + position) % 8]] -= 1
                moved_u[codes[(second + position) % 8]] += 1
            moved_v = self._counts[t][:]
            both = moved_u[:]
            for position in positions_v:
                for counts in (moved_v, both):
                    counts[codes[(second + position) % 8]] -= 1
                    counts[codes[(first + position) % 8]] += 1
            correction += (
                _penalty(moved_u, weight) + _penalty(moved_v, weight)
                - self._penalties[t] - _penalty(both, weight)
            )
        return correction

    def _partners_of(self, u: int) -> list[int]:
        """Singleton units sharing a conflict tuple with ``u`` (weight-desc)."""
        units = self._units
        partners = [v for v in self._neighbours[u] if v != u and not units[v].is_run]
        return sorted(partners, key=lambda v: (-units[v].weight, units[v].registers))

    def _composite_gain(self, u: int, offset: int) -> tuple[int, list[tuple[int, int]]]:
        """Gain from moving unit ``u`` to ``offset`` with partner adaptation.

        Moving a run often trades one conflict for another *unless* the
        singletons it shares tuples with (e.g. FFMA accumulators) re-pick
        their banks too.  This evaluates the run move together with a greedy
        re-pick of every singleton partner, which escapes the plateaus a
        one-unit-at-a-time search cannot cross.
        """
        if not self._fits((u, offset)):
            return 0, []
        before = self._total
        saved = [(u, self._units[u].offset)]
        self._set_offset(u, offset)
        plan = [(u, offset)]
        codes = _BANK_CODE_BY_RESIDUE
        for partner in self._partners_of(u):
            current = self._units[partner].offset
            penalties = self._bank_penalties(partner)
            best_offset = current
            best_penalty = penalties[codes[current % 8]]
            for candidate in _SINGLETON_OFFSETS:
                if candidate == current:
                    continue
                penalty = penalties[codes[candidate]]
                if penalty < best_penalty and self._fits((partner, candidate)):
                    best_penalty = penalty
                    best_offset = candidate
            if best_offset != current:
                saved.append((partner, current))
                self._set_offset(partner, best_offset)
                plan.append((partner, best_offset))
        gain = before - self._total
        for moved, original in reversed(saved):
            self._set_offset(moved, original)
        return gain, plan

    def solve(self, max_moves: int = 256) -> None:
        """Greedy best-improvement moves until a fixed point (or move cap).

        Three move kinds, tried in order of cost: re-signing one unit
        (subject to bank capacity); swapping the signatures of two
        equal-length units (demand-invariant, escapes capacity binds); and a
        composite run move with greedy partner re-picks (escapes plateaus
        where a run move alone only trades conflicts).  Every applied move
        strictly reduces the weighted conflict penalty, so the search
        terminates.
        """
        units = self._units
        movable = [u for u in range(len(units)) if self._around[u]]
        by_length: dict[int, list[int]] = {}
        for v, unit in enumerate(units):
            by_length.setdefault(len(unit.registers), []).append(v)
        for _ in range(max_moves):
            best_gain = 0
            best_move: tuple[int, int] | None = None
            for u in movable:
                for offset, gain in self._single_moves(u):
                    if gain > best_gain and self._fits((u, offset)):
                        best_gain = gain
                        best_move = (u, offset)
            if best_move is not None:
                self._move(*best_move)
                continue

            best_swap: tuple[int, int] | None = None
            for u in movable:
                unit = units[u]
                current = self._penalty_at(u, unit.offset)
                if current == 0:
                    continue
                for v in by_length[len(unit.registers)]:
                    other = units[v]
                    if (
                        v == u
                        or other.offset == unit.offset
                        or other.offset not in unit.allowed_offsets
                        or unit.offset not in other.allowed_offsets
                        # A swap can at best clear both units' penalties.
                        or current + self._penalty_at(v, other.offset) <= best_gain
                    ):
                        continue
                    gain = self._swap_gain(u, v)
                    if gain > best_gain and self._fits((u, other.offset), (v, unit.offset)):
                        best_gain = gain
                        best_swap = (u, v)
            if best_swap is not None:
                u, v = best_swap
                first, second = units[u].offset, units[v].offset
                self._move(u, second)
                self._move(v, first)
                continue

            best_plan: list[tuple[int, int]] | None = None
            for u in movable:
                unit = units[u]
                if not unit.is_run or self._penalty_at(u, unit.offset) == 0:
                    continue
                for offset in unit.allowed_offsets:
                    if offset == unit.offset:
                        continue
                    gain, plan = self._composite_gain(u, offset)
                    if gain > best_gain:
                        best_gain = gain
                        best_plan = plan
            if best_plan is None:
                return
            for u, offset in best_plan:
                self._move(u, offset)


# --------------------------------------------------------------------- #
# Phase 2: concrete index assignment.                                   #
# --------------------------------------------------------------------- #


def _assign_indices(
    units: list[_Unit],
    max_register: int,
) -> dict[int, int]:
    """Place every unit at concrete indices honoring its bank signature."""
    free = set(range(max_register + 1))
    mapping: dict[int, int] = {}

    def place_run(unit: _Unit) -> None:
        length = len(unit.registers)
        # Prefer starts matching the chosen signature, then any other
        # alignment-legal residue.  Alignment-violating starts are never
        # used: emitting a misaligned wide access would trade a soft
        # performance property for a hardware-invalid kernel, so running out
        # of legal windows aborts the reallocation instead (the caller then
        # keeps the original kernel).
        all_starts = list(range(max_register - length + 2))
        starts = [s for s in all_starts if s % 8 == unit.offset % 8]
        starts += [
            s
            for s in all_starts
            if s % 8 != unit.offset % 8 and s % 8 in unit.allowed_offsets
        ]
        for start in starts:
            window = range(start, start + length)
            if all(index in free for index in window):
                for register, index in zip(unit.registers, window):
                    mapping[register] = index
                    free.discard(index)
                return
        raise RegisterAllocationError(
            f"no alignment-preserving window of {length} free registers for a wide-access run"
        )

    def place_singleton(unit: _Unit) -> None:
        register = unit.registers[0]
        wanted = register_bank(unit.offset % 8)
        candidates = [i for i in sorted(free) if register_bank(i) == wanted]
        if not candidates:
            candidates = sorted(free)
        if not candidates:
            raise RegisterAllocationError("register file exhausted during reallocation")
        mapping[register] = candidates[0]
        free.discard(candidates[0])

    runs = sorted((u for u in units if u.is_run), key=lambda u: (-len(u.registers), u.registers))
    singles = sorted(
        (u for u in units if not u.is_run), key=lambda u: (-u.weight, u.registers)
    )
    for unit in runs:
        place_run(unit)
    for unit in singles:
        place_singleton(unit)
    return mapping


# --------------------------------------------------------------------- #
# Instruction rewriting.                                                #
# --------------------------------------------------------------------- #


#: Instruction's dataclass fields, copied by :func:`_rename`.
_INSTRUCTION_FIELDS = tuple(field.name for field in fields(Instruction))


def _register_table(mapping: dict[int, int]) -> dict[int, Register]:
    """The renamed register of every index ``mapping`` actually moves (RZ
    never moves)."""
    return {
        old: Register(new)
        for old, new in mapping.items()
        if old != new and old != RZ_INDEX
    }


def _rename(instruction: Instruction, table: dict[int, Register]) -> Instruction:
    """``instruction`` with its registers renamed through a register table."""
    changed = False
    sources = []
    for operand in instruction.sources:
        if isinstance(operand, Register):
            renamed = table.get(operand.index)
            if renamed is not None:
                operand = renamed
                changed = True
        elif isinstance(operand, MemRef):
            renamed = table.get(operand.base.index)
            if renamed is not None:
                operand = MemRef(base=renamed, offset=operand.offset)
                changed = True
        sources.append(operand)
    dest = instruction.dest
    if dest is not None:
        renamed = table.get(dest.index)
        if renamed is not None:
            dest = renamed
            changed = True
    if not changed:
        return instruction
    # Field by field: ``dataclasses.replace`` re-reads the field list and
    # re-runs ``__init__`` per call, and this runs for nearly every
    # instruction of a kernel.  ``Instruction.__post_init__`` still validates.
    copy = object.__new__(Instruction)
    state = copy.__dict__
    original = instruction.__dict__
    for name in _INSTRUCTION_FIELDS:
        state[name] = original[name]
    state["dest"] = dest
    state["sources"] = tuple(sources)
    copy.__post_init__()
    return copy


def rename_registers(instruction: Instruction, mapping: dict[int, int]) -> Instruction:
    """``instruction`` with every register operand renamed through ``mapping``.

    Returns ``instruction`` itself when no operand actually changes — the
    identity mapping is common.  RZ is never renamed.
    """
    return _rename(instruction, _register_table(mapping))


# --------------------------------------------------------------------- #
# The pass.                                                             #
# --------------------------------------------------------------------- #


def reallocate_registers(
    kernel: Kernel,
    *,
    max_register: int = MAX_GPR_INDEX,
    max_moves: int = 256,
) -> ReallocationResult:
    """Compute and apply a bank-conflict-minimizing register renaming.

    Parameters
    ----------
    kernel:
        Any assembled kernel.
    max_register:
        Highest physical index the renaming may use (R62 by default — the
        6-bit encoding limit).
    max_moves:
        Cap on local-search moves in the bank-assignment phase.

    Returns
    -------
    ReallocationResult
        The (possibly unchanged) kernel plus before/after conflict reports.
        The renaming is only applied when it does not increase the FFMA
        conflict count, so the pass never regresses a kernel.
    """
    before = analyse_ffma_conflicts(kernel)
    used = _used_registers(kernel.instructions)
    if not used:
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)
    if max(used) > max_register:
        raise RegisterAllocationError(
            f"kernel uses R{max(used)}, beyond the requested max register R{max_register}"
        )

    runs = _wide_runs(kernel.instructions)
    accesses = _wide_accesses(kernel.instructions)
    in_run = {register for run in runs for register in run}
    tuples = _conflict_tuples(kernel.instructions)

    weight_of: dict[int, int] = {}
    for regs, weight in tuples.items():
        for register in regs:
            weight_of[register] = weight_of.get(register, 0) + weight

    units = [
        _Unit(
            registers=run,
            offset=run[0] % 8,
            weight=sum(weight_of.get(r, 0) for r in run),
            allowed_offsets=_allowed_residues(run, accesses),
        )
        for run in runs
    ]
    units += [
        _Unit(registers=(register,), offset=register % 8, weight=weight_of.get(register, 0))
        for register in sorted(used - in_run)
    ]

    solver = _BankSolver(units, tuples, _bank_capacities(max_register))
    solver.solve(max_moves=max_moves)
    try:
        mapping = _assign_indices(units, max_register)
    except RegisterAllocationError:
        # No legal placement (e.g. alignment constraints exhausted the free
        # windows): keep the original kernel rather than emit a worse one.
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)

    # Unrolled code repeats equal instructions (about half of an SGEMM
    # kernel): rename and encode each distinct one once.
    table = _register_table(mapping)
    renamings: dict[Instruction, Instruction] = {}
    renamed = []
    for instruction in kernel.instructions:
        renaming = renamings.get(instruction)
        if renaming is None:
            renaming = renamings[instruction] = _rename(instruction, table)
        renamed.append(renaming)
    candidate = replace_instructions(
        kernel,
        tuple(renamed),
        metadata_updates={"opt.reallocated": True},
    )
    after = analyse_ffma_conflicts(candidate)
    if after.two_way + after.three_way > before.two_way + before.three_way:
        return ReallocationResult(kernel=kernel, mapping={}, before=before, after=before, applied=False)
    return ReallocationResult(kernel=candidate, mapping=mapping, before=before, after=after)
