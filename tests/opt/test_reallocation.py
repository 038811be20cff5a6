"""Tests for the bank-conflict-eliminating register reallocation."""

from __future__ import annotations

import random

import pytest

from repro.isa.builder import KernelBuilder
from repro.isa.encoding import encode_instruction
from repro.isa.instructions import Instruction, MemRef, Opcode
from repro.isa.registers import Register
from repro.opt.reallocation import _wide_runs, reallocate_registers
from repro.sgemm.config import SgemmKernelConfig, SgemmVariant
from repro.sgemm.conflict_analysis import analyse_ffma_conflicts
from repro.sgemm.generator import generate_naive_sgemm_kernel


class TestWideRuns:
    def test_wide_load_creates_run(self):
        builder = KernelBuilder()
        builder.lds(6, MemRef(base=Register(1)), width=64)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(6, 7)]

    def test_overlapping_runs_merge(self):
        builder = KernelBuilder()
        builder.lds(6, MemRef(base=Register(1)), width=64)
        builder.lds(7, MemRef(base=Register(1)), width=64)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(6, 7, 8)]

    def test_adjacent_runs_stay_separate(self):
        builder = KernelBuilder()
        builder.lds(6, MemRef(base=Register(1)), width=64)
        builder.lds(8, MemRef(base=Register(1)), width=64)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(6, 7), (8, 9)]

    def test_wide_store_source_creates_run(self):
        builder = KernelBuilder()
        builder.sts(MemRef(base=Register(1)), 10, width=128)
        builder.exit()
        assert _wide_runs(builder.build().instructions) == [(10, 11, 12, 13)]


class TestReallocation:
    def test_naive_sgemm_reaches_zero_conflicts(self, naive_kernel):
        result = reallocate_registers(naive_kernel)
        assert result.applied
        assert result.before.two_way + result.before.three_way > 0
        assert result.after.two_way == 0
        assert result.after.three_way == 0
        assert result.kernel.register_count <= 63

    @pytest.mark.parametrize("variant", list(SgemmVariant))
    def test_all_variants_reach_zero_conflicts(self, variant):
        kernel = generate_naive_sgemm_kernel(
            SgemmKernelConfig(m=96, n=96, k=16, variant=variant)
        )
        result = reallocate_registers(kernel)
        assert result.after.two_way == 0 and result.after.three_way == 0

    @pytest.mark.parametrize(
        "blocking,lds_width,threads",
        [(4, 64, 256), (5, 32, 256), (6, 32, 256), (3, 64, 256), (4, 32, 64)],
    )
    def test_other_shapes_reach_zero_conflicts(self, blocking, lds_width, threads):
        tile = int(threads**0.5) * blocking
        size = tile * (2 if tile % 2 else 1)
        kernel = generate_naive_sgemm_kernel(
            SgemmKernelConfig(
                m=size,
                n=size,
                k=16,
                register_blocking=blocking,
                lds_width_bits=lds_width,
                threads_per_block=threads,
            )
        )
        result = reallocate_registers(kernel)
        assert result.after.two_way == 0 and result.after.three_way == 0

    def test_mapping_is_a_bijection(self, naive_kernel):
        result = reallocate_registers(naive_kernel)
        values = list(result.mapping.values())
        assert len(values) == len(set(values))
        assert all(0 <= v <= 62 for v in values)

    def test_dataflow_shape_preserved(self, naive_kernel):
        """Renaming must not change the instruction skeleton."""
        result = reallocate_registers(naive_kernel)
        assert result.kernel.instruction_mix() == naive_kernel.instruction_mix()
        assert result.kernel.branch_targets == naive_kernel.branch_targets
        for old, new in zip(naive_kernel.instructions, result.kernel.instructions):
            assert old.opcode is new.opcode
            assert old.width == new.width
            assert len(old.sources) == len(new.sources)

    def test_wide_runs_stay_consecutive(self, naive_kernel):
        result = reallocate_registers(naive_kernel)
        for instruction in result.kernel.instructions:
            if instruction.opcode is Opcode.LDS and instruction.width == 64:
                written = instruction.registers_written
                assert written[1].index == written[0].index + 1

    def test_wide_accesses_stay_aligned(self, naive_kernel):
        """Hardware requires wide bases aligned to the access width; the
        recoloring must not break that (validate_kernel would warn)."""
        result = reallocate_registers(naive_kernel)
        for instruction in result.kernel.instructions:
            words = instruction.width // 32
            if words > 1 and instruction.opcode is Opcode.LDS:
                assert instruction.dest.index % words == 0

    def test_reallocated_kernel_validates_clean(self, naive_kernel, fermi, kepler):
        from repro.isa import validate_kernel

        result = reallocate_registers(naive_kernel)
        for gpu in (fermi, kepler):
            report = validate_kernel(result.kernel, gpu)
            assert report.ok
            assert not report.warnings

    def test_conflict_free_kernel_left_alone_or_kept_clean(self):
        from repro.sgemm.generator import generate_sgemm_kernel

        kernel = generate_sgemm_kernel(SgemmKernelConfig(m=96, n=96, k=16))
        assert analyse_ffma_conflicts(kernel).two_way == 0
        result = reallocate_registers(kernel)
        assert result.after.two_way == 0 and result.after.three_way == 0

    def test_kernel_without_registers_is_untouched(self):
        builder = KernelBuilder()
        builder.nop()
        builder.exit()
        kernel = builder.build()
        result = reallocate_registers(kernel)
        assert not result.applied
        assert result.kernel is kernel


# --------------------------------------------------------------------- #
# The incremental bank solver against a full-rescan oracle.             #
# --------------------------------------------------------------------- #

_CODES = (0, 2, 0, 2, 1, 3, 1, 3)  # bank code of each residue (EVEN0/EVEN1/ODD0/ODD1)


class _FullRescanSolver:
    """The bank search re-scoring every unit from scratch at every step.

    A literal statement of the search the incremental ``_BankSolver`` must
    reproduce move for move: same scan order, same three move kinds, same
    strict ``>`` tie-breaking — only the scoring is naive.
    """

    def __init__(self, units, tuples, capacities):
        self.units = units
        self.tuples = tuples
        self.capacities = capacities
        self.unit_of = {r: u for u in units for r in u.registers}
        self.around = {
            id(u): [t for t in tuples if set(t) & set(u.registers)] for u in units
        }

    def bank(self, register, unit=None, offset=None):
        unit = unit or self.unit_of[register]
        base = unit.offset if offset is None else offset
        return _CODES[(base + unit.registers.index(register)) % 8]

    def penalty(self, regs, moved=None, offset=None):
        counts = [0, 0, 0, 0]
        for r in regs:
            unit = self.unit_of[r]
            counts[self.bank(r, unit, offset if unit is moved else None)] += 1
        return (max(counts) - 1) * self.tuples[regs] if max(counts) > 1 else 0

    def around_penalty(self, unit, offset=None):
        return sum(self.penalty(t, unit, offset) for t in self.around[id(unit)])

    def total(self):
        return sum(self.penalty(t) for t in self.tuples)

    def fits(self, moves=()):
        saved = [(u, u.offset) for u, _ in moves]
        for u, o in moves:
            u.offset = o
        demand = [0, 0, 0, 0]
        for u in self.units:
            if u.is_run or u.weight:
                for r in u.registers:
                    demand[self.bank(r, u)] += 1
        for u, o in saved:
            u.offset = o
        return all(d <= c for d, c in zip(demand, self.capacities))

    def move_fits(self, unit, offset):
        # Only weighted units (always counted in demand) are ever re-signed.
        assert unit.is_run or unit.weight
        return self.fits([(unit, offset)])

    def solve(self, max_moves=256):
        movable = [u for u in self.units if self.around[id(u)]]
        for _ in range(max_moves):
            best_gain, best = 0, None
            for u in movable:
                current = self.around_penalty(u)
                if current == 0:
                    continue
                for o in u.allowed_offsets if u.is_run else (0, 1, 4, 5):
                    if o != u.offset:
                        gain = current - self.around_penalty(u, o)
                        if gain > best_gain and self.move_fits(u, o):
                            best_gain, best = gain, [(u, o)]
            if best is None:
                for u in movable:
                    if self.around_penalty(u) == 0:
                        continue
                    for v in self.units:
                        if (v is u or len(v.registers) != len(u.registers)
                                or v.offset == u.offset
                                or v.offset not in u.allowed_offsets
                                or u.offset not in v.allowed_offsets):
                            continue
                        swap = [(u, v.offset), (v, u.offset)]
                        gain = self.total() - self._total_after(swap)
                        if gain > best_gain and self.fits(swap):
                            best_gain, best = gain, swap
            if best is None:
                for u in movable:
                    if not u.is_run or self.around_penalty(u) == 0:
                        continue
                    for o in u.allowed_offsets:
                        if o != u.offset:
                            gain, plan = self._composite(u, o)
                            if gain > best_gain:
                                best_gain, best = gain, plan
            if best is None:
                return
            for u, o in best:
                u.offset = o

    def _total_after(self, moves):
        saved = [(u, u.offset) for u, _ in moves]
        for u, o in moves:
            u.offset = o
        total = self.total()
        for u, o in saved:
            u.offset = o
        return total

    def _composite(self, unit, offset):
        if not self.move_fits(unit, offset):
            return 0, []
        before = self.total()
        partners = sorted(
            {id(self.unit_of[r]): self.unit_of[r]
             for t in self.around[id(unit)] for r in t
             if self.unit_of[r] is not unit and not self.unit_of[r].is_run}.values(),
            key=lambda p: (-p.weight, p.registers),
        )
        saved = [(unit, unit.offset)] + [(p, p.offset) for p in partners]
        unit.offset = offset
        plan = [(unit, offset)]
        for p in partners:
            best_o, best_pen = p.offset, self.around_penalty(p)
            for o in (0, 1, 4, 5):
                if o != p.offset:
                    pen = self.around_penalty(p, o)
                    if pen < best_pen and self.move_fits(p, o):
                        best_o, best_pen = o, pen
            if best_o != p.offset:
                p.offset = best_o
                plan.append((p, best_o))
        gain = before - self.total()
        for u, o in saved:
            u.offset = o
        return gain, plan


def _random_problem(seed):
    """Seeded units (singletons and wide runs), conflict tuples, capacities."""
    from repro.opt.reallocation import _Unit, _bank_capacities

    rng = random.Random(seed)
    count = rng.randint(12, 40)
    registers = list(range(count))
    runs, position = [], 0
    while position < count - 4:
        if rng.random() < 0.15:
            length = rng.choice((2, 2, 4))
            runs.append(tuple(registers[position:position + length]))
            position += length
        position += 1
    in_run = {r for run in runs for r in run}
    tuples: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(count // 2, 2 * count)):
        regs = tuple(sorted(rng.sample(registers, rng.choice((2, 3, 3)))))
        tuples[regs] = tuples.get(regs, 0) + rng.randint(1, 4)
    weight = {}
    for regs, w in tuples.items():
        for r in regs:
            weight[r] = weight.get(r, 0) + w

    def build():
        units = [
            _Unit(registers=run, offset=run[0] % 8,
                  weight=sum(weight.get(r, 0) for r in run),
                  allowed_offsets=tuple(o for o in range(8) if o % len(run) == 0))
            for run in runs
        ]
        units += [
            _Unit(registers=(r,), offset=r % 8, weight=weight.get(r, 0))
            for r in registers if r not in in_run
        ]
        return units

    # Tight register files make the capacity checks bind.
    capacities = _bank_capacities(count + rng.choice((0, 3, 8, 22)))
    return build, tuples, capacities


class TestIncrementalBankSolver:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_moves_as_the_full_rescan(self, seed):
        from repro.opt.reallocation import _BankSolver

        build, tuples, capacities = _random_problem(seed)
        for max_moves in (1, 2, 3, 5, 8, 256):
            units, oracle_units = build(), build()
            _BankSolver(units, tuples, capacities).solve(max_moves=max_moves)
            _FullRescanSolver(oracle_units, tuples, capacities).solve(max_moves=max_moves)
            assert [u.offset for u in units] == [u.offset for u in oracle_units], max_moves

    @pytest.mark.parametrize("seed", range(40))
    def test_maintained_penalties_track_a_from_scratch_rescore(self, seed):
        from repro.opt.reallocation import _BankSolver

        build, tuples, capacities = _random_problem(seed)
        moves = []

        class Checked(_BankSolver):
            def _move(self, u, offset):
                super()._move(u, offset)
                moves.append((u, offset))
                scratch = self.tuple_penalties_from_scratch()
                assert self.tuple_penalties() == scratch
                assert self._total == sum(scratch.values()) == self.total_penalty()

        solver = Checked(build(), tuples, capacities)
        before = solver.total_penalty()
        solver.solve()
        assert solver.total_penalty() <= before
        if before:
            assert moves, "a conflicted random problem should admit some move"


class TestRenameRegisters:
    def test_matches_the_dataclasses_replace_form(self):
        import dataclasses

        from repro.isa.instructions import Immediate, Instruction
        from repro.isa.registers import RZ, predicate
        from repro.opt.reallocation import rename_registers

        mapping = {1: 7, 2: 2, 3: 12, 6: 8, 7: 1}
        instructions = [
            Instruction(Opcode.FFMA, Register(1), (Register(3), RZ, Register(1)),
                        predicate=predicate(2), predicate_negated=True,
                        comment="acc", provenance="compute/ffma"),
            Instruction(Opcode.LDS, Register(6), (MemRef(base=Register(3), offset=8),),
                        width=64, provenance="compute/lds"),
            Instruction(Opcode.STS, None, (MemRef(base=RZ, offset=4), Register(7)),
                        width=128),
            Instruction(Opcode.ISETP, None, (Register(2), Immediate(5)),
                        dest_predicate=predicate(3), compare_op="LT"),
            Instruction(Opcode.MOV32I, Register(9), (Immediate(1.5),)),
        ]

        def renamed(register):
            if register.is_zero:
                return register
            return Register(mapping.get(register.index, register.index))

        for instruction in instructions:
            sources = tuple(
                renamed(op) if isinstance(op, Register)
                else MemRef(base=renamed(op.base), offset=op.offset) if isinstance(op, MemRef)
                else op
                for op in instruction.sources
            )
            dest = None if instruction.dest is None else renamed(instruction.dest)
            expected = dataclasses.replace(instruction, dest=dest, sources=sources)
            got = rename_registers(instruction, mapping)
            assert got == expected
            assert all(
                getattr(got, f.name) == getattr(expected, f.name)
                for f in dataclasses.fields(Instruction)
            )
            assert encode_instruction(got) == encode_instruction(expected)
            if expected == instruction:
                assert got is instruction

    def test_renamed_instruction_is_still_validated(self):
        from repro.errors import IsaError
        from repro.opt.reallocation import _rename

        bad = Instruction(Opcode.LDS, Register(4), (MemRef(base=Register(1)),), width=64)
        object.__setattr__(bad, "width", 48)  # corrupt after construction
        with pytest.raises(IsaError):
            _rename(bad, {4: Register(6)})
