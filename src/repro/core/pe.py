"""Row Transformer processing engine (Sec. VI-B, Fig. 8, Table II).

Each PE is a 4-stage integer vector processor with:

- 7 general-purpose registers ``rf[1..7]`` plus the special ``rf[0]``
  (read = pop the input FIFO, write = push the output FIFO);
- an operand register (``opReg``) FIFO feeding the ALU's second input;
- a branchless instruction memory: the PC increments and wraps, so one
  program iteration consumes exactly one input vector per ``rf[0]``
  read and the schedule is fully static.

The model is *vector-functional*: one ``Instruction`` executes over an
entire column at once (every 32-row vector of the stream in parallel),
which is exactly the computation the hardware performs per cycle slice,
and lets the interpreter run at NumPy speed while preserving the ISA's
semantics, register pressure and program-length limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

N_REGISTERS = 8  # rf[0] is the stream port
DEFAULT_IMEM_SIZE = 8  # instructions per PE in the FPGA prototype


class Opcode(Enum):
    """Table II's instruction set."""

    PASS = "pass"
    COPY = "copy"    # rf[rd] <= rf[rs]; opReg <= rf[rs]
    STORE = "store"  # opReg <= rf[rs]
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    EQ = "eq"
    LT = "lt"
    GT = "gt"

    @property
    def is_alu(self) -> bool:
        return self in _ALU_OPS


_ALU_OPS = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.EQ, Opcode.LT,
     Opcode.GT}
)


@dataclass(frozen=True)
class Instruction:
    """One 32-bit PE instruction.

    ALU ops read ``rf[rs]`` as the first operand and either the operand
    FIFO (``imm is None``) or the immediate as the second.
    """

    opcode: Opcode
    rd: int = 0
    rs: int = 0
    imm: int | None = None

    def __post_init__(self):
        if not (0 <= self.rd < N_REGISTERS and 0 <= self.rs < N_REGISTERS):
            raise ValueError(f"register out of range in {self}")
        if self.imm is not None and not self.opcode.is_alu:
            raise ValueError(f"{self.opcode} takes no immediate")

    def __repr__(self) -> str:
        parts = [self.opcode.value, f"rd={self.rd}", f"rs={self.rs}"]
        if self.imm is not None:
            parts.append(f"imm={self.imm}")
        return f"Instr({', '.join(parts)})"


@dataclass
class PEProgram:
    """A straight-line PE program with its instruction-memory bound."""

    instructions: list[Instruction]
    imem_size: int = DEFAULT_IMEM_SIZE

    def __post_init__(self):
        if len(self.instructions) > self.imem_size:
            raise ValueError(
                f"program of {len(self.instructions)} instructions exceeds "
                f"the PE's {self.imem_size}-entry instruction memory"
            )

    def __len__(self) -> int:
        return len(self.instructions)


class PE:
    """Functional model of one processing engine.

    ``run(inputs)`` interprets the whole program once per program
    iteration: reading ``rf[0]`` pops the next input column, writing
    ``rf[0]`` pushes an output column.  All columns must have equal
    length (the row count).
    """

    def __init__(self, program: PEProgram):
        self.program = program
        self.cycles_per_iteration = len(program)

    def run(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        """Execute one full pass of the program over the input columns.

        Raises if the program pops more inputs than supplied or finishes
        with inputs left over (a mis-scheduled systolic mapping).
        """
        regs: list[np.ndarray | None] = [None] * N_REGISTERS
        op_fifo: list[np.ndarray] = []
        outputs: list[np.ndarray] = []
        in_cursor = 0

        for instr in self.program.instructions:
            # Operand read: rf[0] pops the input stream.
            rs = instr.rs
            if rs == 0:
                if in_cursor >= len(inputs):
                    raise RuntimeError("PE read past the end of its input")
                value = inputs[in_cursor]
                in_cursor += 1
            else:
                value = regs[rs]
                if value is None:
                    raise RuntimeError(f"PE read uninitialised register {rs}")

            opcode = instr.opcode
            if opcode is Opcode.STORE:
                op_fifo.append(value)
                continue
            if opcode is Opcode.COPY:
                op_fifo.append(value)
            elif opcode is not Opcode.PASS:
                if instr.imm is not None:
                    second: np.ndarray | int = instr.imm
                else:
                    if not op_fifo:
                        raise RuntimeError("PE ALU op with empty operand FIFO")
                    second = op_fifo.pop(0)
                value = _alu(opcode, value, second)

            # Result write: rf[0] pushes the output stream.
            if instr.rd == 0:
                outputs.append(value)
            else:
                regs[instr.rd] = value

        if in_cursor != len(inputs):
            raise RuntimeError(
                f"PE consumed {in_cursor} of {len(inputs)} input columns"
            )
        return outputs


def _alu(opcode: Opcode, a: np.ndarray, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    if opcode is Opcode.ADD:
        return a + b
    if opcode is Opcode.SUB:
        return a - b
    if opcode is Opcode.MUL:
        return a * b
    if opcode is Opcode.DIV:
        b_arr = np.asarray(b, dtype=np.int64)
        out = np.zeros_like(a)
        np.divide(a, b_arr, out=out, where=b_arr != 0, casting="unsafe")
        return out
    if opcode is Opcode.EQ:
        return (a == b).astype(np.int64)
    if opcode is Opcode.LT:
        return (a < b).astype(np.int64)
    if opcode is Opcode.GT:
        return (a > b).astype(np.int64)
    raise AssertionError(f"not an ALU op: {opcode}")
