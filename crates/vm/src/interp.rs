//! The VM interpreter.
//!
//! Execution semantics reference for the compressed tiers: the BRISC
//! direct interpreter and the translated fast tier must produce the same
//! results this interpreter does. Instrumentation (per-instruction
//! execution counts) feeds the working-set experiments.

use crate::isa::{AluOp, Cond, FuncRef, Inst, MemWidth};
use crate::program::{FlatProgram, VmProgram};
use crate::reg::Reg;
use crate::VmError;
use std::collections::HashMap;
use std::sync::Arc;

/// Pseudo-address base for program functions (shared with the IR evaluator).
pub const FUNC_BASE: u32 = 0x0100_0000;
/// Pseudo-address base for host functions.
pub const HOST_BASE: u32 = FUNC_BASE + 0x10_0000;
/// Pseudo-address base for return addresses (`RA_BASE + pc`).
pub const RA_BASE: u32 = 0x0200_0000;
/// The return address that terminates the entry function.
pub const DONE: u32 = 0x03FF_FFFF;
/// Lowest address handed to globals.
pub const GLOBAL_BASE: u32 = 16;

/// The result of a program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The entry function's return value (register `n0`).
    pub value: i64,
    /// Bytes written through the host print functions.
    pub output: Vec<u8>,
    /// Instructions executed.
    pub instructions: u64,
    /// Calls performed.
    pub calls: u64,
}

/// An executable machine instance over a linked program.
#[derive(Debug)]
pub struct Machine {
    /// Shared so `run` can execute instructions through a borrow of it
    /// while the machine state changes.
    flat: Arc<FlatProgram>,
    mem: Vec<u8>,
    global_addrs: HashMap<String, u32>,
    func_index: HashMap<String, usize>,
    regs: [i64; 16],
    output: Vec<u8>,
    fuel: u64,
    instructions: u64,
    calls: u64,
    /// Execution count per flat-code index (for working-set analysis).
    pub exec_counts: Vec<u64>,
}

impl Machine {
    /// Links `program` and prepares memory and globals.
    ///
    /// # Errors
    ///
    /// Link errors, or [`VmError::Exec`] if globals do not fit.
    pub fn new(program: &VmProgram, mem_size: u32, fuel: u64) -> Result<Self, VmError> {
        let flat = FlatProgram::link(program)?;
        Self::from_flat(flat, mem_size, fuel)
    }

    /// Builds a machine from an already-linked program.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] if globals do not fit in `mem_size`.
    pub fn from_flat(flat: FlatProgram, mem_size: u32, fuel: u64) -> Result<Self, VmError> {
        let mut mem = vec![0u8; mem_size as usize];
        let mut global_addrs = HashMap::new();
        let mut next = GLOBAL_BASE;
        for g in &flat.globals {
            let aligned = next.div_ceil(4) * 4;
            if u64::from(aligned) + u64::from(g.size) > u64::from(mem_size) {
                return Err(VmError::Exec(format!("global {} does not fit", g.name)));
            }
            let start = aligned as usize;
            let n = g.init.len().min(g.size as usize);
            mem[start..start + n].copy_from_slice(&g.init[..n]);
            global_addrs.insert(g.name.clone(), aligned);
            next = aligned + g.size;
        }
        let func_index = flat
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let exec_counts = vec![0u64; flat.code.len()];
        Ok(Self {
            flat: Arc::new(flat),
            mem,
            global_addrs,
            func_index,
            regs: [0; 16],
            output: Vec::new(),
            fuel,
            instructions: 0,
            calls: 0,
            exec_counts,
        })
    }

    /// The pseudo-address of a global or function symbol.
    pub fn symbol_addr(&self, name: &str) -> Option<u32> {
        if let Some(&a) = self.global_addrs.get(name) {
            return Some(a);
        }
        if let Some(&i) = self.func_index.get(name) {
            return Some(FUNC_BASE + i as u32);
        }
        codecomp_ir::eval::HOST_FUNCTIONS
            .iter()
            .position(|&h| h == name)
            .map(|i| HOST_BASE + i as u32)
    }

    /// Runs `entry` with the given arguments.
    ///
    /// # Errors
    ///
    /// [`VmError::Exec`] on faults, missing functions, or fuel exhaustion.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> Result<RunOutcome, VmError> {
        let entry_idx = *self
            .func_index
            .get(entry)
            .ok_or_else(|| VmError::Exec(format!("undefined entry function {entry}")))?;
        // Pseudo-caller: stage arguments per the calling convention.
        let staging = (args.len().max(1) as u32) * 4;
        let top = (self.mem.len() as u32 & !3) - staging;
        self.set_reg(Reg::SP, i64::from(top));
        for (i, &a) in args.iter().enumerate() {
            self.store(top + 4 * i as u32, MemWidth::Word, a)?;
        }
        for (i, &a) in args.iter().take(4).enumerate() {
            self.regs[i] = a;
        }
        self.set_reg(Reg::RA, i64::from(RA_BASE + DONE));
        let flat = Arc::clone(&self.flat);
        let mut pc = flat.ranges[entry_idx].0;
        self.calls += 1;
        loop {
            if self.fuel == 0 {
                return Err(VmError::Exec("fuel exhausted".into()));
            }
            self.fuel -= 1;
            let Some(inst) = flat.code.get(pc) else {
                return Err(VmError::Exec(format!("pc {pc} out of code range")));
            };
            self.instructions += 1;
            self.exec_counts[pc] += 1;
            pc = match self.step(&flat, inst, pc)? {
                Next::Fall => pc + 1,
                Next::Goto(p) => p,
                Next::Done => {
                    return Ok(RunOutcome {
                        value: self.regs[0],
                        output: std::mem::take(&mut self.output),
                        instructions: self.instructions,
                        calls: self.calls,
                    });
                }
            };
        }
    }

    fn reg(&self, r: Reg) -> i64 {
        self.regs[usize::from(r.number())]
    }

    fn set_reg(&mut self, r: Reg, v: i64) {
        self.regs[usize::from(r.number())] = i64::from(v as i32);
    }

    fn step(&mut self, flat: &FlatProgram, inst: &Inst, pc: usize) -> Result<Next, VmError> {
        match inst {
            Inst::Li { rd, imm } => {
                self.set_reg(*rd, i64::from(*imm));
                Ok(Next::Fall)
            }
            Inst::Mov { rd, rs } => {
                self.set_reg(*rd, self.reg(*rs));
                Ok(Next::Fall)
            }
            Inst::Alu { op, rd, rs, rt } => {
                let v = alu(*op, self.reg(*rs), self.reg(*rt))?;
                self.set_reg(*rd, v);
                Ok(Next::Fall)
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = alu(*op, self.reg(*rs), i64::from(*imm))?;
                self.set_reg(*rd, v);
                Ok(Next::Fall)
            }
            Inst::Neg { rd, rs } => {
                self.set_reg(*rd, -self.reg(*rs));
                Ok(Next::Fall)
            }
            Inst::Not { rd, rs } => {
                self.set_reg(*rd, !self.reg(*rs));
                Ok(Next::Fall)
            }
            Inst::Sext { width, rd, rs } => {
                let v = self.reg(*rs);
                let v = match width {
                    MemWidth::Byte => i64::from(v as i8),
                    MemWidth::Short => i64::from(v as i16),
                    MemWidth::Word => i64::from(v as i32),
                };
                self.set_reg(*rd, v);
                Ok(Next::Fall)
            }
            Inst::Load {
                width,
                rd,
                off,
                base,
            } => {
                let addr = (self.reg(*base) as u32).wrapping_add(*off as u32);
                let v = self.load(addr, *width)?;
                self.set_reg(*rd, v);
                Ok(Next::Fall)
            }
            Inst::Store {
                width,
                rs,
                off,
                base,
            } => {
                let addr = (self.reg(*base) as u32).wrapping_add(*off as u32);
                self.store(addr, *width, self.reg(*rs))?;
                Ok(Next::Fall)
            }
            Inst::Spill { rs, off } => {
                let addr = (self.reg(Reg::SP) as u32).wrapping_add(*off as u32);
                self.store(addr, MemWidth::Word, self.reg(*rs))?;
                Ok(Next::Fall)
            }
            Inst::Reload { rd, off } => {
                let addr = (self.reg(Reg::SP) as u32).wrapping_add(*off as u32);
                let v = self.load(addr, MemWidth::Word)?;
                self.set_reg(*rd, v);
                Ok(Next::Fall)
            }
            Inst::Enter { amount } => {
                self.set_reg(Reg::SP, self.reg(Reg::SP) - i64::from(*amount));
                Ok(Next::Fall)
            }
            Inst::Exit { amount } => {
                self.set_reg(Reg::SP, self.reg(Reg::SP) + i64::from(*amount));
                Ok(Next::Fall)
            }
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                if cond.holds(self.reg(*rs), self.reg(*rt)) {
                    Ok(Next::Goto(*target as usize))
                } else {
                    Ok(Next::Fall)
                }
            }
            Inst::BranchImm {
                cond,
                rs,
                imm,
                target,
            } => {
                if cond.holds(self.reg(*rs), i64::from(*imm)) {
                    Ok(Next::Goto(*target as usize))
                } else {
                    Ok(Next::Fall)
                }
            }
            Inst::Jump { target } => Ok(Next::Goto(*target as usize)),
            Inst::Call {
                target: FuncRef::Symbol(name),
            } => {
                let addr = self
                    .symbol_addr(name)
                    .ok_or_else(|| VmError::Exec(format!("undefined call target {name}")))?;
                self.call_addr(addr, pc)
            }
            Inst::CallR { rs } => {
                let addr = self.reg(*rs) as u32;
                self.call_addr(addr, pc)
            }
            Inst::Rjr { rs } => {
                let v = self.reg(*rs) as u32;
                self.jump_addr(v)
            }
            Inst::Epi => {
                let fidx = flat
                    .function_at(pc)
                    .ok_or_else(|| VmError::Exec("epi outside any function".into()))?;
                let f = &flat.functions[fidx];
                let sp = self.reg(Reg::SP) as u32;
                for (i, &r) in f.saved_regs.iter().enumerate() {
                    let v = self.load(sp.wrapping_add(f.saved_slot(i) as u32), MemWidth::Word)?;
                    self.set_reg(r, v);
                }
                let ra = self.load(sp.wrapping_add(f.ra_slot() as u32), MemWidth::Word)?;
                self.set_reg(Reg::RA, ra);
                self.set_reg(Reg::SP, i64::from(sp) + i64::from(f.frame_size));
                self.jump_addr(ra as u32)
            }
            Inst::Bcopy { rd, rs, rn } => {
                let dst = self.reg(*rd) as u32;
                let src = self.reg(*rs) as u32;
                let n = self.reg(*rn) as u32;
                for i in 0..n {
                    let b = self.load(src.wrapping_add(i), MemWidth::Byte)?;
                    self.store(dst.wrapping_add(i), MemWidth::Byte, b)?;
                }
                Ok(Next::Fall)
            }
            Inst::Bzero { rd, rn } => {
                let dst = self.reg(*rd) as u32;
                let n = self.reg(*rn) as u32;
                for i in 0..n {
                    self.store(dst.wrapping_add(i), MemWidth::Byte, 0)?;
                }
                Ok(Next::Fall)
            }
            Inst::Nop => Ok(Next::Fall),
            Inst::Label(_) => Err(VmError::Exec("label reached execution".into())),
        }
    }

    fn call_addr(&mut self, addr: u32, pc: usize) -> Result<Next, VmError> {
        self.calls += 1;
        if addr >= RA_BASE {
            return Err(VmError::Exec("call to a return address".into()));
        }
        if addr >= HOST_BASE {
            let idx = (addr - HOST_BASE) as usize;
            self.host_call(idx)?;
            return Ok(Next::Fall);
        }
        if addr >= FUNC_BASE {
            let idx = (addr - FUNC_BASE) as usize;
            let start = self
                .flat
                .ranges
                .get(idx)
                .ok_or_else(|| VmError::Exec(format!("bad function address {addr:#x}")))?
                .0;
            self.set_reg(Reg::RA, i64::from(RA_BASE) + (pc as i64 + 1));
            return Ok(Next::Goto(start));
        }
        Err(VmError::Exec(format!(
            "call to non-function address {addr:#x}"
        )))
    }

    fn jump_addr(&mut self, addr: u32) -> Result<Next, VmError> {
        if addr == RA_BASE + DONE {
            return Ok(Next::Done);
        }
        if addr >= RA_BASE {
            let pc = (addr - RA_BASE) as usize;
            if pc > self.flat.code.len() {
                return Err(VmError::Exec(format!("bad return address {addr:#x}")));
            }
            return Ok(Next::Goto(pc));
        }
        Err(VmError::Exec(format!("jump to non-code address {addr:#x}")))
    }

    fn host_call(&mut self, idx: usize) -> Result<(), VmError> {
        match codecomp_ir::eval::HOST_FUNCTIONS.get(idx) {
            Some(&"print_int") => {
                let v = self.regs[0] as i32;
                self.output.extend_from_slice(v.to_string().as_bytes());
                self.output.push(b'\n');
                self.regs[0] = 0;
                Ok(())
            }
            Some(&"print_char") => {
                self.output.push(self.regs[0] as u8);
                self.regs[0] = 0;
                Ok(())
            }
            _ => Err(VmError::Exec(format!("bad host function index {idx}"))),
        }
    }

    fn load(&self, addr: u32, width: MemWidth) -> Result<i64, VmError> {
        let a = addr as usize;
        let size = width.bytes() as usize;
        if a == 0 || a + size > self.mem.len() {
            return Err(VmError::Exec(format!(
                "bad load of {size} bytes at {addr:#x}"
            )));
        }
        Ok(match width {
            MemWidth::Byte => i64::from(self.mem[a] as i8),
            MemWidth::Short => i64::from(i16::from_le_bytes([self.mem[a], self.mem[a + 1]])),
            MemWidth::Word => i64::from(i32::from_le_bytes([
                self.mem[a],
                self.mem[a + 1],
                self.mem[a + 2],
                self.mem[a + 3],
            ])),
        })
    }

    fn store(&mut self, addr: u32, width: MemWidth, value: i64) -> Result<(), VmError> {
        let a = addr as usize;
        let size = width.bytes() as usize;
        if a == 0 || a + size > self.mem.len() {
            return Err(VmError::Exec(format!(
                "bad store of {size} bytes at {addr:#x}"
            )));
        }
        match width {
            MemWidth::Byte => self.mem[a] = value as u8,
            MemWidth::Short => self.mem[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            MemWidth::Word => self.mem[a..a + 4].copy_from_slice(&(value as u32).to_le_bytes()),
        }
        Ok(())
    }
}

enum Next {
    Fall,
    Goto(usize),
    Done,
}

fn alu(op: AluOp, a: i64, b: i64) -> Result<i64, VmError> {
    let (sa, sb) = (a as i32, b as i32);
    let (ua, ub) = (a as u32, b as u32);
    let v: i32 = match op {
        AluOp::Add => sa.wrapping_add(sb),
        AluOp::Sub => sa.wrapping_sub(sb),
        AluOp::Mul => sa.wrapping_mul(sb),
        AluOp::Div => {
            if sb == 0 {
                return Err(VmError::Exec("division by zero".into()));
            }
            sa.wrapping_div(sb)
        }
        AluOp::DivU => {
            if ub == 0 {
                return Err(VmError::Exec("division by zero".into()));
            }
            (ua / ub) as i32
        }
        AluOp::Rem => {
            if sb == 0 {
                return Err(VmError::Exec("remainder by zero".into()));
            }
            sa.wrapping_rem(sb)
        }
        AluOp::RemU => {
            if ub == 0 {
                return Err(VmError::Exec("remainder by zero".into()));
            }
            (ua % ub) as i32
        }
        AluOp::And => sa & sb,
        AluOp::Or => sa | sb,
        AluOp::Xor => sa ^ sb,
        AluOp::Sll => ((ua) << (ub & 31)) as i32,
        AluOp::Srl => (ua >> (ub & 31)) as i32,
        AluOp::Sra => sa >> (ub & 31),
    };
    Ok(i64::from(v))
}

/// Evaluates the machine ALU outside a machine (used by the BRISC tiers
/// so all tiers share one arithmetic definition).
///
/// # Errors
///
/// [`VmError::Exec`] on division by zero.
pub fn alu_eval(op: AluOp, a: i64, b: i64) -> Result<i64, VmError> {
    alu(op, a, b)
}

/// Shared condition evaluation (identical to [`Cond::holds`], re-exported
/// for symmetry with [`alu_eval`]).
pub fn cond_eval(cond: Cond, a: i64, b: i64) -> bool {
    cond.holds(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_program;

    fn run(text: &str, entry: &str, args: &[i64]) -> RunOutcome {
        let p = parse_program(text).unwrap();
        Machine::new(&p, 1 << 20, 1 << 24)
            .unwrap()
            .run(entry, args)
            .unwrap()
    }

    #[test]
    fn li_and_return() {
        let out = run(
            ".func main params=0 frame=0\n    li n0,42\n    rjr ra\n.end\n",
            "main",
            &[],
        );
        assert_eq!(out.value, 42);
        assert_eq!(out.instructions, 2);
    }

    #[test]
    fn loop_sums() {
        let text = "\
.func main params=0 frame=0
    li n0,0
    li n1,1
$L1:
    bgt.i n1,10,$L2
    add.i n0,n0,n1
    add.i n1,n1,1
    j $L1
$L2:
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 55);
    }

    #[test]
    fn calls_and_frames() {
        let text = "\
.func double params=1 frame=0
    add.i n0,n0,n0
    rjr ra
.end
.func main params=0 frame=8
    enter sp,sp,8
    spill.i ra,4(sp)
    li n0,21
    call double
    reload.i ra,4(sp)
    exit sp,sp,8
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 42);
    }

    #[test]
    fn epi_restores_and_returns() {
        let text = "\
.func leaf params=0 frame=0
    li n0,7
    rjr ra
.end
.func main params=0 frame=24 saves=n4
    enter sp,sp,24
    spill.i n4,16(sp)
    spill.i ra,20(sp)
    li n4,30
    call leaf
    add.i n0,n0,n4
    epi
.end
";
        let out = run(text, "main", &[]);
        assert_eq!(out.value, 37);
    }

    #[test]
    fn the_papers_salt_function_runs() {
        // The exact §4 OmniVM listing for salt(j, i), plus a pepper stub.
        let text = "\
.func pepper params=2 frame=0
    add.i n0,n0,n1
    rjr ra
.end
.func salt params=2 frame=24 saves=n4
    enter sp,sp,24
    spill.i n4,16(sp)
    spill.i ra,20(sp)
    mov.i n4,n0
    mov.i n2,n1
    ble.i n4,0,$L56
    mov.i n1,n4
    mov.i n0,n2
    call pepper
$L56:
    add.i n0,n4,-1
    reload.i n4,16(sp)
    reload.i ra,20(sp)
    exit sp,sp,24
    rjr ra
.end
";
        // salt(j=3, i=9) = j - 1 = 2; salt(0, 9) = -1.
        assert_eq!(run(text, "salt", &[3, 9]).value, 2);
        assert_eq!(run(text, "salt", &[0, 9]).value, -1);
    }

    #[test]
    fn memory_widths_sign_extend() {
        let text = "\
.global g 4 200 0 0 0
.func main params=0 frame=0
    li n1,16
    ld.ib n0,0(n1)
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, -56);
    }

    #[test]
    fn stores_and_loads() {
        let text = "\
.func main params=0 frame=16
    enter sp,sp,16
    li n1,-300
    st.is n1,2(sp)
    ld.is n0,2(sp)
    exit sp,sp,16
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, -300);
    }

    #[test]
    fn host_output() {
        let text = "\
.func main params=0 frame=8
    enter sp,sp,8
    spill.i ra,4(sp)
    li n0,123
    call print_int
    li n0,65
    call print_char
    reload.i ra,4(sp)
    exit sp,sp,8
    li n0,0
    rjr ra
.end
";
        let out = run(text, "main", &[]);
        assert_eq!(out.output, b"123\nA");
    }

    #[test]
    fn block_macros() {
        let text = "\
.global src 4 9 8 7 6
.global dst 4
.func main params=0 frame=0
    li n0,24
    li n1,16
    li n2,4
    bcopy n0,n1,n2
    ld.ib n0,0(n0)
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 9);
    }

    #[test]
    fn unsigned_branches() {
        let text = "\
.func main params=0 frame=0
    li n1,-1
    li n0,0
    bgtu.i n1,100,$L1
    rjr ra
$L1:
    li n0,1
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[]).value, 1);
    }

    #[test]
    fn faults_detected() {
        let div0 = ".func main params=0 frame=0\n    li n0,1\n    li n1,0\n    div.i n0,n0,n1\n    rjr ra\n.end\n";
        let p = parse_program(div0).unwrap();
        assert!(Machine::new(&p, 1 << 16, 1000)
            .unwrap()
            .run("main", &[])
            .is_err());

        let null =
            ".func main params=0 frame=0\n    li n1,0\n    ld.iw n0,0(n1)\n    rjr ra\n.end\n";
        let p = parse_program(null).unwrap();
        assert!(Machine::new(&p, 1 << 16, 1000)
            .unwrap()
            .run("main", &[])
            .is_err());

        let spin = ".func main params=0 frame=0\n$L1:\n    j $L1\n.end\n";
        let p = parse_program(spin).unwrap();
        assert!(Machine::new(&p, 1 << 16, 1000)
            .unwrap()
            .run("main", &[])
            .is_err());
    }

    #[test]
    fn entry_args_arrive_in_registers_and_stack() {
        let text = "\
.func main params=6 frame=0
    ld.iw n4,16(sp)
    ld.iw n5,20(sp)
    add.i n0,n0,n1
    add.i n0,n0,n2
    add.i n0,n0,n3
    add.i n0,n0,n4
    add.i n0,n0,n5
    rjr ra
.end
";
        assert_eq!(run(text, "main", &[1, 2, 3, 4, 5, 6]).value, 21);
    }

    #[test]
    fn exec_counts_recorded() {
        let p =
            parse_program(".func main params=0 frame=0\n    li n0,1\n    rjr ra\n.end\n").unwrap();
        let m = Machine::new(&p, 1 << 16, 1000).unwrap();
        let flat_len = m.exec_counts.len();
        assert_eq!(flat_len, 2);
    }
}
