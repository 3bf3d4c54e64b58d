//! Compile-once bytecode VM for polynomial expression evaluation.
//!
//! The violation path substitutes segment models into operator predicates
//! thousands of times per second; rebuilding [`Expr`] trees (or even
//! re-walking a retained tree) per segment allocates and chases pointers.
//! This module compiles an expression **once** into a flat bytecode
//! program ([`VmProgram`]) over a stack of polynomials, with two storage
//! pools resolved at compile time:
//!
//! * a **constant pool** holding every literal as a prebuilt [`Poly`], and
//! * **coefficient slots** ([`SlotMap`]) — one per distinct `(input, attr)`
//!   reference — that the caller fills with the incoming segment's model
//!   polynomials before each run.
//!
//! Substitution therefore becomes: write coefficients into preallocated
//! slots, then run a tight loop of in-place polynomial ops on a reusable
//! stack ([`ExprVm`]). One `ExprVm` instance lives per operator (and so per
//! shard); once its buffers are warm, a run performs no heap allocation.
//!
//! Every arithmetic op uses the in-place `Poly` kernels that are
//! bit-identical to the allocating ones, so VM results match the tree walk
//! (`Expr::to_poly`) bit for bit — a property the differential suite and
//! `vm_equiv` tests pin down.

use crate::expr::{Expr, ExprError};
use pulse_math::Poly;

/// One bytecode instruction. The program is the postorder flattening of an
/// [`Expr`], so execution is a single forward pass over the ops.
///
/// | op        | stack effect        | notes                                |
/// |-----------|---------------------|--------------------------------------|
/// | `Const i` | push `consts[i]`    | literal from the constant pool       |
/// | `Slot i`  | push `slots[i]`     | caller-bound model coefficients      |
/// | `Time`    | push `t`            | the identity polynomial              |
/// | `Add`     | `a b → a+b`         | in-place pointwise sum               |
/// | `Sub`     | `a b → a−b`         | difference form                      |
/// | `Mul`     | `a b → a·b`         | coefficient convolution              |
/// | `Div`     | `a b → a·(1/b)`     | `b` must run to a non-zero constant  |
/// | `Neg`     | `a → −a`            |                                      |
/// | `Pow n`   | `a → aⁿ`            | repeated squaring                    |
/// | `Fail s`  | —                   | irrational residue: errors when run  |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Const(u16),
    Slot(u16),
    Time,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Pow(u32),
    /// `sqrt`/`abs` survived normalization: running the program reports the
    /// same `NotPolynomial` error the tree walk would.
    Fail(&'static str),
}

/// Coefficient-slot table shared by every program compiled against it: one
/// slot per distinct `(input, attr)` reference, in first-occurrence order.
/// A [`SystemTemplate`]-style caller compiles all of its row programs
/// against one `SlotMap`, then binds each referenced model exactly once
/// per segment regardless of how many rows mention it.
///
/// [`SystemTemplate`]: https://en.wikipedia.org/wiki/Template_method_pattern
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    attrs: Vec<(usize, usize)>,
}

impl SlotMap {
    pub fn new() -> Self {
        SlotMap::default()
    }

    /// Slot index for `(input, attr)`, interning a new slot on first use.
    /// Linear scan: templates reference a handful of attributes.
    pub fn slot_of(&mut self, input: usize, attr: usize) -> u16 {
        if let Some(i) = self.attrs.iter().position(|&a| a == (input, attr)) {
            return i as u16;
        }
        self.attrs.push((input, attr));
        (self.attrs.len() - 1) as u16
    }

    /// The `(input, attr)` source of every slot, in slot order.
    pub fn attrs(&self) -> &[(usize, usize)] {
        &self.attrs
    }

    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

/// A compiled expression: flat bytecode plus its constant pool. Immutable
/// after compilation — all mutable state lives in the executing [`ExprVm`].
#[derive(Debug, Clone)]
pub struct VmProgram {
    ops: Vec<Op>,
    consts: Vec<Poly>,
}

impl VmProgram {
    /// Compiles `expr` (postorder), interning attribute references into
    /// `slots`. Programs compiled against the same `SlotMap` share slots.
    pub fn compile(expr: &Expr, slots: &mut SlotMap) -> VmProgram {
        let mut prog = VmProgram { ops: Vec::new(), consts: Vec::new() };
        prog.emit(expr, slots);
        prog
    }

    /// Compiles the difference form `lhs − rhs` as one program.
    pub fn compile_diff(lhs: &Expr, rhs: &Expr, slots: &mut SlotMap) -> VmProgram {
        let mut prog = VmProgram { ops: Vec::new(), consts: Vec::new() };
        prog.emit(lhs, slots);
        prog.emit(rhs, slots);
        prog.ops.push(Op::Sub);
        prog
    }

    /// The instruction stream (for introspection and tests).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn intern_const(&mut self, p: Poly) -> u16 {
        if let Some(i) = self.consts.iter().position(|c| *c == p) {
            return i as u16;
        }
        self.consts.push(p);
        (self.consts.len() - 1) as u16
    }

    fn emit(&mut self, e: &Expr, slots: &mut SlotMap) {
        match e {
            Expr::Const(v) => {
                let i = self.intern_const(Poly::constant(*v));
                self.ops.push(Op::Const(i));
            }
            Expr::Attr { input, attr } => {
                let i = slots.slot_of(*input, *attr);
                self.ops.push(Op::Slot(i));
            }
            Expr::Time => self.ops.push(Op::Time),
            Expr::Add(a, b) => {
                self.emit(a, slots);
                self.emit(b, slots);
                self.ops.push(Op::Add);
            }
            Expr::Sub(a, b) => {
                self.emit(a, slots);
                self.emit(b, slots);
                self.ops.push(Op::Sub);
            }
            Expr::Mul(a, b) => {
                self.emit(a, slots);
                self.emit(b, slots);
                self.ops.push(Op::Mul);
            }
            Expr::Div(a, b) => {
                self.emit(a, slots);
                self.emit(b, slots);
                self.ops.push(Op::Div);
            }
            Expr::Neg(a) => {
                self.emit(a, slots);
                self.ops.push(Op::Neg);
            }
            Expr::Pow(a, n) => {
                self.emit(a, slots);
                self.ops.push(Op::Pow(*n));
            }
            Expr::Sqrt(_) => self.ops.push(Op::Fail("sqrt (normalize the predicate)")),
            Expr::Abs(_) => self.ops.push(Op::Fail("abs (normalize the predicate)")),
        }
    }
}

/// The reusable executor: coefficient slots, the evaluation stack, and
/// staging buffers for `Mul`/`Pow`. One instance per operator/shard; all
/// buffers persist across runs, so a warm run is allocation-free.
#[derive(Debug, Clone)]
pub struct ExprVm {
    slots: Vec<Poly>,
    stack: Vec<Poly>,
    time: Poly,
    t0: Poly,
    t1: Poly,
    t2: Poly,
}

impl Default for ExprVm {
    fn default() -> Self {
        ExprVm {
            slots: Vec::new(),
            stack: Vec::new(),
            time: Poly::t(),
            t0: Poly::zero(),
            t1: Poly::zero(),
            t2: Poly::zero(),
        }
    }
}

impl ExprVm {
    pub fn new() -> Self {
        ExprVm::default()
    }

    /// Grows the slot table to at least `n` entries (never shrinks).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, Poly::zero);
        }
    }

    /// The slot buffer for binding: callers write the segment's model
    /// polynomial for the slot's `(input, attr)` into it before `run`.
    pub fn slot_mut(&mut self, i: usize) -> &mut Poly {
        &mut self.slots[i]
    }

    /// Binds slot `i` to a copy of `p`, reusing the slot's allocation.
    pub fn bind(&mut self, i: usize, p: &Poly) {
        self.slots[i].copy_from(p);
    }

    fn grow_stack(&mut self, sp: usize) {
        if self.stack.len() == sp {
            self.stack.push(Poly::zero());
        }
    }

    /// Runs `prog` against the bound slots, writing the result into `out`.
    ///
    /// Results are bit-identical to the tree walk ([`Expr::to_poly`]): every op
    /// uses the in-place polynomial kernels whose operation order matches
    /// the allocating ones exactly.
    pub fn run(&mut self, prog: &VmProgram, out: &mut Poly) -> Result<(), ExprError> {
        let mut sp = 0usize;
        for op in &prog.ops {
            match *op {
                Op::Const(i) => {
                    self.grow_stack(sp);
                    self.stack[sp].copy_from(&prog.consts[i as usize]);
                    sp += 1;
                }
                Op::Slot(i) => {
                    self.grow_stack(sp);
                    // Split-borrow: slot and stack cell are distinct fields.
                    let slot = &self.slots[i as usize];
                    self.stack[sp].copy_from(slot);
                    sp += 1;
                }
                Op::Time => {
                    self.grow_stack(sp);
                    self.stack[sp].copy_from(&self.time);
                    sp += 1;
                }
                Op::Add => {
                    debug_assert!(sp >= 2, "balanced program");
                    let (a, b) = two(&mut self.stack, sp);
                    a.add_assign_poly(b);
                    sp -= 1;
                }
                Op::Sub => {
                    debug_assert!(sp >= 2, "balanced program");
                    let (a, b) = two(&mut self.stack, sp);
                    a.sub_assign_poly(b);
                    sp -= 1;
                }
                Op::Mul => {
                    debug_assert!(sp >= 2, "balanced program");
                    let (a, b) = two(&mut self.stack, sp);
                    a.mul_into(b, &mut self.t0);
                    std::mem::swap(a, &mut self.t0);
                    sp -= 1;
                }
                Op::Div => {
                    debug_assert!(sp >= 2, "balanced program");
                    let (a, b) = two(&mut self.stack, sp);
                    if b.is_constant() && !b.is_zero() {
                        a.scale_assign(1.0 / b.coeff(0));
                        sp -= 1;
                    } else {
                        return Err(ExprError::NotPolynomial("division by non-constant"));
                    }
                }
                Op::Neg => {
                    debug_assert!(sp >= 1, "balanced program");
                    self.stack[sp - 1].neg_assign();
                }
                Op::Pow(n) => {
                    debug_assert!(sp >= 1, "balanced program");
                    let a = &mut self.stack[sp - 1];
                    a.powi_into(n, &mut self.t0, &mut self.t1, &mut self.t2);
                    std::mem::swap(a, &mut self.t0);
                }
                Op::Fail(what) => return Err(ExprError::NotPolynomial(what)),
            }
        }
        debug_assert_eq!(sp, 1, "balanced program");
        out.copy_from(&self.stack[sp - 1]);
        Ok(())
    }
}

/// The top two stack cells `(a, b)` with `b` on top, as disjoint borrows.
fn two(stack: &mut [Poly], sp: usize) -> (&mut Poly, &Poly) {
    let (lo, hi) = stack.split_at_mut(sp - 1);
    (&mut lo[sp - 2], &hi[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference interpretation through the tree walk.
    fn ast_eval(
        e: &Expr,
        lookup: &impl Fn(usize, usize) -> Result<Poly, ExprError>,
    ) -> Result<Poly, ExprError> {
        e.to_poly(lookup)
    }

    fn lookup(input: usize, attr: usize) -> Result<Poly, ExprError> {
        match (input, attr) {
            (0, 0) => Ok(Poly::linear(1.0, 3.0)),
            (0, 1) => Ok(Poly::new(vec![0.5, -2.0, 1.0])),
            (1, 0) => Ok(Poly::linear(-4.0, 0.25)),
            _ => Err(ExprError::UnknownAttr { input, attr }),
        }
    }

    fn run_vm(e: &Expr) -> Result<Poly, ExprError> {
        let mut slots = SlotMap::new();
        let prog = VmProgram::compile(e, &mut slots);
        let mut vm = ExprVm::new();
        vm.ensure_slots(slots.len());
        for (i, &(input, attr)) in slots.attrs().iter().enumerate() {
            let p = lookup(input, attr)?;
            vm.bind(i, &p);
        }
        let mut out = Poly::zero();
        vm.run(&prog, &mut out)?;
        Ok(out)
    }

    #[test]
    fn vm_matches_ast_walk_bit_exactly() {
        let exprs = [
            Expr::c(3.5),
            Expr::attr(0),
            Expr::Time,
            Expr::attr(0) + Expr::attr(1) * Expr::Time,
            Expr::attr_of(0, 0) - Expr::attr_of(1, 0),
            Expr::Pow(Box::new(Expr::attr(1) - Expr::c(2.0)), 3),
            Expr::Div(Box::new(Expr::attr(0)), Box::new(Expr::c(4.0))),
            Expr::Neg(Box::new(Expr::attr(1) * Expr::attr(1))),
            (Expr::attr(0) + Expr::c(1.0)) * (Expr::attr(0) - Expr::c(1.0)) * Expr::Time,
            Expr::Pow(Box::new(Expr::attr(0)), 0),
        ];
        for e in &exprs {
            let want = ast_eval(e, &lookup).unwrap();
            let got = run_vm(e).unwrap();
            assert_eq!(want.coeffs().len(), got.coeffs().len(), "{e:?}");
            for (w, g) in want.coeffs().iter().zip(got.coeffs()) {
                assert_eq!(w.to_bits(), g.to_bits(), "{e:?}");
            }
        }
    }

    #[test]
    fn errors_match_ast_walk() {
        let div = Expr::Div(Box::new(Expr::c(1.0)), Box::new(Expr::attr(0)));
        assert!(run_vm(&div).is_err());
        assert!(ast_eval(&div, &lookup).is_err());
        let sqrt = Expr::Sqrt(Box::new(Expr::attr(0)));
        assert!(run_vm(&sqrt).is_err());
        let unknown = Expr::attr_of(3, 7);
        assert!(matches!(run_vm(&unknown), Err(ExprError::UnknownAttr { input: 3, attr: 7 })));
    }

    #[test]
    fn slots_are_shared_across_programs() {
        let mut slots = SlotMap::new();
        let p1 = VmProgram::compile(&(Expr::attr(0) + Expr::attr(1)), &mut slots);
        let p2 = VmProgram::compile(&(Expr::attr(1) - Expr::attr(0)), &mut slots);
        assert_eq!(slots.len(), 2, "distinct attrs interned once");
        assert_eq!(p1.ops()[0], Op::Slot(0));
        assert_eq!(p2.ops()[0], Op::Slot(1));
    }

    #[test]
    fn constant_pool_interns_duplicates() {
        let mut slots = SlotMap::new();
        let e = (Expr::c(2.0) * Expr::attr(0)) + (Expr::c(2.0) * Expr::attr(1));
        let prog = VmProgram::compile(&e, &mut slots);
        let const_ops =
            prog.ops().iter().filter(|op| matches!(op, Op::Const(_))).collect::<Vec<_>>();
        assert_eq!(const_ops, vec![&Op::Const(0), &Op::Const(0)]);
    }

    #[test]
    fn warm_reruns_are_stable() {
        let mut slots = SlotMap::new();
        let e = Expr::attr(0) * Expr::attr(1) - Expr::Pow(Box::new(Expr::Time), 2);
        let prog = VmProgram::compile(&e, &mut slots);
        let mut vm = ExprVm::new();
        vm.ensure_slots(slots.len());
        let want = ast_eval(&e, &lookup).unwrap();
        let mut out = Poly::zero();
        for _ in 0..3 {
            for (i, &(input, attr)) in slots.attrs().iter().enumerate() {
                vm.bind(i, &lookup(input, attr).unwrap());
            }
            vm.run(&prog, &mut out).unwrap();
            assert_eq!(out, want);
        }
    }
}
