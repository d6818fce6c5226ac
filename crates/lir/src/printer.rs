//! LIR pretty-printer, in the style of the paper's Figure 3.

use crate::ir::{Lir, LirTrace};

/// Renders a trace one instruction per line, e.g.:
///
/// ```text
/// v0 = import slot[0] int
/// v2 = addi.chk v0, v1 -> exit0
/// st ar[0], v2
/// loop -> exit1
/// ```
pub fn print_trace(trace: &LirTrace) -> String {
    let mut out = String::new();
    for (i, inst) in trace.code.iter().enumerate() {
        let name = |id: u32| -> String {
            let ty = trace.code[id as usize].result_ty();
            match ty {
                Some(t) => format!("{}{}", t.prefix(), id),
                None => format!("v{id}"),
            }
        };
        let line = render(inst, i, &name);
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn render(inst: &Lir, idx: usize, name: &dyn Fn(u32) -> String) -> String {
    use Lir::*;
    let def = |body: String| -> String {
        format!("  {} = {}", name(idx as u32), body)
    };
    let eff = |body: String| -> String { format!("  {body}") };
    match inst {
        ConstI(v) => def(format!("const {v}")),
        ConstD(bits) => def(format!("constd {}", f64::from_bits(*bits))),
        ConstObj(h) => def(format!("constobj #{h}")),
        ConstStr(h) => def(format!("conststr #{h}")),
        ConstBool(v) => def(format!("constbool {v}")),
        ConstBoxed(w) => def(format!("constboxed {w:#x}")),
        Import { slot, ty } => def(format!("import slot[{slot}] {ty:?}")),
        WriteAr { slot, v } => eff(format!("st ar[{slot}], {}", name(*v))),
        AluI(op, a, b) => def(format!("{} {}, {}", op.mnemonic(), name(*a), name(*b))),
        NotI(a) => def(format!("noti {}", name(*a))),
        NegI(a) => def(format!("negi {}", name(*a))),
        ChkAluI(op, a, b, e) => {
            def(format!("{} {}, {} -> exit{}", op.mnemonic(), name(*a), name(*b), e.0))
        }
        NegIChk(a, e) => def(format!("negi.chk {} -> exit{}", name(*a), e.0)),
        ModIChk(a, b, e) => def(format!("modi.chk {}, {} -> exit{}", name(*a), name(*b), e.0)),
        AluD(op, a, b) => def(format!("{} {}, {}", op.mnemonic(), name(*a), name(*b))),
        NegD(a) => def(format!("negd {}", name(*a))),
        CmpI(op, a, b) => def(format!("{} {}, {}", op.mnemonic_i(), name(*a), name(*b))),
        CmpD(op, a, b) => def(format!("{} {}, {}", op.mnemonic_d(), name(*a), name(*b))),
        NotB(a) => def(format!("notb {}", name(*a))),
        I2D(a) => def(format!("i2d {}", name(*a))),
        U2D(a) => def(format!("u2d {}", name(*a))),
        D2IChk(a, e) => def(format!("d2i.chk {} -> exit{}", name(*a), e.0)),
        D2I32(a) => def(format!("d2i32 {}", name(*a))),
        ChkRangeI(a, e) => def(format!("chkrange {} -> exit{}", name(*a), e.0)),
        Box(tag, a) => def(format!("{} {}", tag.box_mnemonic(), name(*a))),
        Unbox(tag, a, e) => def(format!("{} {} -> exit{}", tag.unbox_mnemonic(), name(*a), e.0)),
        UnboxNumD(a, e) => def(format!("unboxnum {} -> exit{}", name(*a), e.0)),
        GuardTrue(a, e) => eff(format!("xf {} -> exit{}", name(*a), e.0)),
        GuardFalse(a, e) => eff(format!("xt {} -> exit{}", name(*a), e.0)),
        GuardShape { obj, shape, exit } => {
            eff(format!("guard shape({}) == {} -> exit{}", name(*obj), shape, exit.0))
        }
        GuardClass { obj, class, exit } => {
            eff(format!("guard class({}) == {} -> exit{}", name(*obj), class, exit.0))
        }
        GuardBoxedEq(a, w, e) => eff(format!("guard {} == {:#x} -> exit{}", name(*a), w, e.0)),
        GuardBound { arr, idx, exit } => {
            eff(format!("guard {} in bounds({}) -> exit{}", name(*idx), name(*arr), exit.0))
        }
        LoadSlot(o, slot) => def(format!("ld {}[slot {}]", name(*o), slot)),
        StoreSlot(o, slot, v) => {
            eff(format!("st {}[slot {}], {}", name(*o), slot, name(*v)))
        }
        LoadProto(o) => def(format!("ld proto({})", name(*o))),
        LoadElem(a, i) => def(format!("ld {}[{}]", name(*a), name(*i))),
        StoreElem(a, i, v) => eff(format!("st {}[{}], {}", name(*a), name(*i), name(*v))),
        ArrayLen(a) => def(format!("arraylen {}", name(*a))),
        StrLen(a) => def(format!("strlen {}", name(*a))),
        Call { helper, args, ret, exit } => {
            let args: Vec<String> = args.iter().map(|&a| name(a)).collect();
            def(format!("call {helper:?}({}) {ret:?} -> exit{}", args.join(", "), exit.0))
        }
        CallTree { tree, exit } => eff(format!("calltree T{} -> exit{}", tree, exit.0)),
        LoopBack(e) => eff(format!("loop -> exit{}", e.0)),
        End(e) => eff(format!("end -> exit{}", e.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{FilterOptions, LirBuffer};
    use crate::ir::LirType;
    use crate::opclass::ChkOp;

    #[test]
    fn prints_figure3_style() {
        let mut b = LirBuffer::new(FilterOptions { fold: false, ..Default::default() });
        let x = b.emit(Lir::Import { slot: 0, ty: LirType::Int });
        let one = b.emit(Lir::ConstI(1));
        let e = b.alloc_exit();
        let sum = b.emit(Lir::ChkAluI(ChkOp::Add, x, one, e));
        b.emit(Lir::WriteAr { slot: 0, v: sum });
        let le = b.alloc_exit();
        b.emit(Lir::LoopBack(le));
        let text = print_trace(b.trace());
        assert!(text.contains("import slot[0]"));
        assert!(text.contains("addi.chk"));
        assert!(text.contains("st ar[0]"));
        assert!(text.contains("loop -> exit1"));
    }
}
