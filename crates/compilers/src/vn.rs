//! Trace-level redundant-load elimination (the compiler back ends' value
//! numbering), with a configurable window that models each compiler's
//! strength.

use accsat_gpusim::{SimInst, SimOp, Trace};
use std::collections::HashMap;

/// Remove loads whose address key was loaded within the last `window`
/// instructions with no intervening store to the same base array.
/// `window = usize::MAX` models NVHPC's global value numbering; small
/// windows model GCC/Clang. Register uses of removed loads are rewritten to
/// the surviving destination.
pub(crate) fn eliminate_redundant_loads(trace: &Trace, window: usize) -> Trace {
    // remembered loads: address key → (pos, reg, base)
    let mut seen: HashMap<u64, (usize, u32, u64)> = HashMap::new();
    // arithmetic value numbering: (flop kind, operand regs) → (pos, reg)
    let mut flops: HashMap<(u8, Vec<u32>), (usize, u32)> = HashMap::new();
    let mut rename: HashMap<u32, u32> = HashMap::new();
    let mut out: Vec<SimInst> = Vec::new();

    for inst in &trace.insts {
        let mut inst = inst.clone();
        for s in &mut inst.srcs {
            if let Some(&r) = rename.get(s) {
                *s = r;
            }
        }
        match &inst.op {
            SimOp::Flop { kind } => {
                let vkey = (*kind, inst.srcs.clone());
                if let Some(&(pos, reg)) = flops.get(&vkey) {
                    if out.len() - pos <= window {
                        if let Some(d) = inst.dst {
                            rename.insert(d, reg);
                        }
                        continue; // drop the duplicate computation
                    }
                }
                if let Some(d) = inst.dst {
                    flops.insert(vkey, (out.len(), d));
                }
                out.push(inst);
            }
            SimOp::Load { key, base, .. } => {
                if let Some(&(pos, reg, _)) = seen.get(key) {
                    if out.len() - pos <= window {
                        if let Some(d) = inst.dst {
                            rename.insert(d, reg);
                        }
                        continue; // drop the duplicate load
                    }
                }
                if let Some(d) = inst.dst {
                    seen.insert(*key, (out.len(), d, *base));
                }
                out.push(inst);
            }
            SimOp::Store { key, base, .. } => {
                // a store may alias any remembered address of the same array;
                // address keys don't expose index relationships, so clobber
                // every remembered load of this base. The address just
                // written is known exactly, so forward the stored register
                // to later loads of it.
                let (k, b) = (*key, *base);
                seen.retain(|_, &mut (_, _, entry_base)| entry_base != b);
                if let Some(&v) = inst.srcs.first() {
                    seen.insert(k, (out.len(), v, b));
                }
                out.push(inst);
            }
            _ => out.push(inst),
        }
    }

    Trace { insts: out, num_regs: trace.num_regs, work_scale: trace.work_scale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accsat_gpusim::trace::Coalescing;

    fn load(key: u64, base: u64, dst: u32) -> SimInst {
        SimInst {
            op: SimOp::Load { coalescing: Coalescing::Full, key, base },
            srcs: vec![],
            dst: Some(dst),
        }
    }

    fn store(key: u64, base: u64, src: u32) -> SimInst {
        SimInst {
            op: SimOp::Store { coalescing: Coalescing::Full, key, base },
            srcs: vec![src],
            dst: None,
        }
    }

    fn flop(srcs: Vec<u32>, dst: u32) -> SimInst {
        // distinct kind per dst so these fillers never value-number together
        SimInst { op: SimOp::Flop { kind: (dst % 7) as u8 }, srcs, dst: Some(dst) }
    }

    fn t(insts: Vec<SimInst>, regs: u32) -> Trace {
        Trace { insts, num_regs: regs, work_scale: 1.0 }
    }

    #[test]
    fn duplicate_load_removed_and_renamed() {
        let trace = t(vec![load(7, 1, 0), flop(vec![0], 1), load(7, 1, 2), flop(vec![2], 3)], 4);
        let opt = eliminate_redundant_loads(&trace, usize::MAX);
        let (_, _, _, loads, _) = opt.op_counts();
        assert_eq!(loads, 1);
        // the second flop must now read reg 0
        assert_eq!(opt.insts[2].srcs, vec![0]);
    }

    #[test]
    fn duplicate_flop_value_numbered() {
        // two adds of the same operands collapse; a different kind survives
        let a = SimInst { op: SimOp::Flop { kind: 0 }, srcs: vec![0, 1], dst: Some(2) };
        let b = SimInst { op: SimOp::Flop { kind: 0 }, srcs: vec![0, 1], dst: Some(3) };
        let c = SimInst { op: SimOp::Flop { kind: 2 }, srcs: vec![0, 1], dst: Some(4) };
        let trace = t(vec![a, b, c], 5);
        let opt = eliminate_redundant_loads(&trace, usize::MAX);
        let (flops, _, _, _, _) = opt.op_counts();
        assert_eq!(flops, 2, "add deduped, mul kept");
    }

    #[test]
    fn window_limits_reuse() {
        let mut insts = vec![load(7, 1, 0)];
        for i in 1..20 {
            insts.push(flop(vec![0], i));
        }
        insts.push(load(7, 1, 20));
        let trace = t(insts, 21);
        let narrow = eliminate_redundant_loads(&trace, 4);
        let wide = eliminate_redundant_loads(&trace, usize::MAX);
        let (_, _, _, narrow_loads, _) = narrow.op_counts();
        let (_, _, _, wide_loads, _) = wide.op_counts();
        assert_eq!(narrow_loads, 2);
        assert_eq!(wide_loads, 1);
    }

    #[test]
    fn store_clobbers_remembered_loads() {
        // load a[0] (key 7), store a[1] (key 8), load a[0] again:
        // the store must invalidate the remembered load (conservative)
        let trace = t(vec![load(7, 1, 0), store(8, 1, 0), load(7, 1, 2)], 3);
        let opt = eliminate_redundant_loads(&trace, usize::MAX);
        let (_, _, _, loads, _) = opt.op_counts();
        assert_eq!(loads, 2, "store must clobber the remembered load");
    }

    #[test]
    fn store_to_load_forwarding() {
        // store a[0] = r0, then load a[0]: the load can be forwarded
        let trace = t(vec![flop(vec![], 0), store(7, 1, 0), load(7, 1, 2), flop(vec![2], 3)], 4);
        let opt = eliminate_redundant_loads(&trace, usize::MAX);
        let (_, _, _, loads, _) = opt.op_counts();
        assert_eq!(loads, 0, "load after store of same address forwards");
        assert_eq!(opt.insts[2].srcs, vec![0]);
    }
}
