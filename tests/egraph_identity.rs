//! "Identical by construction", checked: the e-graph core may change how
//! e-nodes are stored, but never which [`Id`] an `add` returns, which
//! class survives a union, or what a saturation run counts. The suite and
//! script tables below were recorded at the commit that still stored
//! `Vec<Node>` per class and a `Node`-keyed memo; a storage change that
//! moves any of them has changed behaviour, not just layout. The two
//! ablation tables (rule subsets, backoff off) pin what the rule set and
//! the scheduler are worth, as counts. The snapshot table pins the bytes
//! of every saturated graph, so a change to the apply path that keeps the
//! counters but moves a union-find parent, a parents-list entry, a memo
//! value or an op-index entry fails too.

mod common;

use accsat_benchmarks::{generate_kernel, GenConfig};
use accsat_egraph::{
    all_rules, assoc_rules, comm_rules, fma_rules, EGraph, Id, Node, Op, Runner, RunnerLimits,
};
use accsat_ir::{fnv1a, innermost_parallel_loops, parse_program};
use accsat_ssa::build_kernel;
use std::time::Duration;

/// Per suite kernel: iterations, matches, applied, total nodes, live
/// classes, stop reason — paper limits, default backoff, one thread.
const SUITE_COUNTERS: &str = "\
BT bt_zsolve 5 4684 922 1184 262 Saturated
BT bt_rhs 3 72 22 73 50 Saturated
CG cg_spmv 3 13 4 22 18 Saturated
CG cg_axpy 3 23 7 20 13 Saturated
EP ep_gauss 3 120 33 121 86 Saturated
FT ft_butterfly 3 45 16 48 32 Saturated
FT ft_evolve 3 36 13 33 20 Saturated
LU lu_jacld 10 24329 2203 2588 383 IterLimit
MG mg_resid 10 12600 810 1020 210 IterLimit
SP sp_lhs 6 898 158 227 69 Saturated
ostencil stencil_jacobi 10 6340 854 951 94 IterLimit
olbm lbm_stream 10 23935 1483 1945 457 IterLimit
omriq mriq_computeq 4 257 63 125 62 Saturated
ep ep_gauss 3 120 33 121 86 Saturated
cg cg_spmv 3 13 4 22 18 Saturated
cg cg_axpy 3 23 7 20 13 Saturated
csp sp_lhs 6 898 158 227 69 Saturated
bt bt_zsolve 5 4684 922 1184 262 Saturated
bt bt_rhs 3 72 22 73 50 Saturated
";

/// The id every `add` of [`scripted_ids`] returned, then the canonical id
/// of every one of them after the final rebuild.
const SCRIPT_IDS: &str = "\
18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 42 43 44 45 \
46 47 48 42 49 50 51 52 53 54 55 56 57 42 58 59 60 61 62 63 64 65 66 67 68 69 70 71 20 \
72 73 74 75 76 77 78 79 80 81 82 83 84 85 86 87 88 89 90 91 92 93 94 95 96 97 98 99 100 \
101 102 103 104 105 106 33 107 108 109 110 111 112 113 114 115 116 117 118 119 120 121 \
122 123 124 125 126 127 128 129 130 131 132 133 134 135 136 137 138 139 140 141 142 143 \
144 145 146 147 72 148 149 150 151 152 153 154 147 33 155 156 157 158 159 160 161 162 \
163 164 165 166 167 168 169 170 171 34 172 173 174 175 176 177 178 179 180 181 182 183 \
184 185 186 187 188 189 190 191 192 193 194 195 196 197 127 198 199 200 201 202 203 204 \
205 206 207 208 209 210 211 212 213 214 215 216 217 218 219 220 221 222 223 224 225 226 \
227 228 229 230 231 232 233 234 235 236 237 238 239 240 241 242 243 244 245 246 247 | 0 \
7 2 3 4 11 6 7 8 9 10 11 25 39 4 3 16 17 18 19 11 21 22 23 24 25 26 34 28 29 30 3 32 33 \
34 35 51 37 52 39 40 41 34 34 43 44 45 46 25 48 34 49 3 51 52 53 11 55 56 25 34 28 59 60 \
61 62 63 64 65 66 67 68 69 70 74 11 72 73 74 75 76 77 78 79 80 81 82 83 60 82 74 87 88 \
89 90 91 188 93 3 95 53 97 98 99 52 21 102 103 65 105 106 33 107 108 109 110 111 112 113 \
114 115 116 117 118 119 120 121 122 123 124 125 126 127 128 129 130 131 132 133 134 135 \
136 137 138 51 140 141 142 143 144 145 146 46 72 148 149 150 151 152 153 154 46 33 155 \
156 60 158 159 160 161 25 163 7 165 113 167 168 88 170 171 34 172 173 174 175 176 177 \
178 179 180 181 26 183 184 185 186 187 188 189 190 191 192 193 194 195 196 197 127 17 60 \
200 201 202 203 204 205 206 207 208 209 210 211 212 213 214 215 216 217 218 219 220 221 \
222 223 224 225 226 227 228 229 230 231 232 233 234 235 236 237 238 239 240 241 242 243 \
244 245 246 247 | 251 211";

#[test]
fn suite_saturation_counters_are_pinned() {
    let mut table = String::new();
    for (name, mut kernel) in common::suite_kernels() {
        let report = Runner::new(all_rules()).run(&mut kernel.egraph);
        table.push_str(&format!(
            "{name} {} {} {} {} {} {:?}\n",
            report.iterations.len(),
            report.total_matches(),
            report.total_applied(),
            kernel.egraph.total_nodes(),
            kernel.egraph.num_classes(),
            report.stop_reason,
        ));
    }
    assert_eq!(table, SUITE_COUNTERS, "saturation counters moved");
}

/// The rule-set ablation: per suite kernel, matches, applied and total
/// nodes after 6 iterations of the FMA rules only, of COMM + ASSOC only,
/// and of the full Table I set (default backoff, one thread).
const RULE_SUBSETS: &str = "\
BT bt_zsolve | fma 72 36 174 | comm+assoc 3541 481 683 | table1 4684 922 1184
BT bt_rhs | fma 12 6 51 | comm+assoc 30 10 52 | table1 72 22 73
CG cg_spmv | fma 2 1 19 | comm+assoc 6 2 20 | table1 13 4 22
CG cg_axpy | fma 4 2 15 | comm+assoc 9 3 16 | table1 23 7 20
EP ep_gauss | fma 14 7 95 | comm+assoc 49 15 101 | table1 120 33 121
FT ft_butterfly | fma 6 3 34 | comm+assoc 24 8 37 | table1 45 16 48
FT ft_evolve | fma 6 3 22 | comm+assoc 15 5 22 | table1 36 13 33
LU lu_jacld | fma 14 7 80 | comm+assoc 13388 1357 1849 | table1 13656 1464 1957
MG mg_resid | fma 8 4 48 | comm+assoc 6020 802 1004 | table1 6052 810 1020
SP sp_lhs | fma 16 8 56 | comm+assoc 608 84 142 | table1 898 158 227
ostencil stencil_jacobi | fma 4 2 39 | comm+assoc 6318 850 944 | table1 6340 854 951
olbm lbm_stream | fma 88 44 192 | comm+assoc 10958 1295 1701 | table1 11683 1483 1945
omriq mriq_computeq | fma 12 6 63 | comm+assoc 165 29 89 | table1 257 63 125
ep ep_gauss | fma 14 7 95 | comm+assoc 49 15 101 | table1 120 33 121
cg cg_spmv | fma 2 1 19 | comm+assoc 6 2 20 | table1 13 4 22
cg cg_axpy | fma 4 2 15 | comm+assoc 9 3 16 | table1 23 7 20
csp sp_lhs | fma 16 8 56 | comm+assoc 608 84 142 | table1 898 158 227
bt bt_zsolve | fma 72 36 174 | comm+assoc 3541 481 683 | table1 4684 922 1184
bt bt_rhs | fma 12 6 51 | comm+assoc 30 10 52 | table1 72 22 73
";

#[test]
fn rule_subset_ablation_is_pinned() {
    // the wall-clock valve is raised so a debug build cannot trip it
    let limits =
        RunnerLimits { iter_limit: 6, time_limit: Duration::from_secs(600), ..Default::default() };
    let subsets = [
        ("fma", fma_rules()),
        ("comm+assoc", comm_rules().into_iter().chain(assoc_rules()).collect()),
        ("table1", all_rules()),
    ];
    let mut table = String::new();
    for (name, kernel) in common::suite_kernels() {
        table.push_str(&name);
        for (label, rules) in &subsets {
            let mut eg = kernel.egraph.clone();
            let report = Runner::new(rules.clone()).with_limits(limits).run(&mut eg);
            table.push_str(&format!(
                " | {label} {} {} {}",
                report.total_matches(),
                report.total_applied(),
                eg.total_nodes()
            ));
        }
        table.push('\n');
    }
    assert_eq!(table, RULE_SUBSETS, "rule-subset ablation moved; got:\n{table}");
}

/// The backoff ablation (egg's `BackoffScheduler` switched off): per suite
/// kernel, iterations, matches, total nodes and stop reason at the paper's
/// limits — compare `SUITE_COUNTERS`, the same run with backoff on.
const NO_BACKOFF: &str = "\
BT bt_zsolve 5 4684 1184 Saturated
BT bt_rhs 3 72 73 Saturated
CG cg_spmv 3 13 22 Saturated
CG cg_axpy 3 23 20 Saturated
EP ep_gauss 3 120 121 Saturated
FT ft_butterfly 3 45 48 Saturated
FT ft_evolve 3 36 33 Saturated
LU lu_jacld 5 62789 10001 NodeLimit
MG mg_resid 5 37111 10000 NodeLimit
SP sp_lhs 6 898 227 Saturated
ostencil stencil_jacobi 6 10271 1061 Saturated
olbm lbm_stream 5 78002 10000 NodeLimit
omriq mriq_computeq 4 257 125 Saturated
ep ep_gauss 3 120 121 Saturated
cg cg_spmv 3 13 22 Saturated
cg cg_axpy 3 23 20 Saturated
csp sp_lhs 6 898 227 Saturated
bt bt_zsolve 5 4684 1184 Saturated
bt bt_rhs 3 72 73 Saturated
";

#[test]
fn saturation_without_backoff_is_pinned() {
    let limits = RunnerLimits { time_limit: Duration::from_secs(600), ..Default::default() };
    let mut table = String::new();
    for (name, mut kernel) in common::suite_kernels() {
        let report =
            Runner::new(all_rules()).with_limits(limits).with_backoff(None).run(&mut kernel.egraph);
        table.push_str(&format!(
            "{name} {} {} {} {:?}\n",
            report.iterations.len(),
            report.total_matches(),
            kernel.egraph.total_nodes(),
            report.stop_reason,
        ));
    }
    assert_eq!(table, NO_BACKOFF, "backoff ablation moved; got:\n{table}");
}

/// A fixed pseudo-random script of adds, unions and rebuilds over a small
/// operator alphabet, dense enough in congruences that rebuild's repair
/// and stale-key sweep both run many times.
fn scripted_ids() -> String {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = move |n: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % n
    };
    let mut eg = EGraph::new();
    let mut ids: Vec<Id> = (0..16).map(|i| eg.add(Node::sym(&format!("v{i}")))).collect();
    ids.push(eg.add(Node::int(2)));
    ids.push(eg.add(Node::int(3)));
    let mut out = String::new();
    for step in 0..240 {
        let pick = |r: &mut dyn FnMut(usize) -> usize, ids: &[Id]| ids[r(ids.len())];
        let node = match rand(6) {
            0 => Node::new(Op::Add, vec![pick(&mut rand, &ids), pick(&mut rand, &ids)]),
            1 => Node::new(Op::Mul, vec![pick(&mut rand, &ids), pick(&mut rand, &ids)]),
            2 => Node::new(Op::Neg, vec![pick(&mut rand, &ids)]),
            3 => Node::new(
                Op::Fma,
                vec![pick(&mut rand, &ids), pick(&mut rand, &ids), pick(&mut rand, &ids)],
            ),
            4 => Node::new(Op::Load, vec![ids[0], pick(&mut rand, &ids), pick(&mut rand, &ids)]),
            _ => Node::new(Op::Sub, vec![pick(&mut rand, &ids), pick(&mut rand, &ids)]),
        };
        let id = eg.add(node);
        out.push_str(&format!("{} ", id.index()));
        ids.push(id);
        if rand(6) == 0 {
            let (a, b) = (pick(&mut rand, &ids), pick(&mut rand, &ids));
            eg.union(a, b);
        }
        if step % 7 == 6 {
            eg.rebuild();
        }
    }
    eg.rebuild();
    eg.check_invariants();
    out.push('|');
    for id in &ids {
        out.push_str(&format!(" {}", eg.find(*id).index()));
    }
    out.push_str(&format!(" | {} {}", eg.total_nodes(), eg.num_classes()));
    out
}

#[test]
fn scripted_add_ids_are_pinned() {
    assert_eq!(scripted_ids(), SCRIPT_IDS, "an add returned a different id");
}

/// Per kernel: snapshot length and FNV-1a of `EGraph::serialize()` after a
/// default saturation (paper limits, default backoff, one thread) — the 19
/// suite kernels, then 64 seeded genkern kernels (`GenConfig::default()`).
/// The snapshot spells out what no counter sees: the raw union-find
/// parent vector (path-halving state included), every class's node and
/// parents-list order, the memo and the op index.
const SNAPSHOT_HASHES: &str = "\
BT bt_zsolve 51092 f8d6916c6ee2176c
BT bt_rhs 3091 0da2cca9f21c64da
CG cg_spmv 850 e2d57c6819065c0b
CG cg_axpy 749 530a657586aab929
EP ep_gauss 4921 c0864193f5e15d3f
FT ft_butterfly 1798 c5a1f570458d3ab1
FT ft_evolve 1228 4b52dcaa2c7c9f23
LU lu_jacld 112309 0c8176d655bbaec2
MG mg_resid 37984 b177342df9d581cb
SP sp_lhs 9091 a473c9e888327e35
ostencil stencil_jacobi 30872 03acd1e39b65682c
olbm lbm_stream 80165 dd35d6d3ccec1b21
omriq mriq_computeq 4815 98f603b0f43eed99
ep ep_gauss 4921 c0864193f5e15d3f
cg cg_spmv 850 e2d57c6819065c0b
cg cg_axpy 749 530a657586aab929
csp sp_lhs 9091 a473c9e888327e35
bt bt_zsolve 51092 f8d6916c6ee2176c
bt bt_rhs 3091 0da2cca9f21c64da
gen 0 deep_nest 5481 1b08852c8915b4a4
gen 1 phi_if 8394 68def289de13abb2
gen 2 while_loop 4286 8e694b5ea9c8ee4c
gen 3 arr_cond 6764 9c08d7382268606b
gen 4 seq_loop 1552 00888808b07c5770
gen 5 seq_loop 7202 5a9c5bbd4e94a2f2
gen 6 stencil1d 2683 0685a4c1b9b79ece
gen 7 deep_nest 1048 77b8ba9995af87da
gen 8 while_loop 4458 4a435a2f2ba3b149
gen 9 spec_mix 3799 319793cf3aa3979b
gen 10 seq_loop 12779 ffaa9000a1423157
gen 11 arr_cond 5421 a9beb38c64815871
gen 12 twod 7201 f6c1cc274d0a3859
gen 13 deep_nest 3824 760aea1f814e00b1
gen 14 while_loop 4284 a0afbe6d9f821f8a
gen 15 arr_cond 6449 53c641f719673b22
gen 16 deep_nest 6842 3769788abbaa156f
gen 17 twod 8936 72546794b10ba23c
gen 18 seq_loop 2826 ee4c27ff73bc951d
gen 19 spec_mix 2207 3d6634ce60d84f10
gen 20 spec_mix 4409 83cfdac9656e7102
gen 21 deep_nest 12766 da5a9578554bdea5
gen 22 seq_loop 12816 e0586a67932020ce
gen 23 while_loop 3719 ea61cc001adcf529
gen 24 spec_mix 2440 12ee1d0508fa8a4a
gen 25 phi_if 2497 48a2f00bab4190a7
gen 26 seq_loop 7095 c767bd3fdb76de74
gen 27 seq_loop 8591 0283983a43aa37da
gen 28 spec_mix 32147 208d87797b570f54
gen 29 stencil1d 2461 78d3efc9d2d80d33
gen 30 while_loop 1819 d6ea09ac80fff6f3
gen 31 seq_loop 3798 883fb28426a9b929
gen 32 phi_if 3768 43c6ab6b314e79ff
gen 33 stencil1d 3104 1e7fad128a838da7
gen 34 arr_cond 5487 91d64d5ed43d9f92
gen 35 twod 8602 f463793bf894036b
gen 36 twod 21356 8c5bf8ce1e7c0e03
gen 37 deep_nest 4542 f27bb14daea42d2d
gen 38 stencil1d 3483 d68e77adffff96c3
gen 39 spec_mix 404 e89058c8b75aad48
gen 40 seq_loop 8900 41673f9ebb48a57e
gen 41 phi_if 2781 62cfe13f5157eebc
gen 42 arr_cond 8537 9f390f8125895bf4
gen 43 stencil1d 4621 c304815a39b89a3a
gen 44 twod 6474 b01c03f343bc5182
gen 45 while_loop 4544 9e5956334e538167
gen 46 deep_nest 12450 7a8e3f667131a5a2
gen 47 arr_cond 26446 ac01f21a45e1669d
gen 48 twod 2427 382241f36e53697a
gen 49 stencil1d 5507 ee663565960264d8
gen 50 twod 26883 c10d186126034313
gen 51 stencil1d 3554 e4cce39c49c6f30c
gen 52 seq_loop 2368 f8d4c59fa2f4f0b2
gen 53 while_loop 5978 4f43dd5f1e547dcf
gen 54 arr_cond 16777 473b2c23d8ada389
gen 55 spec_mix 3509 d2fca7cbd5f3c42d
gen 56 deep_nest 5319 4b526797b131eafa
gen 57 phi_if 4862 a4083d2020534387
gen 58 seq_loop 4884 8363be5d9b933a36
gen 59 spec_mix 3784 9ac06527cc45e2cd
gen 60 deep_nest 36711 7eb6eba9955456ae
gen 61 phi_if 7140 067c25205270e5be
gen 62 seq_loop 2975 1db42986283b5dd0
gen 63 arr_cond 6203 0ef4d33477dea0a3
";

#[test]
fn saturated_snapshots_are_pinned() {
    let mut kernels = common::suite_kernels();
    for seed in 0..64 {
        let gk = generate_kernel(seed, &GenConfig::default());
        let prog = parse_program(&gk.source).unwrap();
        for f in &prog.functions {
            for l in innermost_parallel_loops(f) {
                kernels.push((format!("gen {seed} {}", gk.flavor), build_kernel(&l.body)));
            }
        }
    }
    let mut table = String::new();
    for (name, mut kernel) in kernels {
        Runner::new(all_rules()).run(&mut kernel.egraph);
        let text = kernel.egraph.serialize();
        table.push_str(&format!("{name} {} {:016x}\n", text.len(), fnv1a(text.as_bytes())));
    }
    assert_eq!(table, SNAPSHOT_HASHES, "saturated snapshot bytes moved; got:\n{table}");
}
