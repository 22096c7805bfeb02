//! "Identical by construction", checked: the e-graph core may change how
//! e-nodes are stored, but never which [`Id`] an `add` returns, which
//! class survives a union, or what a saturation run counts. Both tables
//! below were recorded at the commit that still stored `Vec<Node>` per
//! class and a `Node`-keyed memo; a storage change that moves any of them
//! has changed behaviour, not just layout.

mod common;

use accsat_egraph::{all_rules, EGraph, Id, Node, Op, Runner};

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
